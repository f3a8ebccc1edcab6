// Network-level packet representation for the SST-style simulator
// (Section 7.1, Figure 15).  Two traffic classes:
//
//  * Flare reduction packets (up toward the tree root / down multicast):
//    carry a core::Packet and are intercepted by the per-switch reduction
//    engine — this is the "switch modifies in-transit packets" capability
//    the paper added to SST;
//  * host-to-host messages used by the host-based baselines (ring allreduce
//    and the SparCML-style sparse allreduce): routed by destination,
//    opaque to switches.
//
// Time in this simulator is PICOSECONDS.
#pragma once

#include <memory>
#include <vector>

#include "common/validate.hpp"
#include "core/packet.hpp"
#include "core/sparse_store.hpp"
#include "core/typed_buffer.hpp"

namespace flare::net {

using NodeId = u32;
inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// Deterministic ECMP pick: which member of an equal-cost port set a flow
/// label hashes to.  THE routing hash — switches forward with it, and
/// traffic-engineering code (e.g. the congestion benches aiming background
/// flows at known spines) must use this function rather than a copy.
inline u32 ecmp_index(u64 flow, std::size_t set_size) {
  const u64 h = flow * 0x9E3779B97F4A7C15ull;
  return static_cast<u32>((h >> 32) % set_size);
}

/// Payload of a host-protocol message.  Fragments of one logical message
/// share the (proto, tag, seq_count) triple; bulk data rides on one
/// fragment as a shared_ptr (the others model wire bytes only).
struct HostMsg {
  u32 src_host = 0;
  u32 dst_host = 0;
  u32 proto = 0;  ///< protocol discriminator, owned by the collective
  u32 tag = 0;    ///< step / chunk id
  u32 seq = 0;
  u32 seq_count = 1;
  std::shared_ptr<const core::TypedBuffer> dense;
  std::shared_ptr<const std::vector<core::StoredPair>> sparse;
};

enum class PacketKind : u8 {
  kHostMsg = 0,
  kReduceUp,
  kReduceDown,
};

/// Field order is by size, so the struct packs into 64 bytes: the switch's
/// emit closure ([this, port, packet]) then fits sim::EventFn's inline
/// buffer instead of taking its heap fallback once per emitted packet.
struct NetPacket {
  u64 wire_bytes = 0;
  u64 flow = 0;                    ///< ECMP hash input
  NodeId dst_node = kInvalidNode;  ///< routing target for kHostMsg
  u32 allreduce_id = 0;            ///< for reduction traffic
  /// Per-collective attribution tag (Network::alloc_trace_id).  Unlike
  /// allreduce_id — which churns on every fresh-id reinstall/migration —
  /// the trace id is stable for a whole session, so links can account
  /// busy-time per collective across recoveries.  0 = untagged traffic
  /// (cross-traffic defaults, stale frames, raw injections).
  u32 trace = 0;
  PacketKind kind = PacketKind::kHostMsg;
  /// Payload damaged in transit (fault injection): the frame checksum fails
  /// at the next node, which discards the packet.
  bool corrupted = false;
  std::shared_ptr<const core::Packet> reduce;
  std::shared_ptr<const HostMsg> msg;
};
static_assert(sizeof(NetPacket) == 64, "keep NetPacket at 64 bytes");

#if FLARE_VALIDATE_ENABLED
/// FLARE_VALIDATE packet-lifecycle invariant: every packet offered to a
/// link carries the payload its kind promises.  A violation here means
/// some data plane built a frame by hand and skipped a field — the kind
/// of bug that surfaces many hops later as a nonsense aggregate.
/// Called by Link::send() on every hop in validating builds.
inline void validate_packet_lifecycle(const NetPacket& pkt) {
  if (pkt.wire_bytes == 0) {
    validate::fail("packet-lifecycle", "packet with zero wire_bytes");
  }
  switch (pkt.kind) {
    case PacketKind::kHostMsg:
      if (!pkt.msg) {
        validate::fail("packet-lifecycle", "kHostMsg without a HostMsg");
      }
      if (pkt.dst_node == kInvalidNode) {
        validate::fail("packet-lifecycle",
                       "kHostMsg without a routable dst_node");
      }
      break;
    case PacketKind::kReduceUp:
    case PacketKind::kReduceDown:
      if (!pkt.reduce) {
        validate::fail("packet-lifecycle",
                       "reduce packet without a core::Packet");
      }
      if (pkt.allreduce_id == 0) {
        validate::fail("packet-lifecycle",
                       "reduce packet with null allreduce id");
      }
      break;
  }
}
#endif

}  // namespace flare::net
