// Allreduce packet format (Section 4 and Section 7 of the paper).
//
// Dense packets carry `elem_count` raw elements of the allreduce dtype.
// Sparse packets carry (index, value) pairs encoded structure-of-arrays:
// all block-relative u32 indices first, then all values.  The header fields
// mirror the paper: the allreduce identifier, the reduction-block identifier
// (carried as an IP-option-like field so the parser can feed the scheduler),
// the flags for sparse shard bookkeeping, and the shard count carried in the
// LAST packet a sender emits for a block (Section 7, "Block split").
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "core/buffer_pool.hpp"
#include "core/dtype.hpp"
#include "core/reduce_op.hpp"

namespace flare::core {

enum PacketFlags : u16 {
  kFlagSparse = 1u << 0,     ///< payload is (index, value) pairs
  kFlagLastShard = 1u << 1,  ///< last packet of this block from this sender
  kFlagEmptyBlock = 1u << 2, ///< all-zero sparse block (header-only packet)
  kFlagRetransmit = 1u << 3, ///< host-timeout retransmission
  kFlagSpill = 1u << 4,      ///< sparse hash spill flush (early partial data)
  kFlagDown = 1u << 5,       ///< aggregated result travelling down the tree
};

struct PacketHeader {
  u32 allreduce_id = 0;
  u32 block_id = 0;
  /// Shard sequence number within (sender, block); used to deduplicate
  /// retransmitted sparse shards.
  u32 shard_seq = 0;
  /// Which child of the receiving switch sent this packet (reduction-tree
  /// port index, 0..num_children-1).  Rewritten hop by hop.
  u16 child_index = 0;
  u16 flags = 0;
  /// Number of packets the sender emitted for this block; valid only when
  /// kFlagLastShard is set (sparse blocks may span several packets).
  u32 shard_count = 0;
  /// Payload element count: elements (dense) or pairs (sparse).
  u32 elem_count = 0;
};

/// Wire overhead per packet: Ethernet/IP/transport headers plus the Flare
/// option header above.  Used for traffic accounting and serialization time.
inline constexpr u64 kPacketWireOverhead = 64;

struct Packet {
  PacketHeader hdr;
  /// Arena-backed: payload storage recycles through the size-class
  /// freelists instead of round-tripping the heap once per packet.
  PayloadVec payload;

  u64 payload_bytes() const { return payload.size(); }
  u64 wire_bytes() const { return kPacketWireOverhead + payload.size(); }
  bool is_sparse() const { return (hdr.flags & kFlagSparse) != 0; }
  bool is_last_shard() const { return (hdr.flags & kFlagLastShard) != 0; }
  bool is_down() const { return (hdr.flags & kFlagDown) != 0; }
};

/// Builds a dense packet from `elems` raw elements at `data`.
Packet make_dense_packet(u32 allreduce_id, u32 block_id, u16 child_index,
                         const void* data, u32 elems, DType dtype);

/// Shared ownership of an immutable in-flight packet (the form the network
/// layer multicasts).  The control block comes from the payload arena too:
/// one pooled allocation instead of a heap make_shared per packet.
using PacketPtr = std::shared_ptr<const Packet>;

inline PacketPtr make_pooled_packet(Packet&& p) {
  return std::allocate_shared<const Packet>(PoolAllocator<Packet>{},
                                            std::move(p));
}

/// Read-only view of a dense payload as raw element storage.
inline const void* dense_payload(const Packet& p) { return p.payload.data(); }

/// A single sparse (index, value) pair staged on the host side.
struct SparsePair {
  u32 index = 0;    ///< block-relative element index
  f64 value = 0.0;  ///< staged as f64; narrowed to dtype at pack time
};

/// Builds a sparse packet with `pairs` (SoA layout: indices then values).
Packet make_sparse_packet(u32 allreduce_id, u32 block_id, u16 child_index,
                          std::span<const SparsePair> pairs, DType dtype,
                          u16 extra_flags = 0);

/// Combines staged pairs into dense storage of `dtype` at `acc`, in order:
/// acc[i] = combine(acc[i], v) with each value narrowed to the dtype as
/// make_sparse_packet narrows it.  The host-side reference of a sparse
/// allreduce.
void accumulate_sparse_pairs(std::byte* acc, std::span<const SparsePair> pairs,
                             DType dtype, const ElementCombiner& combine);

/// Builds the header-only packet for an all-zero sparse block (Section 7,
/// "Empty blocks").
Packet make_empty_block_packet(u32 allreduce_id, u32 block_id,
                               u16 child_index);

/// Accessors for the SoA sparse payload.
struct SparseView {
  const u32* indices = nullptr;
  const std::byte* values = nullptr;  ///< elem_count values of `dtype`
  u32 count = 0;
  DType dtype = DType::kFloat32;

  f64 value_as_f64(u32 i) const;
};

SparseView sparse_view(const Packet& p, DType dtype);

/// Payload bytes used by `pairs` sparse pairs of `dtype`.
constexpr u64 sparse_pair_bytes(DType dtype) {
  return sizeof(u32) + dtype_size(dtype);
}

/// How many whole pairs fit in `payload_budget` bytes.
constexpr u32 sparse_pairs_per_packet(u64 payload_budget, DType dtype) {
  return static_cast<u32>(payload_budget / sparse_pair_bytes(dtype));
}

}  // namespace flare::core
