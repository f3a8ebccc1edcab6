// Host-based ring (Rabenseifner) allreduce — the bandwidth-optimal
// host-based baseline (Section 1; the "Host-Based Dense" bars of Figure
// 15).  Two phases of P-1 steps each (scatter-reduce, then allgather);
// every host transmits 2 * (P-1)/P * Z bytes, ~2x the traffic of the
// in-network reduction.
//
// Entry point: coll::Communicator with Algorithm::kHostRing.  RingOp is
// also the fault-recovery fallback data plane of the in-network dense
// allreduce.  It is a schedule on detail::HostOpBase (coll/op.hpp), which
// owns the fragment framing and the NACK/replay recovery: the ring
// advances strictly step by step per host, so a host stalled on its
// expected (phase, step) chunk NACKs its ring predecessor.
#pragma once

#include "coll/op.hpp"
#include "core/typed_buffer.hpp"

namespace flare::coll::detail {

class RingOp final : public HostOpBase {
 public:
  /// `trace`: see HostOpBase — nonzero when this ring is the fallback
  /// plane of an in-network session.
  RingOp(net::Network& net, const std::vector<net::Host*>& participants,
         const CollectiveOptions& desc, u32 trace = 0);

  void begin(u64 seed, std::shared_ptr<OpState> state) override;

 private:
  enum class Phase : u8 { kScatterReduce, kAllGather, kDone };

  struct RHost {
    Phase phase = Phase::kScatterReduce;
    u32 step = 0;
  };

  std::optional<Expect> expecting(u32 h) const override;
  void consume(u32 h, const Payload& msg) override;
  void fill_result(CollectiveResult& res) const override;

  static u32 make_tag(Phase phase, u32 step);
  u64 chunk_begin(u32 c) const;
  u64 chunk_elems(u32 c) const;
  /// Snapshots chunk `c` of h's working vector and sends it to h's ring
  /// successor as message (phase, step).
  void send_chunk(u32 h, u32 c, Phase phase, u32 step);

  core::ReduceOp op_;
  u32 esize_ = 4;
  u64 elems_total_ = 0;
  core::TypedBuffer expected_;
  /// Per host: the working vector (input, then result), refilled in place
  /// by every begin().
  std::vector<core::TypedBuffer> vecs_;
  std::vector<RHost> runs_;
};

}  // namespace flare::coll::detail
