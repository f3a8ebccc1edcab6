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
#include "workload/generators.hpp"

namespace flare::coll::detail {

class RingOp final : public HostOpBase {
 public:
  /// `trace`: see HostOpBase — nonzero when this ring is the fallback
  /// plane of an in-network session, whose drawn `inputs` it then shares;
  /// a ring without them draws its own from desc.seed on its first begin().
  RingOp(net::Network& net, const std::vector<net::Host*>& participants,
         const CollectiveOptions& desc, u32 trace = 0,
         std::shared_ptr<const workload::DenseInputs> inputs = nullptr);

  void begin(u32 iteration, std::shared_ptr<OpState> state) override;

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
  /// Chunk `c` of this iteration's rotation of `base`.
  const std::byte* slice(const core::TypedBuffer& base, u32 c);
  /// A copy of chunk `c` of host h's input this iteration.
  std::shared_ptr<core::TypedBuffer> input_chunk(u32 h, u32 c);
  /// Folds a finished result chunk's error against the reference into err_.
  void check(u32 c, const core::TypedBuffer& chunk);
  /// Sends `chunk` to h's ring successor as message (phase, step).
  void send_chunk(u32 h, Phase phase, u32 step,
                  std::shared_ptr<const core::TypedBuffer> chunk);

  core::ReduceOp op_;
  u32 esize_ = 4;
  u64 elems_total_ = 0;
  /// The request's inputs: drawn by the first begin(), or the in-network
  /// op's when this ring is its fallback.  Hosts hold no working vectors:
  /// each message is a fresh chunk, and every finished chunk a host gets
  /// is checked against the reference as it arrives.
  std::shared_ptr<const workload::DenseInputs> inputs_;
  std::size_t shift_ = 0;     ///< this iteration's rotation of inputs_
  core::TypedBuffer bounce_;  ///< a chunk that wraps past the end
  f64 err_ = 0.0;             ///< worst result-chunk error this iteration
  std::vector<RHost> runs_;
};

}  // namespace flare::coll::detail
