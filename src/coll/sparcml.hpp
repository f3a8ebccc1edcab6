// SparCML-style host-based sparse allreduce (Renggli et al., SC'19) — the
// "Host-Based Sparse" baseline of Figure 15.
//
// Recursive doubling over log2(P) rounds: partners exchange their full
// current sparse sets and merge them (union, summing on index matches).
// The set densifies every round; when the sparse encoding would exceed the
// dense vector, the host switches to the dense representation — SparCML's
// sparse-to-dense switchover.  Every host handles log2(P) increasingly
// dense messages, which is why the in-network sparse allreduce beats it on
// both time and traffic.
//
// Entry point: coll::Communicator with a sparse workload and
// Algorithm::kSparcml.  detail::SparcmlOp is a first-class op in the
// Communicator lifecycle (run / start / persistent): persistent requests
// re-stage fresh per-iteration gradients (SparseWorkload::epoch_pairs).
// It is a schedule on detail::HostOpBase (coll/op.hpp), the chassis it
// shares with the host ring: fragment framing, and — with
// Tuning::retransmit_timeout_ps enabled — a host stalled on its round
// partner's message NACKs for a replay of the recorded snapshot.
// SparcmlOp is also the fault-recovery fallback data plane of the
// in-network sparse engine.
#pragma once

#include "coll/op.hpp"
#include "core/typed_buffer.hpp"

namespace flare::coll::detail {

class SparcmlOp final : public HostOpBase {
 public:
  /// `trace`: see HostOpBase — nonzero when this op is the fallback plane
  /// of an in-network sparse session.
  SparcmlOp(net::Network& net, const std::vector<net::Host*>& participants,
            const CollectiveOptions& desc, u32 trace = 0);

  void begin(u32 iteration, std::shared_ptr<OpState> state) override;

 private:
  struct SpHost {
    std::vector<core::SparsePair> sparse;  ///< sorted by index
    core::TypedBuffer dense;
    bool is_dense = false;
    u32 round = 0;
  };

  std::optional<Expect> expecting(u32 h) const override;
  void consume(u32 h, const Payload& msg) override;
  void fill_result(CollectiveResult& res) const override;

  /// Host h's flattened global-index input for this iteration.
  std::vector<core::SparsePair> host_pairs(u32 h, u64 seed) const;
  /// SparCML's sparse-to-dense switchover of h's working set.
  void densify(SpHost& hr) const;
  /// Sends h's current set to its round-r partner, dense once the sparse
  /// encoding would exceed the dense vector.
  void send_round(u32 h, u32 r);

  core::ReduceOp op_;
  u32 rounds_ = 0;
  u64 total_elems_ = 0;
  u64 dense_bytes_ = 0;
  u64 dense_switchovers_ = 0;
  u64 pairs_exchanged_ = 0;
  core::TypedBuffer expected_;
  std::vector<SpHost> runs_;
};

}  // namespace flare::coll::detail
