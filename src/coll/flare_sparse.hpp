// Flare in-network SPARSE allreduce over the network simulator — the first
// in-network sparse allreduce (Section 7; the "Flare Sparse" bars of
// Figure 15).
//
// Hosts transmit only (index, value) pairs, sharded per reduction block
// with per-block shard counts; switches aggregate in hash stores (array at
// the root), spilling collisions as extra traffic; the root multicasts the
// aggregated pairs down.  The workload is pluggable (coll::SparseWorkload)
// so both the uniform SparseSpec generator (Figure 14) and the bucketed
// gradient trace (Figure 15) drive the same protocol; persistent sessions
// draw fresh per-iteration gradients through SparseWorkload::epoch_pairs.
//
// Entry point: coll::Communicator with a sparse workload attached to
// CollectiveOptions (algorithm kAuto or kFlareSparse).  detail::SparseOp is
// a block schedule on detail::TreeOpBase, exactly as the dense InNetOp is:
// the chassis sends each host's blocks through the window, completes,
// times out, retransmits and restarts them, and keeps the install up
// between iterations (per-iteration hash-store reset, fresh-id reinstall
// with a SparCML host fallback, congestion migration).  A one-shot is a
// one-iteration persistent request: the Communicator releases its install
// as that iteration publishes.  This file supplies only what is sparse: a
// block is a shard sequence up and down, tracked per host so that
// re-emitted shards are idempotent; host 0 aggregates the down pairs for
// the reference check; and the result carries the switches' spill count.
#pragma once

#include "coll/op.hpp"
#include "core/block_state.hpp"
#include "core/typed_buffer.hpp"

namespace flare::coll::detail {

/// The in-network sparse block schedule (see the file comment).
class SparseOp final : public TreeOpBase {
 public:
  SparseOp(net::Network& net, NetworkManager& manager,
           const std::vector<net::Host*>& participants,
           const CollectiveOptions& desc, core::AllreduceConfig cfg,
           ReductionTree tree, net::CongestionMonitor* monitor = nullptr);

 protected:
  void stage(u32 iteration) override;
  /// (Re)transmits every shard of host h's contribution to block b.
  void send_block(u32 h, u32 b, u16 flags) override;
  bool on_block_packet(u32 h, const core::Packet& pkt) override;
  void on_restart() override;
  void fill_result(CollectiveResult& res) const override;
  std::unique_ptr<OpBase> make_fallback_op() override;

 private:
  /// Engine spill counters summed over the current tree's switches.
  u64 tree_spills() const;

  core::ReduceOp op_;
  /// op_ on one element of the allreduce dtype, resolved once: host 0's
  /// accumulation and the reference check call it per pair.
  core::ElementCombiner combine_;
  const u32 P_;
  const u32 span_;  ///< index space per block
  const u32 ppp_;   ///< pairs per packet
  const u32 esize_;
  /// tree_spills() when the current engines started this iteration: the
  /// persistent install's counters run on across iterations, fresh
  /// engines after a reinstall start at zero.
  u64 spills_at_begin_ = 0;
  /// Staged (host, block) pair lists for the CURRENT iteration; shared by
  /// the data plane and the reference check.
  std::vector<std::vector<std::vector<core::SparsePair>>> staged_;
  /// Down-multicast shard bookkeeping per (host, block): the per-seq bitmap
  /// makes switch re-emits of cached results idempotent at the host.
  std::vector<std::vector<core::ShardTracker>> down_;
  /// Host 0's accumulation of the down-multicast stream (contents are
  /// identical across hosts, so one copy is checked against the reference).
  core::TypedBuffer result_;
  u64 down_pairs_ = 0;
  u64 host_pairs_sent_ = 0;
};

}  // namespace flare::coll::detail
