// Facade bundling one installed allreduce: its configuration, its working-
// memory partition (Section 4: memory is statically partitioned across
// allreduces) and the aggregation state machine chosen by the policy.
//
// Both hosting substrates (the PsPIN unit and the network-simulator switch)
// hold one AllreduceEngine per installed allreduce id.
#pragma once

#include <memory>

#include "core/dense_policies.hpp"
#include "core/sparse_policy.hpp"

namespace flare::core {

class AllreduceEngine {
 public:
  /// `pool_capacity_bytes == 0` -> accounting-only pool.
  AllreduceEngine(EngineHost& host, AllreduceConfig cfg,
                  u64 pool_capacity_bytes = 0)
      : cfg_(cfg), pool_(pool_capacity_bytes),
        agg_(make_aggregator(host, cfg_, pool_)) {}

  AllreduceEngine(const AllreduceEngine&) = delete;
  AllreduceEngine& operator=(const AllreduceEngine&) = delete;

  /// Runs handler `handler` for `pkt` (see Aggregator::process).
  void process(std::shared_ptr<const Packet> pkt, u32 handler) {
    agg_->process(std::move(pkt), handler);
  }

  /// Between iterations of a persistent collective: clears per-iteration
  /// aggregation state so the same block ids can run again (install-once /
  /// run-many).  See Aggregator::reset.
  void reset() { agg_->reset(); }

  const AllreduceConfig& config() const { return cfg_; }
  const EngineStats& stats() const { return agg_->stats(); }
  const BufferPool& pool() const { return pool_; }
  BufferPool& pool() { return pool_; }

 private:
  AllreduceConfig cfg_;
  BufferPool pool_;
  std::unique_ptr<Aggregator> agg_;
};

}  // namespace flare::core
