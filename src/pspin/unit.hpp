// Discrete-event simulator of the PsPIN processing unit inside the Flare
// switch (Figure 2 of the paper): parser -> L2 packet memory -> packet
// scheduler -> cluster scheduler -> HPU runs the sPIN handler -> command
// unit emits packets.
//
// The unit hosts one core::AllreduceEngine per installed allreduce
// (Section 4: the network manager installs handlers and partitions memory).
// Handler execution is delegated to the engine, which charges cycles on the
// shared event calendar; the unit owns core occupancy, queueing, L2
// input-buffer accounting and the cold-start penalty.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "core/allreduce_engine.hpp"
#include "pspin/config.hpp"

namespace flare::pspin {

class PsPinUnit final : public core::EngineHost {
 public:
  PsPinUnit(sim::Simulator& sim, PsPinConfig cfg);

  /// Installs an allreduce (control-plane operation).  `pool_capacity` of 0
  /// means accounting-only working memory.
  core::AllreduceEngine& install(const core::AllreduceConfig& cfg,
                                 u64 pool_capacity = 0);
  core::AllreduceEngine* find(u32 allreduce_id);
  void uninstall(u32 allreduce_id);

  /// A packet arrives at the unit at time `when` (>= now).
  void inject(core::Packet pkt, SimTime when);

  /// Called for every packet the unit emits (block results, spills).
  using EmitHook = std::function<void(const core::Packet&, SimTime)>;
  void set_emit_hook(EmitHook hook) { emit_hook_ = std::move(hook); }

  // --- EngineHost ---
  sim::Simulator& simulator() override { return sim_; }
  const core::CostModel& costs() override { return cfg_.costs; }
  void emit(core::Packet&& pkt, SimTime when) override;
  /// `handler` is the id of the core running it.
  void handler_done(u32 core_id, SimTime end) override;

  // --- telemetry ---
  const PsPinConfig& config() const { return cfg_; }
  const Gauge& l2_bytes() const { return l2_bytes_; }
  const Gauge& queued_packets() const { return queued_packets_; }
  const Gauge& busy_cores() const { return busy_cores_; }
  u64 packets_injected() const { return packets_injected_; }
  u64 packets_dropped() const { return packets_dropped_; }
  u64 packets_unmatched() const { return packets_unmatched_; }
  u64 handlers_run() const { return handlers_run_; }
  u64 core_handler_count(u32 core_id) const {
    return cores_.at(core_id).handlers;
  }
  const TrafficCounter& emitted() const { return emitted_; }
  /// Sum over engines of working-memory high-water marks.
  u64 working_memory_high_water() const;
  SimTime last_emission() const { return last_emission_; }
  u64 payload_bytes_processed() const { return payload_bytes_processed_; }

 private:
  struct QueuedPacket {
    std::shared_ptr<const core::Packet> pkt;
    core::AllreduceEngine* engine = nullptr;
  };
  struct Subset {
    std::vector<u32> core_ids;
    std::deque<QueuedPacket> queue;
  };
  struct Core {
    bool busy = false;
    bool warm = false;  ///< handler code already in the i-cache
    u64 handlers = 0;
    // The running handler: its subset, and the bytes it holds.
    u32 subset = 0;
    u64 wire_bytes = 0;  ///< L2 input buffer, held until the core frees
    u64 payload_bytes = 0;
  };

  u32 subset_of(const core::Packet& pkt) const;
  void dispatch(u32 subset_idx);
  void start_handler(u32 core_id, u32 subset_idx, QueuedPacket qp);

  sim::Simulator& sim_;
  PsPinConfig cfg_;
  std::vector<Core> cores_;
  std::vector<Subset> subsets_;
  std::unordered_map<u32, std::unique_ptr<core::AllreduceEngine>> engines_;
  EmitHook emit_hook_;

  Gauge l2_bytes_;
  Gauge queued_packets_;
  Gauge busy_cores_;
  TrafficCounter emitted_;
  u64 packets_injected_ = 0;
  u64 packets_dropped_ = 0;
  u64 packets_unmatched_ = 0;
  u64 handlers_run_ = 0;
  u64 payload_bytes_processed_ = 0;
  SimTime last_emission_ = 0;
};

}  // namespace flare::pspin
