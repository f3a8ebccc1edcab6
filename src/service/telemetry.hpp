// Aggregate service telemetry: admission counters, queue-delay and service
// time distributions (common/stats collectors), and a per-switch occupancy
// snapshot taken from the switches' Gauge instrumentation.
#pragma once

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "net/network.hpp"

namespace flare::service {

struct ServiceTelemetry {
  u64 submitted = 0;
  u64 in_network = 0;       ///< jobs admitted to switch-based reduction
  u64 host_requested = 0;   ///< jobs that explicitly asked for the ring
  /// Admission fallbacks, counted by CAUSE.  Every ring start increments
  /// exactly one of host_requested / timeout_fallbacks / overflow_fallbacks
  /// / inadmissible_fallbacks — a job that explicitly requested the ring is
  /// never also counted as a timeout fallback (the old single `fallback`
  /// counter conflated the two).
  u64 timeout_fallbacks = 0;       ///< left the wait queue via timeout
  u64 overflow_fallbacks = 0;      ///< bounced off a full queue on arrival
  u64 inadmissible_fallbacks = 0;  ///< no switch partition can ever hold it
  u64 rejected = 0;         ///< jobs dropped (fallback disabled)
  u64 timed_out = 0;        ///< jobs that left the wait queue via timeout
  u64 queue_overflows = 0;  ///< arrivals bounced off a full queue
  u64 inadmissible = 0;     ///< jobs no switch partition can ever hold
  u64 admission_attempts = 0;  ///< install attempts across all jobs/roots
  u64 requeue_retries = 0;     ///< admission rounds re-run after a release
  u64 peak_queue_len = 0;

  // --- fault telemetry (populated when faults are injected) ---
  u64 faults_seen = 0;      ///< fabric fault notices observed by the service
  u64 retransmits = 0;      ///< blocks/chunks re-sent across all jobs
  u64 jobs_recovered = 0;   ///< jobs that completed despite faults, in plane
  u64 fault_fallbacks = 0;  ///< in-network jobs that FINISHED on the ring
                            ///< after losing their tree mid-run

  // --- congestion telemetry (populated when a monitor is configured) ---
  u64 migrations = 0;       ///< congestion-triggered tree re-embeddings
                            ///< across all jobs (see Tuning::migrate_above)
  /// Admission rounds deferred by the congestion gate
  /// (ServiceOptions::admit_below_congestion): arrivals parked in the
  /// queue plus queue drains paused while the fabric-wide mean EWMA sat
  /// above the bound.
  u64 congestion_deferrals = 0;

  // --- placement plane (populated when ServiceOptions::place_period_ps
  //     > 0 or admission_scoring is on; see src/place/) ---
  /// Optimizer-planned re-embeddings APPLIED by jobs at their iteration
  /// boundaries — disjoint from `migrations`, which counts only the ops'
  /// own reactive moves (the coplacement bench asserts the win comes from
  /// planning, not more reactive churn).
  u64 planned_migrations = 0;
  /// Scored admission (ServiceOptions::admission_scoring) picked a
  /// non-head queued job — the cheapest marginal worst-edge heat overtook
  /// strict FIFO order.
  u64 admission_reorders = 0;
  /// Per co-placement-round counters.
  struct PlacementTelemetry {
    u64 rounds = 0;          ///< optimizer rounds executed
    u64 moves_proposed = 0;  ///< candidate embeddings the descent scored
    u64 root_sweeps = 0;     ///< descent root sweeps (PlacementPlan)
    u64 moves_rejected = 0;  ///< plan moves dropped by the hysteresis gate
    u64 moves_planned = 0;   ///< plan moves staged onto live sessions
    /// Prediction grading for the LAST plan that staged moves: the
    /// objective before, the optimizer's predicted objective, and the
    /// realized objective (the NEXT round's freeze re-measures the fabric
    /// — realized/predicted quantifies model error).
    f64 last_cost_before = 0.0;
    f64 last_cost_predicted = 0.0;
    f64 last_cost_realized = 0.0;
  };
  PlacementTelemetry place;

  RunningStats queue_delay_s;        ///< submit -> start, per served job
  RunningStats in_network_service_s; ///< start -> finish, in-network jobs
  RunningStats fallback_service_s;   ///< start -> finish, fallback jobs

  /// Jobs that fell back to the host ring for ADMISSION reasons
  /// (explicitly host-requested jobs and mid-run fault fallbacks are not
  /// admission fallbacks).
  u64 fallback() const {
    return timeout_fallbacks + overflow_fallbacks + inadmissible_fallbacks;
  }
  u64 completed() const { return in_network + fallback() + host_requested; }
  /// Fraction of served jobs that had to fall back to host-based allreduce
  /// (explicitly host-requested jobs are not fallbacks).
  f64 fallback_ratio() const {
    const u64 served = completed();
    return served == 0 ? 0.0 : static_cast<f64>(fallback()) / served;
  }
};

/// One switch's occupancy over the run: peak concurrent reductions,
/// time-weighted mean, and the static partition size.
struct SwitchOccupancy {
  std::string name;
  u32 capacity = 0;      ///< max_allreduces partition
  u64 peak = 0;          ///< high-water mark of concurrent reductions
  f64 mean = 0.0;        ///< time-weighted mean occupancy
  u32 current = 0;       ///< still installed (should be 0 after drain)
};

std::vector<SwitchOccupancy> snapshot_occupancy(const net::Network& net,
                                                SimTime now);

/// Highest per-switch peak across the network.
u64 peak_switch_occupancy(const net::Network& net);

}  // namespace flare::service
