// Job model of the multi-tenant allreduce service: what a tenant submits
// (JobSpec), the lifecycle the control plane drives it through (JobState),
// and the per-job telemetry record the service keeps (JobRecord).
//
// Lifecycle (the paper's Section 4 admission policy, made explicit):
//
//   submit -> admitted in-network          (switch slots available)
//          -> queued  -> admitted          (slots freed by a release)
//                     -> fallback          (queue timeout: host-based ring)
//          -> fallback                     (queue full on arrival)
//          -> rejected                     (fallback disabled)
#pragma once

#include <string_view>
#include <vector>

#include "coll/options.hpp"
#include "common/units.hpp"
#include "net/network.hpp"

namespace flare::service {

/// What a tenant submits: a participant group plus the SAME unified
/// descriptor the Communicator executes (no more service-private option
/// fields).  desc.algorithm steers admission: in-network algorithms go
/// through admission control; Algorithm::kHostRing skips straight to the
/// host data plane.
struct JobSpec {
  std::vector<net::Host*> participants;
  coll::CollectiveOptions desc;
  /// Training iterations this job runs.  A persistent job's iteration i
  /// rotates the dense inputs drawn from desc.seed (sparse: draws from
  /// desc.seed + i); a host-plane job runs iteration i as a one-shot
  /// request seeded desc.seed + i.
  /// In-network jobs execute them against ONE persistent install — and a
  /// multi-iteration job is exactly what congestion-aware migration needs:
  /// a session long enough to observe the fabric change under it.
  u32 iterations = 1;
  /// Duty cycle: iteration i+1 starts this long after iteration i
  /// completes (0 = back-to-back).  A fleet of partial-duty-cycle jobs is
  /// exactly where co-placement beats reactive migration: each job's own
  /// EWMA footprint stays below the per-job reactive trigger while the
  /// fabric-wide overlap still hurts everyone.
  SimTime iteration_gap_ps = 0;
};

enum class JobState : u8 {
  kQueued = 0,   ///< waiting for switch slots
  kInNetwork,    ///< running through an installed reduction tree
  kFallback,     ///< running the host-based ring allreduce
  kDone,         ///< finished (in_network/ok say how and whether correctly)
  kRejected,     ///< admission failed and fallback disabled
};

std::string_view job_state_name(JobState s);

struct JobRecord {
  u32 job_id = 0;
  JobState state = JobState::kQueued;
  bool in_network = false;  ///< served by the switches (vs host fallback)
  bool ok = false;          ///< completed and within numeric tolerance
  bool exact = false;       ///< bit-for-bit equal to the reference reduction
  f64 max_abs_err = 0.0;
  u32 participants = 0;
  u64 data_bytes = 0;

  SimTime arrival_ps = 0;
  SimTime start_ps = 0;   ///< admission success or fallback start
  SimTime finish_ps = 0;

  u32 admission_attempts = 0;  ///< install attempts across candidate roots
  u32 requeue_retries = 0;     ///< admission rounds re-run from the queue
  bool timed_out = false;      ///< left the queue via timeout
  u32 iterations_done = 0;     ///< completed iterations (of spec.iterations)
  u64 retransmits = 0;         ///< blocks/chunks re-sent after host timeouts
  u32 recoveries = 0;          ///< reduction-tree reinstalls after faults
  u32 migrations = 0;          ///< congestion-triggered re-embeddings
  u32 planned_migrations = 0;  ///< optimizer-planned re-embeddings applied
  /// Sparse extras accumulated across iterations (zero for dense jobs) —
  /// the CollectiveResult counters surfaced per job.
  u64 spill_packets = 0;       ///< hash-collision spill flushes in the tree
  u64 host_pairs_sent = 0;     ///< (index, value) pairs hosts sent up
  u64 down_pairs = 0;          ///< pairs consumed from the down-multicast
  u64 dense_switchovers = 0;   ///< SparCML messages sent dense (fallbacks)
  u64 pairs_exchanged = 0;     ///< SparCML pairs exchanged while sparse
  /// Admitted in-network but FINISHED on the host ring because a fabric
  /// fault left no viable tree (in_network is false then).
  bool fell_back = false;
  bool tree_cache_hit = false;
  net::NodeId tree_root = net::kInvalidNode;
  u32 tree_switches = 0;

  f64 queue_delay_seconds() const {
    return static_cast<f64>(start_ps - arrival_ps) / kPsPerSecond;
  }
  f64 service_seconds() const {
    return static_cast<f64>(finish_ps - start_ps) / kPsPerSecond;
  }
  f64 sojourn_seconds() const {
    return static_cast<f64>(finish_ps - arrival_ps) / kPsPerSecond;
  }
};

}  // namespace flare::service
