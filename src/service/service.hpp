// Multi-tenant allreduce control plane (the "network manager" process the
// paper's evaluation assumes, Sections 4 and 7, grown into a subsystem).
//
// The AllreduceService ORCHESTRATES coll::Communicator sessions: it owns
// the scheduling policy (admission order, queueing, timeouts, fallback
// decisions, telemetry) while each admitted job executes through a
// persistent Communicator request on the shared calendar:
//
//   * admission through the shared coll::NetworkManager: candidate tree
//     roots in the order chosen by a RootPolicy (fixed / least-loaded
//     contention heuristic), or — least-congested with a monitor — the
//     cheapest tree first under the monitor's link costs;
//   * a bounded FIFO wait queue: jobs that no switch can admit wait for a
//     release, with a per-job timeout;
//   * host fallback: on queue overflow or timeout the job runs the
//     Communicator's host-ring data plane over the same network — the
//     paper's admission policy ("fall back to host-based allreduce on
//     rejection");
//   * reduction-tree reuse through coll::TreeCache on the root-order
//     path;
//   * switch state released on completion, which re-triggers admission for
//     queued jobs;
//   * per-job records and aggregate telemetry through common/stats.
//
// Drive it by scheduling submissions (submit_at) and running the network's
// event calendar.
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "coll/communicator.hpp"
#include "coll/tree_cache.hpp"
#include "service/job.hpp"
#include "service/root_policy.hpp"
#include "service/telemetry.hpp"

namespace flare::place {
class CostSnapshot;  // place/snapshot.hpp
}

namespace flare::service {

struct ServiceOptions {
  RootPolicy root_policy = RootPolicy::kLeastLoaded;
  /// Bounded wait queue: arrivals beyond this fall back immediately.
  u32 max_queue = 64;
  /// How long a job may wait for switch slots before falling back.
  /// 0 disables the timeout (jobs wait until slots free up).
  SimTime queue_timeout_ps = 2 * kPsPerMs;
  /// When false, jobs that cannot run in-network are rejected instead of
  /// falling back to the host ring.
  bool fallback_to_host = true;
  /// Calibrated per-switch aggregation rate (see FlareDenseOptions).
  f64 switch_service_bps = 2.4e12;
  /// Host-side fault tolerance applied to every job this service runs
  /// (see coll::Tuning::retransmit_timeout_ps).  0 leaves each job's own
  /// descriptor untouched (fault handling off unless the tenant set it).
  SimTime retransmit_timeout_ps = 0;
  u32 max_retransmits = 4;

  // --- congestion plane (README "Congestion plane") ---
  /// Fabric congestion monitor (must outlive the service).  When set: tree
  /// embedding uses the monitor's link costs, RootPolicy::kLeastCongested
  /// admits the cheapest tree first, and the migration knob below reaches
  /// every job's descriptor.
  net::CongestionMonitor* monitor = nullptr;
  /// Per-job congestion migration (see coll::Tuning::migrate_above);
  /// 0 places congestion-aware but never migrates mid-job.
  f64 migrate_above = 0.0;
  /// Monitor-driven admission backpressure: while the fabric-wide MEAN
  /// EWMA utilization (CongestionMonitor::mean_congestion) exceeds this
  /// bound, arriving jobs are QUEUED — not rejected — instead of being
  /// admitted onto a saturated fabric, and the queue re-checks one monitor
  /// period later (the queue timeout still bounds the wait).  0 (default)
  /// disables the gate; requires `monitor`.
  f64 admit_below_congestion = 0.0;

  // --- placement plane (README "Placement plane"; src/place/) ---
  /// Period of the co-placement optimizer rounds: every period (while jobs
  /// are active) the service freezes the fabric, runs the placement descent
  /// over the whole active job set, and stages the surviving moves onto
  /// their sessions for application at the next iteration boundary.
  /// 0 (default) disables the plane; requires `monitor`.
  SimTime place_period_ps = 0;
  u32 place_iterations = 600;  ///< cap on the descent's passes per round
  u64 place_seed = 0xC0F1ACEull;  ///< ignored: kept while perfbench sets it
  /// Hysteresis: plan moves predicting less than this fractional objective
  /// improvement are rejected (a break-before-make re-install is not
  /// free; marginal wins churn the fabric for nothing).
  f64 place_min_gain = 0.02;
  /// Cross-job admission scoring: score each queued job's MARGINAL
  /// worst-edge heat (place::PlacementOptimizer::admission_score) and
  /// admit the cheapest first instead of strict FIFO.  The congestion
  /// gate (admit_below_congestion) still applies first.  Requires
  /// `monitor`.
  bool admission_scoring = false;
};

class AllreduceService {
 public:
  AllreduceService(net::Network& net, ServiceOptions opt = {});
  ~AllreduceService();
  AllreduceService(const AllreduceService&) = delete;
  AllreduceService& operator=(const AllreduceService&) = delete;

  /// Submits a job arriving NOW (must be called before or during the event
  /// loop).  Returns the job id (index into records()).
  u32 submit(JobSpec spec);

  /// Schedules a job arrival at absolute simulated time `at`.  Job ids are
  /// assigned in arrival order.
  void submit_at(SimTime at, JobSpec spec);

  const std::vector<JobRecord>& records() const { return records_; }
  const ServiceTelemetry& telemetry() const { return telemetry_; }
  const coll::TreeCache& tree_cache() const { return cache_; }
  coll::NetworkManager& manager() { return manager_; }

  u32 active_jobs() const { return static_cast<u32>(jobs_.size()); }
  u32 queued_jobs() const { return static_cast<u32>(queue_.size()); }

 private:
  /// One executing job: a Communicator session bound to the job's
  /// participants, plus the persistent request holding its installed tree
  /// (in-network jobs).  `pc` MUST be declared after `comm`: its release
  /// path uses the communicator, so it has to be destroyed first.
  struct ActiveJob {
    coll::Communicator comm;
    coll::PersistentCollective pc;
    coll::CollectiveHandle handle;
    /// The job's resolved descriptor — multi-iteration ring jobs re-start
    /// from it with a bumped seed (persistent requests bump internally).
    coll::CollectiveOptions desc;

    ActiveJob(net::Network& net, std::vector<net::Host*> participants,
              coll::CommunicatorConfig cfg)
        : comm(net, std::move(participants), std::move(cfg)) {}
  };

  /// Why a job runs on the host-ring data plane.  Exactly one counter is
  /// bumped per ring start, keyed by this reason — a job that explicitly
  /// requested the ring can never be double-counted as a timeout fallback.
  enum class RingReason : u8 {
    kRequested,     ///< tenant asked for Algorithm::kHostRing
    kTimeout,       ///< left the wait queue via queue_timeout_ps
    kOverflow,      ///< bounced off a full queue on arrival
    kInadmissible,  ///< no switch partition can ever hold the job
  };

  coll::CollectiveOptions descriptor_for(const JobSpec& spec) const;
  /// The job carries a sparse workload: admission targets the in-network
  /// sparse engine and the host fallback is SparCML instead of the ring.
  static bool is_sparse(const JobSpec& spec);
  /// One admission round.  `feasible` (optional) reports whether the job
  /// could EVER run in-network (see NetworkManager::install_with_roots).
  bool try_admit(u32 job, bool* feasible = nullptr);
  void enqueue(u32 job);
  void schedule_drain();
  void drain_queue();
  /// False while the admission-backpressure gate is closed (fabric-wide
  /// mean congestion above ServiceOptions::admit_below_congestion).
  /// Samples the monitor, so the answer reflects the fabric NOW.
  bool congestion_gate_open();
  /// Re-runs the queue drain one monitor period later (EWMA windows must
  /// turn before the gate can observe a cooler fabric).
  void schedule_congestion_recheck();
  void start_fallback_or_reject(u32 job, RingReason why);
  /// Runs the job on its host data plane (ring; SparCML for sparse jobs)
  /// for the given reason.
  void start_host_plane(u32 job, RingReason why);

  // --- placement plane (src/place/) ---
  /// Freezes the in-network active jobs + monitor state into an immutable
  /// CostSnapshot (ascending job id; never samples the monitor itself).
  place::CostSnapshot freeze_active();
  /// Arms the next co-placement round one place_period_ps out; no-op when
  /// the plane is off or a round is already armed.
  void ensure_place_armed();
  /// One co-placement round: freeze, placement descent, hysteresis filter,
  /// stage survivors onto their sessions (applied at each job's next
  /// iteration boundary via the break-before-make fresh-id path).
  void run_place_round();
  /// Index into queue_ of the job to admit next: 0 (FIFO) unless
  /// admission scoring is on, in which case the job with the cheapest
  /// marginal worst-edge heat (ties keep FIFO order).
  std::size_t pick_queued_index();

  void on_job_done(u32 job, const coll::CollectiveResult& res);
  /// Kicks off the next iteration of a multi-iteration job (off the
  /// completion callback's stack).
  void start_next_iteration(u32 job);

  net::Network& net_;
  ServiceOptions opt_;
  coll::NetworkManager manager_;
  coll::TreeCache cache_;
  ServiceTelemetry telemetry_;
  std::vector<JobRecord> records_;
  std::vector<JobSpec> specs_;
  std::deque<u32> queue_;  ///< job ids waiting for admission (FIFO)
  std::unordered_map<u32, std::unique_ptr<ActiveJob>> jobs_;
  bool drain_scheduled_ = false;    ///< immediate (next-event) drain pending
  /// A one-monitor-period congestion recheck is pending.  Kept separate
  /// from drain_scheduled_: a slot release must still drain IMMEDIATELY
  /// while a recheck is parked a period away.
  bool recheck_scheduled_ = false;
  u64 fault_listener_ = 0;  ///< network fault-notice subscription token

  // --- placement plane state ---
  bool place_armed_ = false;  ///< a co-placement round is on the calendar
  /// The last staged plan's predicted cost awaits grading against the
  /// next round's measured cost_before.
  bool place_grade_pending_ = false;
};

}  // namespace flare::service
