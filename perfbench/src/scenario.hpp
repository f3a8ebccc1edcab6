// The benchmark's workloads and the code that builds, runs and checks one
// seeded instance of a workload against the simulator's public API.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "measure.hpp"
#include "service/root_policy.hpp"

namespace perfbench {

using flare::SimTime;

/// One job kind of a workload's mix.
enum class JobKind : flare::u8 { kDense, kSparse, kRing };

/// Everything that defines a workload.  Job arrivals are open-loop on a
/// seeded Poisson schedule in simulated time; each job's iterations run
/// closed-loop (the next starts when the previous one completes, plus the
/// duty-cycle gap).
struct WorkloadSpec {
  std::string name;
  // --- fabric: a two-level fat tree ---
  u32 hosts = 64;
  u32 radix = 8;
  u32 max_allreduces = 8;
  // --- background traffic ---
  u32 ct_flows = 0;       ///< on/off flows, sent as packets
  u32 incast_bursts = 0;  ///< incasts, sent as fluid flows (net/flow.hpp)
  u32 incast_fanin = 4;
  SimTime ct_horizon_ps = 0;  ///< also the monitor's sampling horizon
  // --- congestion monitor (none when monitor_period_ps == 0) ---
  SimTime monitor_period_ps = 0;
  // --- service ---
  flare::service::RootPolicy root_policy =
      flare::service::RootPolicy::kLeastLoaded;
  SimTime queue_timeout_ps = 200 * flare::kPsPerUs;
  flare::f64 migrate_above = 0.0;
  SimTime place_period_ps = 0;  ///< 0 = no co-placement rounds
  bool admission_scoring = false;
  // --- job mix ---
  u32 jobs = 24;
  u32 hosts_min = 4;
  u32 hosts_max = 16;
  u64 data_bytes = 256 * flare::kKiB;
  u32 iterations = 4;
  SimTime iteration_gap_ps = 0;
  flare::f64 mean_interarrival_s = 2e-6;
  std::vector<JobKind> kinds = {JobKind::kDense};  ///< cycled per job
  // --- artifacts ---
  bool export_network_metrics = false;
  // --- harness ---
  u32 instances = 1;  ///< seeded instances per pass
};

/// The named workload, or nullptr.
const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// What one instance produced.  Everything but the timings and the
/// `probes` map is simulated, hence exact for a fixed seed.
struct InstanceResult {
  u64 digest = 0;  ///< job records, event count, traffic bytes
  u64 jobs = 0;
  u64 jobs_ok = 0;  ///< finished ok, and exact (all jobs reduce int32)
  u64 payload_bytes = 0;  ///< data_bytes x iterations_done over ok jobs
  SimTime makespan_ps = 0;
  std::vector<f64> iter_us;  ///< simulated time per collective iteration
  std::vector<std::string> failures;
  /// Public counters read after the run (summed over a pass).
  std::map<std::string, f64> counters;
  /// Host-time probes and spans of the traced run, in their final units.
  std::map<std::string, f64> probes;
  f64 setup_s = 0.0;  ///< process CPU seconds before the first event
  f64 run_s = 0.0;    ///< process CPU seconds from first event to export
};

/// Builds, runs and checks instance `index` of `w` for `seed`.  With an
/// enabled `log`, records spans around every phase and window and runs
/// the probes after the timed section.  With `setup_only`, returns right
/// after the set-up, with only `setup_s` filled in.
InstanceResult run_instance(const WorkloadSpec& w, u64 seed, u32 index,
                            SpanLog& log, bool setup_only = false);

}  // namespace perfbench
