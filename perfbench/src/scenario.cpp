#include "scenario.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "common/rng.hpp"
#include "core/buffer_pool.hpp"
#include "core/typed_buffer.hpp"
#include "net/flow.hpp"
#include "net/network.hpp"
#include "net/telemetry.hpp"
#include "obs/bridge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "place/optimizer.hpp"
#include "service/service.hpp"
#include "workload/cross_traffic.hpp"
#include "workload/generators.hpp"

namespace perfbench {

using namespace flare;

namespace {

/// Annealing steps per co-placement round (the library default is 600;
/// 200 keeps a tenants128 pass near three seconds).
constexpr u32 kPlaceIterations = 200;
/// Sparse jobs: indices per block and blocks per iteration.
constexpr u32 kSparseSpan = 1024;
constexpr u32 kSparseBlocks = 8;
/// Simulated length of one run_until window.
constexpr SimTime kWindowPs = 20 * kPsPerUs;
/// The traced run probes the placement optimizer at the first window edge
/// past this instant that has two in-network jobs.
constexpr SimTime kPlaceProbeAfterPs = 100 * kPsPerUs;

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> out;

  // The frozen 64-host scenario of bench_sim_throughput: 24 tenants with
  // persistent 4-iteration int32 allreduces on the paper's Figure 15
  // fabric, at 16 KiB per host instead of 256 KiB: twelve small instances
  // per pass pool enough iterations that the simulated metrics barely move
  // between seeds (at 64 KiB, contention between the few large jobs of one
  // instance swung p90 by 13%).  The packet data plane does nearly all the
  // work.
  WorkloadSpec train;
  train.name = "train64";
  train.hosts = 64;
  train.radix = 8;
  train.max_allreduces = 32;
  train.data_bytes = 16 * kKiB;
  train.instances = 12;
  out.push_back(train);

  // Congestion-adaptive multi-tenant service: packet-mode on/off
  // background plus incasts as fluid flows, a monitor, least-congested
  // roots, reactive migration, co-placement rounds and scored admission
  // over duty-cycled dense, sparse and host-ring tenants.  The control
  // plane and placement dominate.
  WorkloadSpec tenants;
  tenants.name = "tenants128";
  tenants.hosts = 128;
  tenants.radix = 16;
  tenants.max_allreduces = 3;  // scarce switch slots: jobs queue
  tenants.ct_flows = 24;
  tenants.incast_bursts = 4;
  tenants.incast_fanin = 8;
  tenants.ct_horizon_ps = 300 * kPsPerUs;
  tenants.monitor_period_ps = 5 * kPsPerUs;
  tenants.root_policy = service::RootPolicy::kLeastCongested;
  tenants.queue_timeout_ps = 2 * kPsPerMs;
  tenants.migrate_above = 0.3;
  tenants.place_period_ps = 60 * kPsPerUs;
  tenants.admission_scoring = true;
  tenants.jobs = 10;
  tenants.hosts_min = 4;
  tenants.hosts_max = 16;
  tenants.data_bytes = 16 * kKiB;
  tenants.iterations = 6;
  tenants.iteration_gap_ps = 10 * kPsPerUs;
  tenants.mean_interarrival_s = 8e-6;
  tenants.kinds = {JobKind::kDense, JobKind::kSparse, JobKind::kDense,
                   JobKind::kRing};
  tenants.export_network_metrics = true;
  tenants.instances = 8;
  out.push_back(tenants);

  return out;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = make_workloads();
  return all;
}

/// One planned tenant: arrival, participants and descriptor.
struct PlannedJob {
  SimTime at_ps = 0;
  service::JobSpec spec;
};

/// Expands the workload's job mix for `seed` into service submissions.
/// The multiset of (group size, kind) pairs is fixed — sizes spread evenly
/// over [hosts_min, hosts_max], kinds cycled — so every seed asks for the
/// same host work; the seed draws the arrival order of those pairs, the
/// Poisson arrival instants, the participant hosts and the data.
std::vector<PlannedJob> plan_jobs(const WorkloadSpec& w, u64 seed,
                                  const std::vector<net::Host*>& hosts) {
  struct Shape {
    u32 size;
    JobKind kind;
  };
  std::vector<Shape> shapes;
  for (u32 j = 0; j < w.jobs; ++j) {
    const u32 size =
        w.hosts_min + (w.hosts_max - w.hosts_min) * j / std::max(1u, w.jobs - 1);
    const JobKind kind = w.kinds[j % w.kinds.size()];
    // SparCML, the sparse host fallback, needs power-of-two groups.
    shapes.push_back({kind == JobKind::kSparse ? std::bit_floor(size) : size,
                      kind});
  }
  Rng rng(seed);
  for (u32 i = w.jobs; i > 1; --i) {
    std::swap(shapes[i - 1], shapes[rng.uniform_u64(i)]);
  }
  std::vector<u32> pool(hosts.size());
  for (u32 i = 0; i < pool.size(); ++i) pool[i] = i;
  std::vector<PlannedJob> out;
  f64 t_s = 0.0;
  for (u32 j = 0; j < w.jobs; ++j) {
    const auto [size, kind] = shapes[j];
    t_s += rng.exponential(w.mean_interarrival_s);
    // Partial Fisher-Yates: the first `size` pool entries participate.
    for (u32 i = 0; i < size; ++i) {
      std::swap(pool[i], pool[i + rng.uniform_u64(pool.size() - i)]);
    }
    std::vector<u32> picked(pool.begin(), pool.begin() + size);
    std::sort(picked.begin(), picked.end());
    PlannedJob pj;
    pj.at_ps = static_cast<SimTime>(t_s * kPsPerSecond);
    for (const u32 h : picked) pj.spec.participants.push_back(hosts[h]);
    coll::CollectiveOptions& d = pj.spec.desc;
    d.dtype = core::DType::kInt32;
    d.seed = derive_seed(seed, 1000 + j);
    d.data_bytes = w.data_bytes;
    if (kind == JobKind::kRing) d.algorithm = coll::Algorithm::kHostRing;
    if (kind == JobKind::kSparse) {
      d.sparse.block_span = kSparseSpan;
      d.sparse.num_blocks = kSparseBlocks;
      d.sparse.epoch_pairs = [](u64 epoch, u32 h, u32 b) {
        const workload::SparseSpec s{kSparseSpan, 0.15, 0.5,
                                     core::DType::kInt32, epoch};
        return workload::sparse_block_pairs(s, h, b);
      };
      // The dense-equivalent payload the sparse iteration reduces.
      d.data_bytes = u64{kSparseSpan} * kSparseBlocks * sizeof(i32);
    }
    pj.spec.iterations = w.iterations;
    pj.spec.iteration_gap_ps = w.iteration_gap_ps;
    out.push_back(std::move(pj));
  }
  return out;
}

/// Times `fn` repeatedly until at least `min_s` CPU seconds have passed;
/// returns {calls, seconds}.
template <typename Fn>
std::pair<u64, f64> repeat_timed(f64 min_s, Fn&& fn) {
  const f64 t0 = cpu_seconds();
  u64 calls = 0;
  f64 t = t0;
  while (t - t0 < min_s) {
    fn();
    calls += 1;
    t = cpu_seconds();
  }
  return {calls, t - t0};
}

constexpr f64 kProbeSeconds = 0.01;

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadSpec& w : workloads()) out.push_back(w.name);
  return out;
}

InstanceResult run_instance(const WorkloadSpec& w, u64 seed, u32 index,
                            SpanLog& log, bool setup_only) {
  const u64 inst_seed = derive_seed(seed, index);
  InstanceResult r;
  const std::size_t first_span = log.spans().size();  // this instance's
  const core::pool_detail::PoolStats pool0 =
      core::pool_detail::payload_pool_stats();

  // ------------------------------------------------------------ set-up --
  const f64 t_setup = cpu_seconds();
  log.open("setup");
  obs::Tracer tracer;  // outlives the network that points at it
  net::Network net;
  std::vector<net::Host*> hosts;
  {
    ScopedSpan s(log, "net.build");
    net::FatTreeSpec spec;
    spec.hosts = w.hosts;
    spec.radix = w.radix;
    spec.max_allreduces = w.max_allreduces;
    hosts = net::build_fat_tree(net, spec).hosts;
  }
  net.set_tracer(&tracer);
  std::unique_ptr<net::CongestionMonitor> monitor;
  std::unique_ptr<service::AllreduceService> svc;
  {
    ScopedSpan s(log, "service.build");
    service::ServiceOptions opt;
    if (w.monitor_period_ps > 0) {
      net::CongestionMonitorOptions mopt;
      mopt.period_ps = w.monitor_period_ps;
      monitor = std::make_unique<net::CongestionMonitor>(net, mopt);
      opt.monitor = monitor.get();
    }
    opt.root_policy = w.root_policy;
    opt.queue_timeout_ps = w.queue_timeout_ps;
    opt.migrate_above = w.migrate_above;
    opt.place_period_ps = w.place_period_ps;
    opt.place_iterations = kPlaceIterations;
    opt.place_seed = derive_seed(inst_seed, 3);
    opt.admission_scoring = w.admission_scoring;
    svc = std::make_unique<service::AllreduceService>(net, opt);
  }
  std::vector<PlannedJob> plan;
  {
    ScopedSpan s(log, "workload.plan");
    plan = plan_jobs(w, derive_seed(inst_seed, 1), hosts);
    if (w.ct_flows > 0) {
      workload::CrossTrafficSpec ct;
      ct.flows = w.ct_flows;
      ct.incast_bursts = 0;
      ct.horizon_ps = w.ct_horizon_ps;
      ct.seed = derive_seed(inst_seed, 2);
      workload::CrossTrafficInjector(net, ct).arm();
    }
    if (w.incast_bursts > 0) {
      workload::CrossTrafficSpec ct;
      ct.flows = 0;
      ct.incast_bursts = w.incast_bursts;
      ct.incast_fanin = w.incast_fanin;
      ct.horizon_ps = w.ct_horizon_ps;
      ct.flow_mode = true;
      ct.seed = derive_seed(inst_seed, 5);
      workload::CrossTrafficInjector(net, ct).arm();
    }
    if (monitor) monitor->arm_until(w.ct_horizon_ps);
    for (const PlannedJob& pj : plan) svc->submit_at(pj.at_ps, pj.spec);
  }
  log.close();
  r.setup_s = cpu_seconds() - t_setup;
  if (setup_only) return r;

  // --------------------------------------------------------------- run --
  const f64 t_run = cpu_seconds();
  f64 probe_s = 0.0;  // traced-only probes inside the run, not run time
  std::string metrics_json;
  std::string trace_json;
  log.open("run");
  sim::Simulator& sim = net.sim();
  bool place_probed = false;
  for (SimTime edge = kWindowPs; !sim.empty(); edge += kWindowPs) {
    if (!log.enabled()) {
      sim.run_until(edge);
      continue;
    }
    log.open("sim.window");
    sim.run_until(edge);
    char args[96];
    std::snprintf(args, sizeof(args), "\"events\":%llu,\"packets\":%llu",
                  static_cast<unsigned long long>(sim.total_events_run()),
                  static_cast<unsigned long long>(net.total_packets()));
    log.close(args);
    // Placement probe: freeze the fleet as it stands at this window edge
    // and time one optimizer round on it.  Read-only: freeze() never
    // samples the monitor and compute_tree() installs nothing.
    if (place_probed || w.place_period_ps == 0 ||
        edge < kPlaceProbeAfterPs) {
      continue;
    }
    const f64 p0 = cpu_seconds();
    log.open("place.probe");
    std::vector<place::JobInput> inputs;
    const auto& recs = svc->records();
    for (u32 j = 0; j < recs.size(); ++j) {  // job id == plan index
      if (recs[j].state != service::JobState::kInNetwork) continue;
      auto tree = svc->manager().compute_tree(plan[j].spec.participants,
                                              recs[j].tree_root);
      if (!tree) continue;
      place::JobInput in;
      in.job_id = j;
      in.data_bytes = recs[j].data_bytes;
      in.participants = plan[j].spec.participants;
      in.tree = std::move(*tree);
      inputs.push_back(std::move(in));
    }
    if (inputs.size() >= 2) {
      place_probed = true;
      const place::CostSnapshot snap =
          place::CostSnapshot::freeze(net, *monitor, std::move(inputs));
      place::OptimizerOptions popt;
      popt.seed = derive_seed(inst_seed, 4);
      popt.iterations = kPlaceIterations;
      place::PlacementOptimizer(net, popt).optimize(snap);
      r.probes["place.optimize_s"] = cpu_seconds() - p0;
    }
    log.close();
    probe_s += cpu_seconds() - p0;
  }
  net.sync_flows();
  {
    ScopedSpan s(log, "obs.export");
    obs::MetricsRegistry reg;
    if (w.export_network_metrics) obs::register_network_metrics(reg, net);
    obs::export_service_telemetry(reg, svc->telemetry());
    metrics_json = reg.to_json();
    trace_json = tracer.to_json();
  }
  log.close();
  r.run_s = cpu_seconds() - t_run - probe_s;

  // ---------------------------------------------------------- analysis --
  const auto& recs = svc->records();
  const service::ServiceTelemetry& tel = svc->telemetry();
  u64 iterations_done = 0;
  u64 contributed = 0;
  for (const service::JobRecord& rec : recs) {
    r.jobs += 1;
    const bool good = rec.state == service::JobState::kDone && rec.ok &&
                      rec.exact && rec.iterations_done == w.iterations;
    if (good) {
      r.jobs_ok += 1;
      r.payload_bytes += rec.data_bytes * rec.iterations_done;
    } else {
      r.failures.push_back("job " + std::to_string(rec.job_id) +
                           " not ok/exact/complete");
    }
    iterations_done += rec.iterations_done;
    contributed += rec.data_bytes * rec.participants * rec.iterations_done;
    r.makespan_ps = std::max(r.makespan_ps, rec.finish_ps);
    digest_mix(r.digest, rec.job_id);
    digest_mix(r.digest, rec.finish_ps);
    digest_mix(r.digest, rec.ok ? 1 : 0);
    digest_mix(r.digest, rec.exact ? 1 : 0);
  }
  r.jobs += w.jobs - std::min<u64>(w.jobs, recs.size());  // never submitted
  if (recs.size() != w.jobs) r.failures.push_back("jobs missing");
  digest_mix(r.digest, sim.total_events_run());
  digest_mix(r.digest, net.total_traffic_bytes());

  bool balanced = true;
  r.iter_us = iteration_spans_us(trace_json, &balanced);
  if (!balanced) r.failures.push_back("unbalanced iteration spans");
  if (r.iter_us.size() != iterations_done) {
    r.failures.push_back("iteration spans != iterations done");
  }
  const u64 done = static_cast<u64>(std::count_if(
      recs.begin(), recs.end(), [](const service::JobRecord& rec) {
        return rec.state == service::JobState::kDone;
      }));
  if (tel.in_network + tel.fallback() + tel.host_requested != done) {
    r.failures.push_back("in-network + fallbacks != completed jobs");
  }

  // Busy time over the whole run: the clock stands on the first window
  // edge after the calendar drained.
  f64 max_util = 0.0;
  const f64 span_ps = static_cast<f64>(sim.now());
  for (u32 i = 0; i < net.num_links(); ++i) {
    max_util = std::max(
        max_util, static_cast<f64>(net.link(i).busy_cum_ps()) / span_ps);
  }
  const core::pool_detail::PoolStats pool1 =
      core::pool_detail::payload_pool_stats();
  auto& c = r.counters;
  c["sim.events"] = static_cast<f64>(sim.total_events_run());
  c["net.packets"] = static_cast<f64>(net.total_packets());
  c["net.traffic_bytes"] = static_cast<f64>(net.total_traffic_bytes());
  c["net.contributed_bytes"] = static_cast<f64>(contributed);
  c["net.max_link_util_sum"] = max_util;
  c["net.drops"] = static_cast<f64>(
      net.link_dropped_packets() + net.corrupt_dropped_packets() +
      net.stale_reduce_dropped_packets() +
      net.failed_switch_dropped_packets() + net.unroutable_dropped_packets());
  c["net.monitor_samples"] =
      monitor ? static_cast<f64>(monitor->samples()) : 0.0;
  const bool flows = net.has_flows();
  c["flow.flows_finished"] =
      flows ? static_cast<f64>(net.flows().flows_finished()) : 0.0;
  c["flow.recomputes"] =
      flows ? static_cast<f64>(net.flows().recomputes()) : 0.0;
  c["flow.reroutes"] = flows ? static_cast<f64>(net.flows().reroutes()) : 0.0;
  c["core.pool_fresh"] = static_cast<f64>(pool1.fresh - pool0.fresh);
  c["core.pool_reused"] = static_cast<f64>(pool1.reused - pool0.reused);
  c["coll.install_attempts"] = static_cast<f64>(tel.admission_attempts);
  c["coll.cache_hits"] = static_cast<f64>(svc->tree_cache().hits());
  c["coll.cache_lookups"] = static_cast<f64>(svc->tree_cache().hits() +
                                             svc->tree_cache().misses());
  c["coll.migrations"] = static_cast<f64>(tel.migrations);
  c["coll.planned_migrations"] = static_cast<f64>(tel.planned_migrations);
  c["coll.retransmits"] = static_cast<f64>(tel.retransmits);
  c["service.queue_delay_sum_us"] = tel.queue_delay_s.sum() * 1e6;
  c["service.queue_delay_count"] =
      static_cast<f64>(tel.queue_delay_s.count());
  c["service.in_network"] = static_cast<f64>(tel.in_network);
  c["service.completed"] = static_cast<f64>(tel.completed());
  c["service.fallbacks"] = static_cast<f64>(tel.fallback());
  c["service.admission_reorders"] = static_cast<f64>(tel.admission_reorders);
  c["service.congestion_deferrals"] =
      static_cast<f64>(tel.congestion_deferrals);
  c["place.rounds"] = static_cast<f64>(tel.place.rounds);
  c["place.moves_planned"] = static_cast<f64>(tel.place.moves_planned);
  c["place.moves_rejected"] = static_cast<f64>(tel.place.moves_rejected);
  c["obs.trace_events"] = static_cast<f64>(tracer.events());
  c["obs.export_bytes"] =
      static_cast<f64>(metrics_json.size() + trace_json.size());

  if (!log.enabled()) return r;

  // ------------------------------------------- traced-run probes (after) --
  auto& p = r.probes;
  p["net.build_s"] = log.total_seconds("net.build", first_span);
  p["workload.plan_s"] = log.total_seconds("workload.plan", first_span);
  p["obs.export_s"] = log.total_seconds("obs.export", first_span);
  {
    // Tree embedding at the final fabric state for the first in-network
    // jobs' participant sets and roots, under the link-cost provider the
    // service installed (the monitor's edge_cost, if any).
    ScopedSpan s(log, "coll.compute_tree");
    std::vector<u32> probed;
    for (u32 j = 0; j < recs.size() && probed.size() < 4; ++j) {
      if (recs[j].in_network) probed.push_back(j);
    }
    const auto [rounds, secs] = repeat_timed(kProbeSeconds, [&] {
      for (const u32 j : probed) {
        (void)svc->manager().compute_tree(plan[j].spec.participants,
                                          recs[j].tree_root);
      }
    });
    p["coll.compute_tree_calls"] = static_cast<f64>(rounds * probed.size());
    p["coll.compute_tree_s"] = probed.empty() ? 0.0 : secs;
  }
  {
    // The switch reduce kernel and the host data generator at the
    // workload's dtype, op and per-host payload.
    ScopedSpan s(log, "core.kernels");
    const std::size_t elems = w.data_bytes / sizeof(i32);
    core::TypedBuffer acc(core::DType::kInt32, elems);
    core::TypedBuffer in(core::DType::kInt32, elems);
    Rng rng(inst_seed);
    const auto [fills, fill_s] =
        repeat_timed(kProbeSeconds, [&] { in.fill_random(rng); });
    const core::ReduceOp sum(core::OpKind::kSum);
    const auto [reduces, reduce_s] = repeat_timed(kProbeSeconds, [&] {
      sum.apply(core::DType::kInt32, acc.data(), in.data(), elems);
    });
    p["core.fill_bytes"] = static_cast<f64>(fills * w.data_bytes);
    p["core.fill_s"] = fill_s;
    p["core.reduce_bytes"] = static_cast<f64>(reduces * w.data_bytes);
    p["core.reduce_s"] = reduce_s;
  }
  return r;
}

}  // namespace perfbench
