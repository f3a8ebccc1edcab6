// perfbench: runs one named workload of the simulator for one seed and
// prints its metrics as one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// A run is a warm-up pass followed by timed passes until --seconds have
// elapsed (at least kMinTimed).  A pass builds, runs and checks every
// seeded instance of the workload once; kSetupRounds set-up-only rounds
// precede each timed pass.  Simulated metrics come from the warm-up pass
// and are exact for a seed.  Host-time metrics use the process CPU clock,
// per instance: run_s sums each instance's fastest untraced run and
// setup_s each instance's fastest set-up.  Load from other processes on
// the machine only ever adds CPU time (cache and memory-bandwidth
// contention, in stretches of seconds), so the minimum tracks the
// program's own cost where a median drifts with the neighbours.  With
// --trace 1 the timed passes alternate traced and untraced, the traced
// ones record spans around every phase, window and probe, and the output
// holds the per-layer metrics instead; the spans of the last traced pass
// are written to <dir>/spans-<workload>-<seed>.json.
//
// Exits non-zero when any check fails: a job not ok or not exact, an
// unbalanced iteration span, an unaccounted completion, a digest that
// differs between passes, or fewer than kMinIterSamples iterations.
#include <malloc.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "measure.hpp"
#include "scenario.hpp"

using namespace perfbench;

namespace {

constexpr u32 kMinTimed = 4;
constexpr u32 kMaxTimed = 64;
constexpr u32 kSetupRounds = 5;
constexpr std::size_t kMinIterSamples = 100;

struct Args {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(val, "1") == 0;
    } else if (key == "--out") {
      a->out_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

struct Pass {
  std::vector<InstanceResult> inst;
  bool traced = false;
  f64 run_s = 0.0;
};

Pass run_pass(const WorkloadSpec& w, u64 seed, SpanLog& log) {
  Pass p;
  p.traced = log.enabled();
  for (u32 i = 0; i < w.instances; ++i) {
    p.inst.push_back(run_instance(w, seed, i, log));
    p.run_s += p.inst.back().run_s;
  }
  return p;
}

/// Set-up CPU seconds of each instance (nothing is run).
std::vector<f64> setup_round(const WorkloadSpec& w, u64 seed) {
  SpanLog off(false);
  std::vector<f64> s;
  for (u32 i = 0; i < w.instances; ++i) {
    s.push_back(run_instance(w, seed, i, off, /*setup_only=*/true).setup_s);
  }
  return s;
}

/// Sums one counter or probe over a pass's instances.
f64 total(const Pass& p, const char* key, bool probe = false) {
  f64 s = 0.0;
  for (const InstanceResult& r : p.inst) {
    const auto& m = probe ? r.probes : r.counters;
    const auto it = m.find(key);
    if (it != m.end()) s += it->second;
  }
  return s;
}

f64 ratio(f64 num, f64 den) { return den == 0.0 ? 0.0 : num / den; }

struct Metric {
  std::string name;
  f64 value;
  const char* unit;
};

/// Per-layer metrics whose value depends only on the simulated run.
std::vector<Metric> counter_metrics(const Pass& p, const WorkloadSpec& w) {
  auto c = [&](const char* k) { return total(p, k); };
  return {
      {"sim.events", c("sim.events"), "count"},
      {"net.packets", c("net.packets"), "count"},
      {"net.wire_bytes_per_payload_byte",
       ratio(c("net.traffic_bytes"), c("net.contributed_bytes")), "ratio"},
      {"net.max_link_util", c("net.max_link_util_sum") / w.instances,
       "fraction"},
      {"net.drops", c("net.drops"), "count"},
      {"net.monitor_samples", c("net.monitor_samples"), "count"},
      {"flow.flows_finished", c("flow.flows_finished"), "count"},
      {"flow.recomputes", c("flow.recomputes"), "count"},
      {"flow.recomputes_per_flow",
       ratio(c("flow.recomputes"), c("flow.flows_finished")), "ratio"},
      {"flow.reroutes", c("flow.reroutes"), "count"},
      {"core.pool_reuse_frac",
       ratio(c("core.pool_reused"),
             c("core.pool_reused") + c("core.pool_fresh")),
       "fraction"},
      {"coll.install_attempts", c("coll.install_attempts"), "count"},
      {"coll.tree_cache_hit_frac",
       ratio(c("coll.cache_hits"), c("coll.cache_lookups")), "fraction"},
      {"coll.migrations", c("coll.migrations"), "count"},
      {"coll.planned_migrations", c("coll.planned_migrations"), "count"},
      {"coll.retransmits", c("coll.retransmits"), "count"},
      {"service.queue_delay_mean_us",
       ratio(c("service.queue_delay_sum_us"), c("service.queue_delay_count")),
       "us"},
      {"service.in_network_frac",
       ratio(c("service.in_network"), c("service.completed")), "fraction"},
      {"service.fallbacks", c("service.fallbacks"), "count"},
      {"service.admission_reorders", c("service.admission_reorders"),
       "count"},
      {"service.congestion_deferrals", c("service.congestion_deferrals"),
       "count"},
      {"place.rounds", c("place.rounds"), "count"},
      {"place.moves_planned", c("place.moves_planned"), "count"},
      {"place.moves_rejected", c("place.moves_rejected"), "count"},
      {"obs.trace_events", c("obs.trace_events"), "count"},
      {"obs.export_bytes", c("obs.export_bytes"), "bytes"},
  };
}

/// Per-layer host-time metrics of one traced pass.
std::vector<Metric> probe_metrics(const Pass& p) {
  auto s = [&](const char* k) { return total(p, k, true); };
  return {
      {"net.build_ms", s("net.build_s") * 1e3, "ms"},
      {"workload.plan_ms", s("workload.plan_s") * 1e3, "ms"},
      {"obs.export_ms", s("obs.export_s") * 1e3, "ms"},
      {"place.optimize_ms", s("place.optimize_s") * 1e3, "ms"},
      {"coll.compute_tree_us",
       ratio(s("coll.compute_tree_s") * 1e6, s("coll.compute_tree_calls")),
       "us"},
      {"core.reduce_gbps",
       ratio(s("core.reduce_bytes") * 8e-9, s("core.reduce_s")), "Gb/s"},
      {"core.fill_gbps", ratio(s("core.fill_bytes") * 8e-9, s("core.fill_s")),
       "Gb/s"},
  };
}

void print_result(bool correct, u64 attempted, u64 failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  const WorkloadSpec* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const std::string& n : workload_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  // Keep freed memory in the process: every timed pass then runs on pages
  // the warm-up pass already faulted in, instead of timing the kernel's
  // first-touch page faults, which vary with machine load.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  const auto wall0 = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<f64>(std::chrono::steady_clock::now() -
                                      wall0)
        .count();
  };
  SpanLog off(false);
  const Pass ref = run_pass(*w, args.seed, off);  // warm-up + reference
  std::vector<Pass> timed;
  std::vector<std::vector<f64>> setups;  // per round, per instance
  SpanLog last_traced(true);
  while (timed.size() < kMaxTimed &&
         (timed.size() < kMinTimed || elapsed() < args.seconds)) {
    for (u32 r = 0; r < kSetupRounds && !args.trace; ++r) {
      setups.push_back(setup_round(*w, args.seed));
    }
    const bool traced = args.trace && timed.size() % 2 == 0;
    SpanLog log(traced);
    timed.push_back(run_pass(*w, args.seed, log));
    if (traced) last_traced = std::move(log);
  }

  // ------------------------------------------------------------ checks --
  std::vector<std::string> failures;
  u64 attempted = 0;
  u64 failed = 0;
  auto account = [&](const Pass& p, const char* what) {
    for (u32 i = 0; i < p.inst.size(); ++i) {
      const InstanceResult& r = p.inst[i];
      attempted += r.jobs;
      failed += r.jobs - r.jobs_ok;
      for (const std::string& f : r.failures) {
        failures.push_back(std::string(what) + " instance " +
                           std::to_string(i) + ": " + f);
      }
      if (r.digest != ref.inst[i].digest) {
        failures.push_back(std::string(what) + " instance " +
                           std::to_string(i) + ": digest differs from the "
                           "reference pass");
      }
    }
  };
  account(ref, "reference");
  for (const Pass& p : timed) account(p, p.traced ? "traced" : "untraced");

  std::vector<f64> iter_us;
  std::vector<f64> goodput_gbps;  // per instance
  u64 digest = 0;
  u64 jobs = 0;
  u64 jobs_ok = 0;
  for (const InstanceResult& r : ref.inst) {
    iter_us.insert(iter_us.end(), r.iter_us.begin(), r.iter_us.end());
    digest_mix(digest, r.digest);
    jobs += r.jobs;
    jobs_ok += r.jobs_ok;
    goodput_gbps.push_back(
        ratio(static_cast<f64>(r.payload_bytes) * 8e-9,
              static_cast<f64>(r.makespan_ps) / flare::kPsPerSecond));
  }
  if (iter_us.size() < kMinIterSamples) {
    failures.push_back("only " + std::to_string(iter_us.size()) +
                       " iteration samples");
  }

  std::vector<std::vector<f64>> run_untraced;  // per pass, per instance
  std::vector<std::vector<f64>> run_traced;
  for (const Pass& p : timed) {
    std::vector<f64>& row =
        (p.traced ? run_traced : run_untraced).emplace_back();
    for (const InstanceResult& r : p.inst) row.push_back(r.run_s);
  }
  const f64 run_s = sum_of_minima(run_untraced);

  std::printf("workload %s seed %llu: %u instances/pass, 1 reference + %zu "
              "timed passes (%zu traced), %.1f s\n",
              w->name.c_str(), static_cast<unsigned long long>(args.seed),
              w->instances, timed.size(), run_traced.size(), elapsed());
  std::printf("simulated digest %016llx: %llu jobs, %llu ok+exact, %.0f "
              "events, %zu iteration samples (%zu beyond p90)\n",
              static_cast<unsigned long long>(digest),
              static_cast<unsigned long long>(jobs),
              static_cast<unsigned long long>(jobs_ok),
              total(ref, "sim.events"), iter_us.size(), iter_us.size() / 10);
  std::printf("run_s per timed pass (T = traced):");
  for (const Pass& p : timed) {
    std::printf(" %s%.6f", p.traced ? "T" : "", p.run_s);
  }
  std::printf("\nsetup_s per set-up round:");
  for (const std::vector<f64>& s : setups) {
    f64 sum = 0.0;
    for (const f64 x : s) sum += x;
    std::printf(" %.6f", sum);
  }
  std::printf("\n");
  for (const std::string& f : failures) std::printf("FAIL: %s\n", f.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"run_s", run_s, "s"},
        {"setup_s", sum_of_minima(setups), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"sim_iter_p50_us", percentile(iter_us, 0.5), "us"},
        {"sim_iter_p90_us", percentile(iter_us, 0.9), "us"},
        {"sim_goodput_gbps", median(goodput_gbps), "Gb/s"},
        {"ops_ok_frac", ratio(static_cast<f64>(jobs_ok),
                              static_cast<f64>(jobs)),
         "fraction"},
    };
  } else {
    const Pass& last = timed.back();
    metrics = counter_metrics(last, *w);
    const f64 events = total(last, "sim.events");
    metrics.push_back({"sim.ns_per_event", ratio(run_s * 1e9, events), "ns"});
    // Host-time probes: per-metric median over the traced passes.
    std::vector<std::vector<Metric>> per_pass;
    for (const Pass& p : timed) {
      if (p.traced) per_pass.push_back(probe_metrics(p));
    }
    for (std::size_t m = 0; m < per_pass.front().size(); ++m) {
      std::vector<f64> v;
      for (const auto& pm : per_pass) v.push_back(pm[m].value);
      metrics.push_back(
          {per_pass.front()[m].name, median(v), per_pass.front()[m].unit});
    }
    metrics.push_back({"bench.trace_overhead_ms",
                       (sum_of_minima(run_traced) - run_s) * 1e3, "ms"});
    metrics.push_back({"bench.iter_samples",
                       static_cast<f64>(iter_us.size()), "count"});
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/spans-" + w->name + "-" +
                             std::to_string(args.seed) + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
      const std::string json = last_traced.to_json();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("spans of the last traced pass -> %s\n", path.c_str());
    }
  }
  const bool correct = failures.empty();
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
