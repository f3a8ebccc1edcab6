// Global co-placement (placement descent over the active job set,
// src/place/) vs the greedy + reactive baseline (beyond-paper acceptance
// bench).
//
// Fabric: 32 hosts x radix-8 fat tree = 8 leaves x 4 spines, one link per
// leaf-spine pair.  Six duty-cycled training jobs arrive as three pairs,
// each pair sharing a leaf — and they arrive while transient background
// heat covers spines 1..3, so greedy congestion-aware admission stacks
// EVERY embedding through the one cool spine (spine0).  The heat then
// drains: the starting assignment decays into a plainly bad one, with each
// pair contending on its shared leaf<->spine0 edge while three spines sit
// idle.
//
// The duty cycle is the point: each job's FOREIGN heat stays below the
// per-job reactive migration trigger (migrate_above), so the baseline's
// reactive plane never fires — only a fleet-wide search can see that the
// overlap hurts everyone.  Both contenders run identical arrivals, heat,
// and knobs; the co-placement contender additionally runs the periodic
// placement descent (place_period_ps), whose plans apply through the same
// break-before-make migration path.
//
// Acceptance (exit non-zero otherwise):
//   * every job of both contenders completes in-network, bit-for-bit
//     correct;
//   * worst-edge congestion (mean over the post-settle window of the
//     fabric-wide max per-link utilization, measured over fixed 20 us
//     windows from the raw link busy counters) improves >= 1.2x under
//     co-placement;
//   * no aggregate completion-time regression (sum of per-job service
//     seconds);
//   * >= 1 optimizer-planned move is APPLIED (and the baseline's reactive
//     plane stayed silent — the win is the planner's alone);
//   * a full re-run replays bit-for-bit (worst-edge series, per-job
//     finish instants, planned-move count);
//   * zero switch occupancy leaked after the fleet drains.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/telemetry.hpp"
#include "place/snapshot.hpp"
#include "service/service.hpp"

using namespace flare;

namespace {

constexpr u32 kJobs = 6;
constexpr u32 kIterations = 40;
constexpr SimTime kIterGap = 20 * kPsPerUs;     // ~1/3 duty cycle
constexpr SimTime kSubmitAt = 175 * kPsPerUs;   // heat still hot in EWMA
constexpr SimTime kSettle = 400 * kPsPerUs;     // plans applied by here
constexpr SimTime kRecordUntil = 1100 * kPsPerUs;
constexpr SimTime kRecordEvery = 20 * kPsPerUs;
constexpr SimTime kHorizon = 2 * kPsPerMs;

net::FatTreeSpec fabric_spec() {
  net::FatTreeSpec spec;
  spec.hosts = 32;
  spec.radix = 8;  // 8 leaves x 4 spines, no parallel links
  return spec;
}

u32 link_by_name(net::Network& net, const std::string& name) {
  for (u32 i = 0; i < net.num_links(); ++i) {
    if (net.link(i).name() == name) return i;
  }
  return UINT32_MAX;
}

/// Opaque transient load on unidirectional link `i` (a stale reduce-down
/// frame: dropped on arrival, but every byte serializes — the congestion
/// suite's surgical link heater).
void heat_link(net::Network& net, u32 i, u64 bytes) {
  std::vector<i32> dummy(4, 0);
  core::Packet p = core::make_dense_packet(0x7EA70000u, 0, 0, dummy.data(),
                                           4, core::DType::kInt32);
  net::NetPacket np;
  np.kind = net::PacketKind::kReduceDown;
  np.allreduce_id = 0x7EA70000u;  // installed nowhere: dropped on arrival
  np.wire_bytes = bytes;
  np.reduce = std::make_shared<const core::Packet>(std::move(p));
  net.link(i).send(std::move(np));
}

/// The six tenants: three pairs, each pair sharing leaf capacity (leaf l
/// owns hosts [4l, 4l+4)).  Host sets are disjoint; leaf sets overlap
/// within a pair, so stacked embeddings contend on the shared leaf's
/// uplink.
std::vector<std::vector<net::Host*>> tenant_hosts(
    const net::BuiltTopology& topo) {
  const std::vector<std::vector<u32>> groups = {
      {0, 1, 4, 5},     // leaf0 + leaf1
      {6, 7, 8, 9},     // leaf1 + leaf2   (pair 0 shares leaf1)
      {12, 13, 16, 17},  // leaf3 + leaf4
      {18, 19, 20, 21},  // leaf4 + leaf5  (pair 1 shares leaf4)
      {24, 25, 28, 29},  // leaf6 + leaf7
      {26, 27, 30, 31},  // leaf6 + leaf7  (pair 2 shares both)
  };
  std::vector<std::vector<net::Host*>> out;
  for (const auto& g : groups) {
    std::vector<net::Host*> hosts;
    for (const u32 i : g) hosts.push_back(topo.hosts[i]);
    out.push_back(std::move(hosts));
  }
  return out;
}

struct RunResult {
  std::vector<f64> worst_series;    // fabric-wide max link utilization/tick
  std::vector<SimTime> finish_ps;   // per job
  f64 worst_mean = 0.0;
  f64 worst_peak = 0.0;
  f64 sum_service_seconds = 0.0;
  u64 planned = 0;   // optimizer-planned moves applied
  u64 reactive = 0;  // reactive migrations (should stay 0 for both)
  u64 place_rounds = 0;
  u64 place_root_sweeps = 0;  // placement descent root sweeps
  bool all_ok = true;
  bool leak_free = true;
};

RunResult run_contender(bool coplace) {
  net::Network net;
  auto topo = net::build_fat_tree(net, fabric_spec());
  net::CongestionMonitor monitor(net);

  service::ServiceOptions opt;
  opt.root_policy = service::RootPolicy::kLeastCongested;
  opt.monitor = &monitor;
  // Reactive migration armed in BOTH contenders; the duty-cycled overlap
  // keeps per-job foreign heat below this, so only the planner can act.
  opt.migrate_above = 0.45;
  if (coplace) {
    opt.place_period_ps = 40 * kPsPerUs;
    opt.place_min_gain = 0.02;
  }
  service::AllreduceService service(net, opt);
  monitor.arm_until(kHorizon);

  // Transient heat over spines 1..3 (all leaves): admission stacks the
  // whole fleet through spine0, then the heat drains by ~170 us.
  for (const char* sp : {"spine1", "spine2", "spine3"}) {
    for (u32 leaf = 0; leaf < 8; ++leaf) {
      const std::string peer = "leaf" + std::to_string(leaf);
      heat_link(net, link_by_name(net, std::string(sp) + "->" + peer),
                2 * kMiB);
      heat_link(net, link_by_name(net, peer + "->" + std::string(sp)),
                2 * kMiB);
    }
  }

  for (const auto& hosts : tenant_hosts(topo)) {
    service::JobSpec spec;
    spec.participants = hosts;
    spec.desc.algorithm = coll::Algorithm::kFlareDense;
    spec.desc.data_bytes = 64 * kKiB;
    spec.desc.dtype = core::DType::kInt32;
    spec.iterations = kIterations;
    spec.iteration_gap_ps = kIterGap;
    service.submit_at(kSubmitAt, std::move(spec));
  }

  // Worst-edge recorder: fabric-wide max per-link utilization over fixed
  // 20 us windows on an absolute cadence, computed straight from the link
  // busy counters (independent of either contender's monitor sampling
  // schedule, so the two series are measured identically).
  RunResult out;
  auto busy_prev = std::make_shared<std::vector<u64>>(net.num_links(), 0);
  net.sim().schedule_at(kSettle - kRecordEvery, [&net, busy_prev] {
    for (u32 i = 0; i < net.num_links(); ++i) {
      (*busy_prev)[i] = net.link(i).busy_cum_ps();
    }
  });
  for (SimTime at = kSettle; at <= kRecordUntil; at += kRecordEvery) {
    net.sim().schedule_at(at, [&net, busy_prev, &out] {
      f64 worst = 0.0;
      for (u32 i = 0; i < net.num_links(); ++i) {
        const u64 busy = net.link(i).busy_cum_ps();
        worst = std::max(worst, static_cast<f64>(busy - (*busy_prev)[i]) /
                                    static_cast<f64>(kRecordEvery));
        (*busy_prev)[i] = busy;
      }
      out.worst_series.push_back(worst);
    });
  }

  net.sim().run_until(kHorizon);

  for (const service::JobRecord& rec : service.records()) {
    out.all_ok = out.all_ok && rec.state == service::JobState::kDone &&
                 rec.ok && rec.in_network &&
                 rec.iterations_done == kIterations;
    out.finish_ps.push_back(rec.finish_ps);
    out.sum_service_seconds += rec.service_seconds();
  }
  out.planned = service.telemetry().planned_migrations;
  out.reactive = service.telemetry().migrations;
  out.place_rounds = service.telemetry().place.rounds;
  out.place_root_sweeps = service.telemetry().place.root_sweeps;
  for (const f64 w : out.worst_series) {
    out.worst_mean += w;
    out.worst_peak = std::max(out.worst_peak, w);
  }
  if (!out.worst_series.empty()) {
    out.worst_mean /= static_cast<f64>(out.worst_series.size());
  }
  for (net::Switch* sw : net.switches()) {
    out.leak_free = out.leak_free && sw->installed_reduces() == 0;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  bench::print_title("COPLACEMENT",
                     "co-placement descent over the active job set vs "
                     "greedy admission + reactive migration");
  std::printf("  32-host fat tree (4 spines), %u duty-cycled 64 KiB int32 "
              "jobs in 3 leaf-sharing pairs,\n  stacked through spine0 by "
              "transient admission-time heat; %u iterations each\n\n",
              kJobs, kIterations);

  const RunResult base = run_contender(false);
  const RunResult co = run_contender(true);
  // Determinism: the co-placement run replayed from scratch must reproduce
  // the worst-edge series, every finish instant, and the plan bit for bit.
  const RunResult replay = run_contender(true);

  const f64 ratio =
      co.worst_mean > 0.0 ? base.worst_mean / co.worst_mean : 0.0;
  const bool deterministic = co.worst_series == replay.worst_series &&
                             co.finish_ps == replay.finish_ps &&
                             co.planned == replay.planned;
  const bool no_regression =
      co.sum_service_seconds <= base.sum_service_seconds;
  const bool pass = base.all_ok && co.all_ok && ratio >= 1.2 &&
                    no_regression && co.planned >= 1 && base.reactive == 0 &&
                    co.reactive == 0 && deterministic && base.leak_free &&
                    co.leak_free && replay.leak_free;

  std::printf("  %-28s %12s %12s\n", "", "greedy+react", "co-placement");
  std::printf("  %-28s %12.3f %12.3f  (%.2fx)\n",
              "worst-edge util (mean)", base.worst_mean, co.worst_mean,
              ratio);
  std::printf("  %-28s %12.3f %12.3f\n", "worst-edge util (peak)",
              base.worst_peak, co.worst_peak);
  std::printf("  %-28s %12.2f %12.2f\n", "sum service time (us)",
              base.sum_service_seconds * 1e6, co.sum_service_seconds * 1e6);
  std::printf("  %-28s %12llu %12llu\n", "planned moves applied",
              static_cast<unsigned long long>(base.planned),
              static_cast<unsigned long long>(co.planned));
  std::printf("  %-28s %12llu %12llu\n", "reactive migrations",
              static_cast<unsigned long long>(base.reactive),
              static_cast<unsigned long long>(co.reactive));
  std::printf("  %-28s %12s %12s\n", "all jobs ok",
              base.all_ok ? "PASS" : "FAIL", co.all_ok ? "PASS" : "FAIL");
  std::printf("  %-28s %25s\n", "deterministic replay",
              deterministic ? "PASS" : "FAIL");
  std::printf("  %-28s %12s %12s\n", "occupancy leak-free",
              base.leak_free ? "PASS" : "FAIL",
              co.leak_free ? "PASS" : "FAIL");
  std::printf("\n  co-placement: %.2fx lower worst-edge congestion, no "
              "completion regression -> %s\n",
              ratio, pass ? "PASS" : "FAIL");

  bench::JsonReport report("coplacement");
  report.add("jobs", kJobs)
      .add("iterations", kIterations)
      .add("baseline_worst_mean", base.worst_mean)
      .add("coplace_worst_mean", co.worst_mean)
      .add("worst_edge_ratio", ratio)
      .add("baseline_sum_service_seconds", base.sum_service_seconds)
      .add("coplace_sum_service_seconds", co.sum_service_seconds)
      .add("planned_moves_applied", co.planned)
      .add("reactive_migrations", co.reactive)
      .add("place_rounds", co.place_rounds)
      .add("place_root_sweeps", co.place_root_sweeps)
      .add("no_completion_regression", no_regression)
      .add("deterministic", deterministic)
      .add("leak_free", base.leak_free && co.leak_free)
      .add("pass", pass);
  report.emit();
  (void)full;
  return pass ? 0 : 1;
}
