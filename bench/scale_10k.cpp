// Scale plane A/B + 10k-host smoke (ROADMAP: "scale to 10k+ hosts").
//
// Two phases, both on 3-level fat trees with compressed routing:
//
//   * A/B — the SAME seeded cross-traffic schedule (on/off flows + incast
//     bursts) runs once in packet mode and once in flow mode on a frozen
//     1024-host tree (radix 16, 16 pods).  Flow mode must cut the event
//     count >= 5x (the tentpole's win), while the congestion it builds
//     stays monitor-equivalent: total busy picoseconds within 5% and the
//     CongestionMonitor's mean EWMA within tolerance — flows are a
//     MODEL of the same bytes, not different traffic.
//
//   * 10k smoke — the full-scale tree (radix 40, 26 pods, 10400 hosts)
//     carries a flow-mode background for the whole horizon; run twice,
//     the digests (per-link busy + traffic, event count, final clock)
//     must match bit for bit.
//
// --smoke shrinks both phases (128-host A/B, 1024-host big run) for CI;
// the gates are scale-free ratios so they hold at either size.
// Wall-clock seconds and peak RSS ride along in BENCH_JSON for the perf
// trajectory; values drift machine to machine, so only the boolean gates
// gate (tools/diff_bench_keys.py).
//
// flare-lint: allow-file(wall-clock) — this bench measures wall-clock
// throughput; std::chrono never feeds simulation state.
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "net/flow.hpp"
#include "net/network.hpp"
#include "net/telemetry.hpp"
#include "workload/cross_traffic.hpp"

using namespace flare;

namespace {

f64 wall_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<f64>(std::chrono::steady_clock::now() - t0)
      .count();
}

void digest_mix(u64& h, u64 v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
}

struct RunResult {
  u64 events = 0;
  SimTime final_ps = 0;
  u64 busy_ps = 0;         ///< sum of busy_cum_ps over every link
  u64 traffic_bytes = 0;
  u64 packets_armed = 0;
  u64 flows_finished = 0;
  f64 monitor_mean = 0.0;  ///< mean link EWMA at the last monitor sample
  u64 digest = 0;
  f64 wall_s = 0.0;
};

struct RunSpec {
  u32 radix = 16;
  u32 pods = 16;
  bool flow_mode = false;
  u32 ct_flows = 128;
  u32 incast_bursts = 8;
  u32 incast_fanin = 16;
  SimTime horizon_ps = 200 * kPsPerUs;
  u64 seed = 17;
};

RunResult run_background(const RunSpec& rs) {
  net::Network net;
  net::FatTree3Spec topo_spec;
  topo_spec.radix = rs.radix;
  topo_spec.pods = rs.pods;
  auto topo = net::build_fat_tree_3level(net, topo_spec);

  workload::CrossTrafficSpec ct;
  ct.flows = rs.ct_flows;
  ct.incast_bursts = rs.incast_bursts;
  ct.incast_fanin = rs.incast_fanin;
  ct.horizon_ps = rs.horizon_ps;
  ct.seed = rs.seed;
  ct.flow_mode = rs.flow_mode;
  workload::CrossTrafficInjector inject(net, ct);
  inject.arm();

  net::CongestionMonitorOptions mon_opt;
  mon_opt.period_ps = 20 * kPsPerUs;
  net::CongestionMonitor monitor(net, mon_opt);
  monitor.arm_until(rs.horizon_ps);

  const auto t0 = std::chrono::steady_clock::now();
  net.sim().run();
  RunResult r;
  r.wall_s = wall_seconds(t0);
  net.sync_flows();  // settle fluid accrual through the final instant
#if FLARE_VALIDATE_ENABLED
  net.validate_audit();  // attribution conservation on every link
#endif
  r.events = net.sim().total_events_run();
  r.final_ps = net.sim().now();
  r.traffic_bytes = net.total_traffic_bytes();
  r.packets_armed = inject.packets_armed();
  r.flows_finished = net.has_flows() ? net.flows().flows_finished() : 0;
  r.monitor_mean = monitor.mean_congestion();
  for (u32 i = 0; i < net.num_links(); ++i) {
    const net::Link& l = net.link(i);
    r.busy_ps += l.busy_cum_ps();
    digest_mix(r.digest, l.busy_cum_ps());
    digest_mix(r.digest, l.traffic().bytes);
  }
  digest_mix(r.digest, r.events);
  digest_mix(r.digest, r.final_ps);
  digest_mix(r.digest, r.traffic_bytes);
  return r;
}

f64 ratio(f64 num, f64 den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  bench::print_title("SCALE-10K",
                     "flow-level vs packet-level background traffic on "
                     "3-level fat trees, plus the 10k-host smoke");

  // ---- A/B: identical seeded schedule, packet vs flow mechanism -------
  RunSpec ab;
  if (smoke) {
    ab.radix = 8;   // 128 hosts
    ab.pods = 8;
    ab.ct_flows = 32;
    ab.incast_fanin = 8;
  }
  RunSpec ab_flow = ab;
  ab_flow.flow_mode = true;
  const RunResult pkt = run_background(ab);
  const RunResult flw = run_background(ab_flow);

  const u32 ab_hosts = ab.pods * (ab.radix / 2) * (ab.radix / 2);
  const bool schedule_match = pkt.packets_armed == flw.packets_armed;
  const f64 event_reduction =
      ratio(static_cast<f64>(pkt.events), static_cast<f64>(flw.events));
  const bool event_reduction_ok = schedule_match && event_reduction >= 5.0;
  const f64 busy_parity =
      ratio(static_cast<f64>(flw.busy_ps), static_cast<f64>(pkt.busy_ps));
  const bool busy_parity_ok =
      busy_parity >= 0.95 && busy_parity <= 1.05;
  // Monitor parity is looser: EWMAs weight the burst *shape*, and a fluid
  // flow spreads an incast over its fair-share finish instead of a
  // back-to-back queue spike.  The heat must land on the same links at
  // the same magnitude class, not the same fourth decimal.
  const f64 monitor_parity = ratio(flw.monitor_mean, pkt.monitor_mean);
  const bool monitor_parity_ok =
      std::fabs(flw.monitor_mean - pkt.monitor_mean) <= 0.02 ||
      (monitor_parity >= 0.7 && monitor_parity <= 1.4);

  std::printf("  A/B %u hosts: packets=%llu  events packet=%llu flow=%llu "
              "->  %.1fx fewer (gate >= 5x: %s)\n",
              ab_hosts, static_cast<unsigned long long>(pkt.packets_armed),
              static_cast<unsigned long long>(pkt.events),
              static_cast<unsigned long long>(flw.events), event_reduction,
              event_reduction_ok ? "ok" : "FAIL");
  std::printf("  busy parity flow/packet=%.4f (gate 0.95..1.05: %s)  "
              "monitor mean packet=%.4f flow=%.4f (%s)\n",
              busy_parity, busy_parity_ok ? "ok" : "FAIL", pkt.monitor_mean,
              flw.monitor_mean, monitor_parity_ok ? "ok" : "FAIL");
  std::printf("  wall packet=%.3f s flow=%.3f s  ->  %.0f vs %.0f events/s\n",
              pkt.wall_s, flw.wall_s,
              ratio(static_cast<f64>(pkt.events), pkt.wall_s),
              ratio(static_cast<f64>(flw.events), flw.wall_s));

  // ---- 10k smoke: flow mode at full scale, twice for determinism ------
  RunSpec big;
  big.flow_mode = true;
  if (smoke) {
    big.radix = 16;  // 1024 hosts
    big.pods = 16;
    big.ct_flows = 256;
    big.incast_bursts = 8;
    big.incast_fanin = 32;
  } else {
    big.radix = 40;  // 10400 hosts
    big.pods = 26;
    big.ct_flows = 2048;
    big.incast_bursts = 16;
    big.incast_fanin = 64;
  }
  big.seed = 23;
  const RunResult big1 = run_background(big);
  const RunResult big2 = run_background(big);
  const bool big_deterministic = big1.digest == big2.digest;
  const u32 big_hosts = big.pods * (big.radix / 2) * (big.radix / 2);
  const f64 big_wall = std::min(big1.wall_s, big2.wall_s);

  std::printf("  big run %u hosts (flow mode): events=%llu  flows=%llu  "
              "wall=%.3f s  digest=%016llx  deterministic=%s\n",
              big_hosts, static_cast<unsigned long long>(big1.events),
              static_cast<unsigned long long>(big1.flows_finished), big_wall,
              static_cast<unsigned long long>(big1.digest),
              big_deterministic ? "yes" : "NO");

  const bool pass = schedule_match && event_reduction_ok && busy_parity_ok &&
                    monitor_parity_ok && big_deterministic &&
                    big1.flows_finished > 0;

  bench::JsonReport report("scale_10k");
  report.add("smoke", smoke)
      .add("ab_hosts", ab_hosts)
      .add("ab_packets", pkt.packets_armed)
      .add("ab_events_packet", pkt.events)
      .add("ab_events_flow", flw.events)
      .add("ab_event_reduction", event_reduction)
      .add("ab_event_reduction_ok", event_reduction_ok)
      .add("ab_busy_parity", busy_parity)
      .add("ab_busy_parity_ok", busy_parity_ok)
      .add("ab_monitor_mean_packet", pkt.monitor_mean)
      .add("ab_monitor_mean_flow", flw.monitor_mean)
      .add("ab_monitor_parity_ok", monitor_parity_ok)
      .add("ab_wall_s_packet", pkt.wall_s)
      .add("ab_wall_s_flow", flw.wall_s)
      .add("big_hosts", big_hosts)
      .add("big_events", big1.events)
      .add("big_flows_finished", big1.flows_finished)
      .add("big_events_per_sec",
           ratio(static_cast<f64>(big1.events), big_wall))
      .add("big_wall_s", big_wall)
      .add("big_deterministic", big_deterministic)
      .add("pass", pass);
  report.emit();
  return pass ? 0 : 1;
}
