// Congestion-aware dynamic trees vs congestion-blind static trees
// (beyond-paper; the Canary result on the Flare substrate).
//
// Fabric: 32 hosts x radix-8 fat tree = 8 leaves x 4 spines, one link per
// leaf-spine pair, so an allreduce over leaves 0+1 has four equal-size
// 3-switch embeddings {spineX, leaf0, leaf1} — placement is PURELY a
// congestion decision.  Seeded background cross-traffic runs in two
// phases, traffic-engineered by ECMP flow label (the same flow hash the
// switches use) so the congestion lands on KNOWN spines:
//
//   phase A [0 .. T_mid)      on/off flows crossing spine0;
//   phase B [T_mid .. T_end)  on/off flows crossing spine1.
//
// Both contenders run the same 12-iteration persistent int32 allreduce
// over hosts 0..7 against bit-identical background traffic:
//
//   blind — static fixed-root tree at spine0 (the RootPolicy::kFixed
//           baseline): sits in phase-A congestion the whole phase;
//   aware — CongestionMonitor-backed embedding picks a cool spine at
//           install time (spine1, by deterministic tie-break), then phase
//           B heats exactly that spine and the completion-time watch +
//           EWMA hysteresis must MIGRATE the session off it.
//
// Acceptance (exit non-zero otherwise):
//   * every iteration of both runs is bit-for-bit correct (int32 sum);
//   * the aware run's total completion time beats the blind run's;
//   * the aware session migrates at least once;
//   * a full re-run with the same seed reproduces every per-iteration
//     completion time and every migration instant exactly;
//   * zero switch occupancy leaks after the migrations and the release.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "coll/communicator.hpp"
#include "net/telemetry.hpp"
#include "workload/cross_traffic.hpp"

using namespace flare;

namespace {

constexpr u32 kIterations = 12;
constexpr u64 kSeed = 42;

net::FatTreeSpec fabric_spec() {
  net::FatTreeSpec spec;
  spec.hosts = 32;
  spec.radix = 8;  // 8 leaves x 4 spines, no parallel links
  return spec;
}

/// Smallest flow label >= `salt` that the switches' ECMP hash
/// (net::ecmp_index — the forwarding plane's own function) steers from
/// leaf `src_leaf` onto spine `spine` (cross-leaf ECMP sets enumerate the
/// four uplinks in port order: uplink j of leaf l reaches spine (l+j)%4).
u64 label_for(u32 src_leaf, u32 spine, u64 salt) {
  const u32 want = (spine + 4 - src_leaf % 4) % 4;
  for (u64 label = salt;; ++label) {
    if (net::ecmp_index(label, 4) == want) return label;
  }
}

/// On/off flows crossing `spine` in both tree directions: into the
/// participant leaves 0/1 (heats the down-multicast path spineX->leaf) and
/// out of them (heats the contribution path leaf->spineX).  Endpoints are
/// the participants' LEAF-MATES (hosts 2,3 on leaf0; 6,7 on leaf1): the
/// background crosses the contested spine<->leaf links but never the
/// participants' own access links — tenant traffic next door, not on top.
workload::CrossTrafficSpec phase_spec(SimTime start, SimTime end,
                                      u32 spine, u64 seed) {
  workload::CrossTrafficSpec spec;
  spec.seed = seed;
  spec.start_ps = start;
  spec.horizon_ps = end;
  spec.flow_rate_bps = 80e9;         // hot enough that sharing visibly hurts
  spec.mean_on_ps = 60 * kPsPerUs;   // ~90% duty cycle: sustained pressure
  spec.mean_off_ps = 6 * kPsPerUs;
  spec.incast_bursts = 0;  // incast hits access links no tree can avoid
  // Host h lives on leaf h/4.  Remote endpoints sit on leaves 2..5.
  spec.pairs = {{8, 2}, {12, 6}, {16, 3}, {20, 7},    // into leaves 0/1
                {2, 8}, {6, 12}, {3, 16}, {7, 20}};   // out of leaves 0/1
  spec.flows = static_cast<u32>(spec.pairs.size());
  for (u32 f = 0; f < spec.flows; ++f) {
    const u32 src_leaf = spec.pairs[f].first / 4;
    spec.flow_labels.push_back(label_for(src_leaf, spine, seed + 100 * f));
  }
  return spec;
}

/// The four trainers: hosts 0,1 (leaf0) and 4,5 (leaf1).
std::vector<net::Host*> participants(const net::BuiltTopology& topo) {
  return {topo.hosts[0], topo.hosts[1], topo.hosts[4], topo.hosts[5]};
}

coll::CollectiveOptions allreduce_desc() {
  coll::CollectiveOptions desc;
  desc.algorithm = coll::Algorithm::kFlareDense;
  desc.data_bytes = 128 * kKiB;
  desc.dtype = core::DType::kInt32;
  desc.seed = kSeed;
  return desc;
}

struct RunResult {
  std::vector<f64> iter_seconds;       // per-iteration completion
  std::vector<u32> iter_migrations;    // migrations preparing iteration i
  std::vector<net::NodeId> iter_root;  // live tree root per iteration
  f64 total_seconds = 0.0;
  u32 migrations = 0;
  bool ok = true;       // every iteration correct and bit-for-bit
  bool leak_free = true;  // 3 slots while running, 0 after release
};

/// One contender: `aware` wires the CongestionMonitor (cost-driven
/// placement + migration); blind pins the static spine0 tree.  Iterations
/// start on a fixed training cadence (`period`): the gaps model the
/// compute phase between allreduces, during which the background keeps
/// flowing and the monitor's windows keep turning.
RunResult run_contender(bool aware, SimTime t_mid, SimTime t_end,
                        SimTime period) {
  net::Network net;
  auto topo = net::build_fat_tree(net, fabric_spec());
  workload::CrossTrafficInjector phase_a(net,
                                         phase_spec(0, t_mid, 0, kSeed));
  workload::CrossTrafficInjector phase_b(net,
                                         phase_spec(t_mid, t_end, 1, kSeed));
  phase_a.arm();
  phase_b.arm();

  net::CongestionMonitor monitor(net);
  coll::CommunicatorConfig cfg;
  if (aware) {
    monitor.arm_until(t_end);  // regular windows: EWMA tracks the phases
    cfg.monitor = &monitor;
  } else {
    cfg.roots = {topo.spines[0]->id()};  // static fixed-root baseline
  }
  coll::Communicator comm(net, participants(topo), std::move(cfg));

  coll::CollectiveOptions desc = allreduce_desc();
  if (aware) {
    desc.migrate_above = 0.2;
  }

  // Warm-up: let phase A build queues before placement happens.
  const SimTime warm = 10 * kPsPerUs;
  net.sim().run_until(warm);
  coll::PersistentCollective pc = comm.persistent(desc);
  RunResult out;
  if (!pc.ok()) {
    out.ok = false;
    return out;
  }

  for (u32 it = 0; it < kIterations; ++it) {
    net.sim().run_until(warm + it * period);  // training cadence
    coll::CollectiveHandle handle = pc.start();
    // Drive the shared calendar only as far as this iteration needs: the
    // background injectors own events far past the last iteration, so
    // run() (drain-everything) would teleport time to the horizon.
    while (!handle.done() && net.sim().step()) {
    }
    if (!handle.done()) {
      out.ok = false;
      return out;
    }
    const coll::CollectiveResult& res = handle.result();
    out.ok = out.ok && res.ok && res.max_abs_err == 0.0;
    out.iter_seconds.push_back(res.completion_seconds);
    out.iter_migrations.push_back(res.migrations);
    out.iter_root.push_back(pc.in_network() ? pc.tree().root
                                            : net::kInvalidNode);
    out.total_seconds += res.completion_seconds;
    out.migrations += res.migrations;
    u32 installed = 0;
    for (net::Switch* sw : net.switches()) {
      installed += sw->installed_reduces();
    }
    out.leak_free = out.leak_free && installed == 3;
  }
  pc.release();
  for (net::Switch* sw : net.switches()) {
    out.leak_free = out.leak_free && sw->installed_reduces() == 0;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  bench::print_title("CONGESTION", "congestion-aware dynamic trees vs "
                                   "congestion-blind static trees");

  // Phase boundaries in absolute time, identical for every contender:
  // sized from an unloaded iteration so phase A covers roughly the first
  // half of the training run and phase B the rest.
  f64 iter_s;
  {
    net::Network net;
    auto topo = net::build_fat_tree(net, fabric_spec());
    coll::Communicator comm(net, participants(topo));
    coll::PersistentCollective pc = comm.persistent(allreduce_desc());
    if (!pc.ok()) return 1;
    iter_s = pc.run().completion_seconds;
  }
  const SimTime t_iter = static_cast<SimTime>(iter_s * kPsPerSecond);
  // Training cadence: one allreduce every 3 unloaded iteration times (the
  // rest models the compute phase) with headroom for congested iterations.
  const SimTime period = 3 * t_iter;
  const SimTime warm = 10 * kPsPerUs;
  const SimTime t_mid = warm + (kIterations / 2) * period;
  const SimTime t_end = warm + (kIterations + 4) * period;
  std::printf("  32-host fat tree (4 spines), 4-host 128 KiB int32 "
              "allreduce, %u iterations\n"
              "  background: phase A hits spine0 until %.0f us, phase B "
              "hits spine1 until %.0f us\n\n",
              kIterations, static_cast<f64>(t_mid) / kPsPerUs,
              static_cast<f64>(t_end) / kPsPerUs);

  const RunResult blind = run_contender(false, t_mid, t_end, period);
  const RunResult aware = run_contender(true, t_mid, t_end, period);
  // Determinism: the aware run replayed from scratch must reproduce every
  // completion time and every migration instant bit for bit.
  const RunResult replay = run_contender(true, t_mid, t_end, period);

  if (blind.iter_seconds.size() < kIterations ||
      aware.iter_seconds.size() < kIterations) {
    std::printf("  a contender aborted early (install rejected or an "
                "iteration never completed) -> FAIL\n");
    return 1;
  }

  std::printf("  %-5s %14s %14s %12s\n", "iter", "blind (us)", "aware (us)",
              "aware root");
  for (u32 it = 0; it < kIterations; ++it) {
    std::printf("  %-5u %14.2f %14.2f %9s %2u%s\n", it,
                blind.iter_seconds[it] * 1e6, aware.iter_seconds[it] * 1e6,
                "node", aware.iter_root[it],
                aware.iter_migrations[it] > 0 ? "  << migrated" : "");
  }

  const bool deterministic =
      aware.iter_seconds == replay.iter_seconds &&
      aware.iter_migrations == replay.iter_migrations &&
      aware.iter_root == replay.iter_root;
  const bool faster = aware.total_seconds < blind.total_seconds;
  const bool pass = blind.ok && aware.ok && faster && aware.migrations >= 1 &&
                    deterministic && blind.leak_free && aware.leak_free &&
                    replay.leak_free;

  std::printf("\n  total completion      %10.2f us %10.2f us  (%.2fx)\n",
              blind.total_seconds * 1e6, aware.total_seconds * 1e6,
              blind.total_seconds / aware.total_seconds);
  std::printf("  bit-for-bit results   %10s %10s\n",
              blind.ok ? "PASS" : "FAIL", aware.ok ? "PASS" : "FAIL");
  std::printf("  migrations            %10s %10u\n", "-", aware.migrations);
  std::printf("  deterministic replay  %21s\n",
              deterministic ? "PASS" : "FAIL");
  std::printf("  occupancy leak-free   %10s %10s\n",
              blind.leak_free ? "PASS" : "FAIL",
              aware.leak_free ? "PASS" : "FAIL");
  std::printf("\n  congestion-aware trees: %.2fx lower completion under "
              "shared-fabric traffic -> %s\n",
              blind.total_seconds / aware.total_seconds,
              pass ? "PASS" : "FAIL");
  bench::JsonReport report("congestion_adaptation");
  report.add("iterations", kIterations)
      .add("blind_total_seconds", blind.total_seconds)
      .add("aware_total_seconds", aware.total_seconds)
      .add("speedup", blind.total_seconds / aware.total_seconds)
      .add("migrations", static_cast<u64>(aware.migrations))
      .add("deterministic", deterministic)
      .add("leak_free", blind.leak_free && aware.leak_free)
      .add("pass", pass);
  report.emit();
  (void)full;
  return pass ? 0 : 1;
}
