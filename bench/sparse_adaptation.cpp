// Congestion-aware persistent SPARSE allreduce vs a congestion-blind
// static embedding (beyond-paper; the Canary result applied to Section 7's
// sparse engine — the PR that unified sparse under the op lifecycle).
//
// Fabric and traffic mirror bench/congestion_adaptation: 32 hosts x
// radix-8 fat tree (8 leaves x 4 spines), participants on leaves 0/1, and
// two phases of seeded, traffic-engineered background flows:
//
//   phase A [0 .. T_mid)      on/off flows crossing spine0;
//   phase B [T_mid .. T_end)  on/off flows crossing spine1.
//
// Both contenders run the same 12-iteration PERSISTENT int32 sparse
// allreduce (fresh per-epoch gradients via SparseWorkload::epoch_pairs)
// against bit-identical background traffic:
//
//   blind — static fixed-root tree at spine0: sits in phase-A congestion;
//   aware — CongestionMonitor-backed embedding installs on a cool spine,
//           then phase B heats exactly that spine and the completion-time
//           watch + worst-edge-EWMA hysteresis must MIGRATE the session.
//
// Acceptance (exit non-zero otherwise):
//   * every iteration of every run is bit-for-bit correct (int32 sum);
//   * aware total completion >= 1.3x faster than blind;
//   * the aware session migrates at least once;
//   * a full aware re-run reproduces every per-iteration completion time
//     and every migration instant exactly;
//   * zero leaked switch occupancy AND zero leaked hash-store bytes.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "coll/communicator.hpp"
#include "net/telemetry.hpp"
#include "workload/cross_traffic.hpp"
#include "workload/generators.hpp"

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

/// Smallest flow label >= `salt` that the switches' ECMP hash steers from
/// leaf `src_leaf` onto spine `spine` (see bench/congestion_adaptation).
u64 label_for(u32 src_leaf, u32 spine, u64 salt) {
  const u32 want = (spine + 4 - src_leaf % 4) % 4;
  for (u64 label = salt;; ++label) {
    if (net::ecmp_index(label, 4) == want) return label;
  }
}

/// On/off flows crossing `spine` in both tree directions between the
/// participants' leaf-mates (never their access links) — tenant traffic
/// next door, not on top.
workload::CrossTrafficSpec phase_spec(SimTime start, SimTime end, u32 spine,
                                      u64 seed) {
  workload::CrossTrafficSpec spec;
  spec.seed = seed;
  spec.start_ps = start;
  spec.horizon_ps = end;
  spec.flow_rate_bps = 80e9;        // hot enough that sharing visibly hurts
  spec.mean_on_ps = 60 * kPsPerUs;  // ~90% duty cycle: sustained pressure
  spec.mean_off_ps = 6 * kPsPerUs;
  spec.incast_bursts = 0;  // incast hits access links no tree can avoid
  spec.pairs = {{8, 2}, {12, 6}, {16, 3}, {20, 7},   // into leaves 0/1
                {2, 8}, {6, 12}, {3, 16}, {7, 20}};  // out of leaves 0/1
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

coll::CollectiveOptions sparse_desc() {
  coll::CollectiveOptions desc;
  desc.algorithm = coll::Algorithm::kFlareSparse;
  desc.dtype = core::DType::kInt32;
  desc.seed = kSeed;
  desc.sparse.block_span = 4096;
  desc.sparse.num_blocks = 16;
  desc.sparse.epoch_pairs = [](u64 epoch, u32 h, u32 b) {
    workload::SparseSpec spec{4096, 0.15, 0.5, core::DType::kInt32, epoch};
    return workload::sparse_block_pairs(spec, h, b);
  };
  return desc;
}

struct RunResult {
  std::vector<f64> iter_seconds;
  std::vector<u32> iter_migrations;
  std::vector<net::NodeId> iter_root;
  f64 total_seconds = 0.0;
  u32 migrations = 0;
  bool ok = true;         // every iteration correct and bit-for-bit
  bool leak_free = true;  // 3 installs while running, 0 after release,
                          // 0 hash-store bytes between iterations
};

RunResult run_contender(bool aware, SimTime t_mid, SimTime t_end,
                        SimTime period) {
  net::Network net;
  auto topo = net::build_fat_tree(net, fabric_spec());
  workload::CrossTrafficInjector phase_a(net, phase_spec(0, t_mid, 0, kSeed));
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

  coll::CollectiveOptions desc = sparse_desc();
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
    // background injectors own events far past the last iteration.
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
    u64 pool_bytes = 0;
    for (net::Switch* sw : net.switches()) {
      installed += sw->installed_reduces();
      pool_bytes += sw->engine_pool_in_use();
    }
    out.leak_free = out.leak_free && installed == 3 && pool_bytes == 0;
  }
  pc.release();
  for (net::Switch* sw : net.switches()) {
    out.leak_free = out.leak_free && sw->installed_reduces() == 0 &&
                    sw->engine_pool_in_use() == 0;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  bench::print_title("SPARSE-ADAPT",
                     "congestion-aware persistent sparse allreduce vs "
                     "congestion-blind static embedding");

  // Phase boundaries sized from an unloaded iteration, as in the dense
  // adaptation bench.
  f64 iter_s;
  {
    net::Network net;
    auto topo = net::build_fat_tree(net, fabric_spec());
    coll::Communicator comm(net, participants(topo));
    coll::PersistentCollective pc = comm.persistent(sparse_desc());
    if (!pc.ok()) return 1;
    iter_s = pc.run().completion_seconds;
  }
  const SimTime t_iter = static_cast<SimTime>(iter_s * kPsPerSecond);
  const SimTime period = 3 * t_iter;  // the rest models the compute phase
  const SimTime warm = 10 * kPsPerUs;
  const SimTime t_mid = warm + (kIterations / 2) * period;
  const SimTime t_end = warm + (kIterations + 4) * period;
  std::printf("  32-host fat tree (4 spines), 4-host sparse int32 allreduce "
              "(span 4096 x 16 blocks, 15%% density), %u iterations\n"
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
  const f64 speedup = blind.total_seconds / aware.total_seconds;
  const bool faster = speedup >= 1.3;
  const bool pass = blind.ok && aware.ok && faster && aware.migrations >= 1 &&
                    deterministic && blind.leak_free && aware.leak_free &&
                    replay.leak_free;

  std::printf("\n  total completion      %10.2f us %10.2f us  (%.2fx, "
              "need >= 1.30x)\n",
              blind.total_seconds * 1e6, aware.total_seconds * 1e6, speedup);
  std::printf("  bit-for-bit results   %10s %10s\n",
              blind.ok ? "PASS" : "FAIL", aware.ok ? "PASS" : "FAIL");
  std::printf("  migrations            %10s %10u\n", "-", aware.migrations);
  std::printf("  deterministic replay  %21s\n",
              deterministic ? "PASS" : "FAIL");
  std::printf("  occupancy leak-free   %10s %10s\n",
              blind.leak_free ? "PASS" : "FAIL",
              aware.leak_free ? "PASS" : "FAIL");
  std::printf("\n  congestion-aware persistent sparse: %.2fx lower "
              "completion under shared-fabric traffic -> %s\n",
              speedup, pass ? "PASS" : "FAIL");
  bench::JsonReport report("sparse_adaptation");
  report.add("iterations", kIterations)
      .add("blind_total_seconds", blind.total_seconds)
      .add("aware_total_seconds", aware.total_seconds)
      .add("speedup", speedup)
      .add("migrations", static_cast<u64>(aware.migrations))
      .add("deterministic", deterministic)
      .add("leak_free", blind.leak_free && aware.leak_free)
      .add("pass", pass);
  report.emit();
  (void)full;
  return pass ? 0 : 1;
}
