// Persistent vs single-shot allreduce (beyond-paper): the control-plane
// amortization the Communicator's persistent requests buy in a training
// loop.
//
// Runs a 10-iteration allreduce two ways over identical fabrics:
//
//   * single-shot — every iteration computes the reduction tree, installs
//     the switch engines, runs, and uninstalls (the legacy run_* pattern);
//   * persistent  — compute_tree + install once, run 10 iterations against
//     the installed state, engines reset between runs.
//
// Reports per-iteration completion time (must be identical: amortization
// cannot cost data-plane time), total admission attempts (10 vs 1), and
// verifies every iteration bit-for-bit (int32 sum).  Exits non-zero if the
// persistent path is slower or any iteration is wrong — the acceptance
// check for the install-once/run-many redesign.
#include <cstdio>

#include "bench_util.hpp"
#include "coll/communicator.hpp"

using namespace flare;

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  const u64 data_bytes = full ? 16 * kMiB : 1 * kMiB;
  const u32 iterations = 10;
  bench::print_title("PERSISTENT",
                     "install-once/run-many vs single-shot allreduce");
  std::printf("  64-host fat tree, %s/host int32 sum, %u iterations.\n\n",
              bench::fmt_size(data_bytes).c_str(), iterations);

  coll::CollectiveOptions desc;
  desc.algorithm = coll::Algorithm::kFlareDense;
  desc.data_bytes = data_bytes;
  desc.dtype = core::DType::kInt32;

  // --- single-shot: install + uninstall every iteration -----------------
  f64 single_s = 0;
  u32 single_installs = 0;
  bool ok = true;
  {
    net::Network net;
    auto topo = net::build_fat_tree(net, net::FatTreeSpec{});
    for (u32 it = 0; it < iterations; ++it) {
      coll::Communicator comm(net, topo.hosts);
      coll::CollectiveOptions iter_desc = desc;
      iter_desc.seed = desc.seed + it;  // fresh data per one-shot request
      coll::PersistentCollective pc = comm.persistent(iter_desc);
      if (!pc.ok()) return 1;
      const auto res = pc.run();  // one iteration, then released
      single_installs += pc.install_report().attempts;
      ok = ok && res.ok && res.max_abs_err == 0.0;
      single_s += res.completion_seconds;
    }
  }

  // --- persistent: one install, ten runs --------------------------------
  f64 persistent_s = 0, persistent_worst = 0;
  u32 persistent_installs = 0;
  {
    net::Network net;
    auto topo = net::build_fat_tree(net, net::FatTreeSpec{});
    coll::Communicator comm(net, topo.hosts);
    coll::PersistentCollective pc = comm.persistent(desc);
    if (!pc.ok()) return 1;
    for (u32 it = 0; it < iterations; ++it) {
      const auto res = pc.run();
      ok = ok && res.ok && res.max_abs_err == 0.0;
      persistent_s += res.completion_seconds;
      persistent_worst = std::max(persistent_worst,
                                  res.completion_seconds);
    }
    persistent_installs = pc.install_report().attempts;
  }

  const f64 single_iter_ms = single_s / iterations * 1e3;
  const f64 persistent_iter_ms = persistent_s / iterations * 1e3;
  std::printf("  %-24s %14s %14s\n", "", "single-shot", "persistent");
  std::printf("  %-24s %11.3f ms %11.3f ms\n", "mean iteration",
              single_iter_ms, persistent_iter_ms);
  std::printf("  %-24s %14u %14u\n", "tree installs (10 iters)",
              single_installs, persistent_installs);
  std::printf("  %-24s %14s %14s\n", "bit-for-bit", ok ? "PASS" : "FAIL",
              ok ? "PASS" : "FAIL");

  // Acceptance: exactly one install across the loop, and no per-iteration
  // slowdown (tiny epsilon for f64 accumulation).
  const bool pass = ok && persistent_installs == 1 &&
                    persistent_worst <= single_s / iterations + 1e-12;
  std::printf("\n  amortization: %ux fewer control-plane admissions at "
              "equal data-plane time -> %s\n",
              single_installs / std::max(1u, persistent_installs),
              pass ? "PASS" : "FAIL");
  bench::JsonReport report("persistent_allreduce");
  report.add("iterations", iterations)
      .add("single_iter_ms", single_iter_ms)
      .add("persistent_iter_ms", persistent_iter_ms)
      .add("single_installs", single_installs)
      .add("persistent_installs", persistent_installs)
      .add("pass", pass);
  report.emit();
  return pass ? 0 : 1;
}
