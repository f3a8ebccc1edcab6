// Ablation — the Section 6.4 policy auto-selection thresholds.
//
// For each reduction size, report every policy's modeled AND simulated
// bandwidth, and the policy Flare's selector would pick; the selector
// should track the per-size winner (crossovers at ~128/256/512 KiB).
//
// Exits 1 if any simulated run fails its reference check.
#include <cstdio>

#include "bench_util.hpp"
#include "model/policies.hpp"
#include "pspin/experiment.hpp"

using namespace flare;

namespace {

struct Alg {
  const char* name;
  core::AggPolicy policy;
  u32 buffers;
};

constexpr Alg kAlgs[] = {
    {"single", core::AggPolicy::kSingleBuffer, 1},
    {"multi(2)", core::AggPolicy::kMultiBuffer, 2},
    {"multi(4)", core::AggPolicy::kMultiBuffer, 4},
    {"tree", core::AggPolicy::kTree, 1},
};

const char* selected_name(u64 bytes) {
  const core::PolicyChoice c = core::select_policy(bytes, false);
  switch (c.policy) {
    case core::AggPolicy::kSingleBuffer: return "single";
    case core::AggPolicy::kMultiBuffer:
      return c.num_buffers == 4 ? "multi(4)" : "multi(2)";
    case core::AggPolicy::kTree: return "tree";
  }
  return "?";
}

}  // namespace

int main() {
  bench::print_title("Ablation",
                     "policy auto-selection vs per-size winner (Tbps)");
  bench::JsonReport report("ablation_policy_select");
  std::printf("  %-8s |", "size");
  for (const Alg& a : kAlgs) std::printf(" %8s-mod %8s-sim |", a.name, a.name);
  std::printf(" %10s\n", "selected");
  bool all_correct = true;
  for (const u64 z : {32_KiB, 64_KiB, 128_KiB, 192_KiB, 256_KiB, 384_KiB,
                      512_KiB, 1_MiB}) {
    std::printf("  %-8s |", bench::fmt_size(z).c_str());
    for (const Alg& a : kAlgs) {
      model::SwitchParams sp;
      sp.cold_start = true;
      const f64 modeled =
          model::evaluate(sp, a.policy, a.buffers, z).bandwidth_bps;

      pspin::SingleSwitchOptions opt;
      opt.unit.n_clusters = 16;
      opt.hosts = 16;
      opt.data_bytes = z;
      opt.dtype = core::DType::kFloat32;
      opt.policy = a.policy;
      opt.num_buffers = a.buffers;
      opt.rounds = z <= 64_KiB ? 4 : 1;
      opt.seed = 3;
      const auto res = pspin::run_single_switch(opt);
      all_correct = all_correct && res.correct;
      const f64 simulated = res.goodput_bps * 64.0 / opt.unit.n_clusters;
      std::printf(" %12s %12s |", bench::fmt_tbps(modeled).c_str(),
                  bench::fmt_tbps(simulated).c_str());
    }
    std::printf(" %10s\n", selected_name(z));
    report.add("selected_" + bench::fmt_size(z), selected_name(z));
  }
  report.emit();
  return all_correct ? 0 : 1;
}
