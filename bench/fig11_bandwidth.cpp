// Figure 11 — simulated switch aggregation bandwidth on the PsPIN unit.
//
// Left panel: bandwidth vs reduction size (int32), one line per policy,
// against the published SwitchML (1.6 Tbps) and SHARP (3.2 Tbps) numbers.
// Right panel: elements aggregated per second by dtype for a 1 MiB
// reduction — RI5CY SIMD vectorization raises the element rate for narrow
// integer types, while SwitchML's RMT pipeline gains nothing from them and
// cannot process floats at all (F1).
//
// --full uses the paper's full unit (512 cores) and size grid; the default
// scales the unit down 4x for a quick run (bandwidths scale ~linearly with
// the core count, Section 6.4).
//
// Exits 1 if any simulated run fails its reference check.
#include <cstdio>

#include "bench_util.hpp"
#include "model/reference.hpp"
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
    {"multi(4)", core::AggPolicy::kMultiBuffer, 4},
    {"tree", core::AggPolicy::kTree, 1},
};

pspin::SingleSwitchOptions base_options(bool full) {
  pspin::SingleSwitchOptions opt;
  if (!full) {
    opt.unit.n_clusters = 16;  // 128 cores; report scaled-to-512 numbers
  }
  opt.hosts = 16;
  opt.dtype = core::DType::kInt32;
  opt.seed = 5;
  return opt;
}

/// The PsPIN clusters are shared-nothing, so results scale linearly with
/// the deployed cluster count (paper, Section 6.4).
f64 cluster_scale(const pspin::SingleSwitchOptions& opt) {
  return 64.0 / opt.unit.n_clusters;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  bench::print_title("Figure 11",
                     "simulated switch bandwidth vs size and data type");
  bench::JsonReport report("fig11_bandwidth");
  if (!full) {
    bench::print_note("(scaled-down unit: 16 of 64 clusters simulated, "
                      "results scaled linearly; run with --full for the "
                      "paper's 512-core unit)");
  }

  // ------------------------------------------------ left: size sweep -----
  const std::vector<u64> sizes =
      full ? std::vector<u64>{1_KiB, 4_KiB, 16_KiB, 64_KiB, 256_KiB,
                              512_KiB, 1_MiB}
           : std::vector<u64>{1_KiB, 4_KiB, 16_KiB, 64_KiB, 256_KiB,
                              512_KiB};
  std::printf("\n  Aggregation bandwidth (Tbps), int32 sum, P=16:\n");
  std::printf("  %-8s", "size");
  for (const Alg& a : kAlgs) std::printf(" %10s", a.name);
  std::printf(" %10s %10s\n", "SwitchML", "SHARP");
  bool all_correct = true;
  for (const u64 z : sizes) {
    std::printf("  %-8s", bench::fmt_size(z).c_str());
    for (const Alg& a : kAlgs) {
      pspin::SingleSwitchOptions opt = base_options(full);
      opt.data_bytes = z;
      opt.policy = a.policy;
      opt.num_buffers = a.buffers;
      // Small operations run several rounds so the measurement reflects
      // steady-state aggregation throughput rather than a single latency.
      opt.rounds = static_cast<u32>(
          std::max<u64>(1, 256_KiB / std::max<u64>(z, 1)));
      const auto res = pspin::run_single_switch(opt);
      all_correct = all_correct && res.correct;
      const f64 bw = res.goodput_bps * cluster_scale(opt);
      std::printf(" %10s%s", bench::fmt_tbps(bw).c_str(),
                  res.correct ? "" : "!");
    }
    std::printf(" %10s %10s\n",
                bench::fmt_tbps(model::kSwitchMLBandwidthBps).c_str(),
                bench::fmt_tbps(model::kSharpBandwidthBps).c_str());
  }

  // -------------------------------------------- right: dtype element rates
  std::printf("\n  Elements aggregated per second (1 MiB reduction, best "
              "policy):\n");
  std::printf("  %-8s %16s %16s\n", "dtype", "Flare (elem/s)",
              "SwitchML (elem/s)");
  for (const core::DType t :
       {core::DType::kInt32, core::DType::kInt16, core::DType::kInt8,
        core::DType::kFloat32}) {
    pspin::SingleSwitchOptions opt = base_options(full);
    opt.data_bytes = full ? 1_MiB : 512_KiB;
    opt.dtype = t;
    opt.policy = core::AggPolicy::kSingleBuffer;
    const auto res = pspin::run_single_switch(opt);
    all_correct = all_correct && res.correct;
    const f64 bw = res.goodput_bps * cluster_scale(opt);
    const f64 flare_eps = model::elements_per_second(bw, t);
    const f64 sw_eps = model::switchml_elements_per_second(t);
    report.add(std::string("flare_eps_") + std::string(core::dtype_name(t)),
               flare_eps)
        .add(std::string("correct_") + std::string(core::dtype_name(t)),
             res.correct);
    std::printf("  %-8s %16.3e %16s%s\n",
                std::string(core::dtype_name(t)).c_str(), flare_eps,
                sw_eps > 0 ? (std::to_string(sw_eps / 1e9) + "e9").c_str()
                           : "unsupported",
                res.correct ? "" : " (CHECK FAILED)");
  }
  std::printf("\n  Paper shape: tree wins at small sizes (beating SwitchML); "
              "single buffer\n  overtakes everything from ~512 KiB (beating "
              "SHARP); narrower integers raise\n  Flare's element rate via "
              "SIMD while SwitchML is flat and float-less.\n");
  report.emit();
  return all_correct ? 0 : 1;
}
