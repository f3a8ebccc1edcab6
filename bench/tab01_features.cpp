// Table 1 — feature comparison of in-network allreduce systems.
//
// The published systems' capabilities are literature constants; the Flare
// column is DEMONSTRATED live: a custom operator on a custom data type
// (F1), a sparse reduction with irregular per-host data (F2), and a
// bitwise-reproducibility check across adversarial arrival orders (F3),
// all executed on the PsPIN-based switch simulator.
//
// Exits 1 if any demonstration fails its check.
#include <cstdio>

#include "bench_util.hpp"
#include "pspin/experiment.hpp"

namespace {

using namespace flare;

struct SystemRow {
  const char* name;
  const char* category;
  const char* f1;  // custom operators & data types
  const char* f2;  // sparse data
  const char* f3;  // reproducibility
};

// Legend: Y = provided, ~ = partially provided, N = not provided, ? = unknown
constexpr SystemRow kRows[] = {
    {"SHArP [9]", "fixed-function", "N", "N", "Y"},
    {"SHARP-SAT [16]", "fixed-function", "N", "N", "Y"},
    {"Aries [17]", "fixed-function", "N", "N", "?"},
    {"Tofu [18]", "fixed-function", "N", "N", "?"},
    {"PERCS [19]", "fixed-function", "N", "N", "?"},
    {"Anton2 [21]", "fixed-function", "N", "N", "?"},
    {"NVSwitch [10]", "fixed-function", "N", "N", "Y"},
    {"PANAMA [22]", "FPGA", "N", "N", "Y"},
    {"NetReduce [23]", "FPGA", "N", "N", "?"},
    {"ATP [24]", "progr. switch", "~", "N", "N"},
    {"SwitchML [11]", "progr. switch", "~", "N", "N"},
    {"OmniReduce [25]", "progr. switch", "~", "~", "N"},
    {"Flare (this repo)", "sPIN/PsPIN", "Y", "Y", "Y"},
};

pspin::SingleSwitchOptions demo_base() {
  pspin::SingleSwitchOptions opt;
  opt.unit.n_clusters = 8;
  opt.unit.cores_per_cluster = 8;
  opt.unit.charge_cold_start = false;
  opt.hosts = 8;
  opt.data_bytes = 32_KiB;
  opt.seed = 11;
  return opt;
}

}  // namespace

int main() {
  bench::print_title("Table 1", "in-network allreduce feature comparison "
                                "(F1 custom ops/types, F2 sparse, F3 "
                                "reproducible)");
  std::printf("  %-20s %-16s %4s %4s %4s\n", "System", "Category", "F1",
              "F2", "F3");
  for (const SystemRow& row : kRows) {
    std::printf("  %-20s %-16s %4s %4s %4s\n", row.name, row.category,
                row.f1, row.f2, row.f3);
  }
  std::printf("  (Y = provided, ~ = partial, N = no, ? = unknown)\n");

  std::printf("\n  Live capability demonstrations on the PsPIN switch:\n");
  bench::JsonReport report("tab01_features");
  bool all_ok = true;

  // F1: custom operator (saturating int8 sum, a quantized-training op no
  // fixed-function or RMT switch offers).
  {
    pspin::SingleSwitchOptions opt = demo_base();
    opt.dtype = core::DType::kInt8;
    opt.policy = core::AggPolicy::kTree;
    const auto res = pspin::run_single_switch(opt);
    std::printf("  [F1] int8 tree aggregation, %llu blocks: %s\n",
                static_cast<unsigned long long>(res.blocks_completed),
                res.correct ? "OK" : "FAILED");
    report.add("f1_custom_op_ok", res.correct);
    all_ok = all_ok && res.correct;
  }

  // F2: sparse allreduce with irregular per-host non-zeros.
  {
    pspin::SingleSwitchOptions opt = demo_base();
    opt.sparse = true;
    opt.density = 0.05;
    opt.index_overlap = 0.6;
    const auto res = pspin::run_single_switch(opt);
    std::printf("  [F2] sparse hash-store allreduce (5%% dense): %s "
                "(extra traffic %.1f%%)\n",
                res.correct ? "OK" : "FAILED", res.extra_traffic_pct);
    report.add("f2_sparse_ok", res.correct);
    all_ok = all_ok && res.correct;
  }

  // F3: bitwise reproducibility across different arrival orders.
  {
    pspin::SingleSwitchOptions opt = demo_base();
    opt.dtype = core::DType::kFloat32;
    opt.reproducible = true;
    opt.arrival_seed = 101;
    const auto a = pspin::run_single_switch(opt);
    opt.arrival_seed = 202;
    const auto b = pspin::run_single_switch(opt);
    const bool reproducible =
        a.correct && b.correct && a.result_checksum == b.result_checksum;
    std::printf("  [F3] fp32 reproducible tree, 2 arrival orders: %s "
                "(checksums %016llx / %016llx)\n",
                reproducible ? "BITWISE IDENTICAL" : "FAILED",
                static_cast<unsigned long long>(a.result_checksum),
                static_cast<unsigned long long>(b.result_checksum));
    report.add("f3_reproducible", reproducible);
    all_ok = all_ok && reproducible;
  }
  report.emit();
  return all_ok ? 0 : 1;
}
