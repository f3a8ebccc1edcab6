// Figure 5 — impact of intra-block interarrival time (delta_c) and
// hierarchical-FCFS subset size (S) on queueing and input-buffer occupancy.
//
// Left: the paper's three illustrative scenarios (K=4 cores, P=4 ports,
// tau=4, delta=1) evaluated with the Section 5 closed forms.
// Right: the same effect measured live on the PsPIN discrete-event unit —
// aligned vs staggered sending with block-subset scheduling.
//
// Exits 1 if any simulated run fails its reference check.
#include <cstdio>

#include "bench_util.hpp"
#include "model/scheduling.hpp"
#include "pspin/experiment.hpp"

using namespace flare;

int main() {
  bench::print_title("Figure 5",
                     "scheduling scenarios: queue build-up vs (S, delta_c)");
  bench::JsonReport report("fig05_scheduling");

  std::printf("  Modeled scenarios (K=4, P=4, tau=4, delta=1):\n");
  std::printf("  %-34s %3s %8s %8s %10s %10s\n", "scenario", "S", "delta_c",
              "delta_k", "Q/core", "pkts in sw");
  struct Scenario {
    const char* name;
    f64 subset, delta_c;
  };
  const Scenario scenarios[] = {
      {"A: global FCFS, aligned", 4, 1},
      {"B: subset FCFS (S=1), aligned", 1, 1},
      {"C: subset FCFS (S=1), staggered", 1, 4},
  };
  for (const Scenario& s : scenarios) {
    model::SchedulingParams p;
    p.cores = 4;
    p.packets_per_block = 4;
    p.delta = 1;
    p.tau = 4;
    p.subset = s.subset;
    p.delta_c = s.delta_c;
    std::printf("  %-34s %3.0f %8.0f %8.0f %10.2f %10.2f\n", s.name,
                s.subset, s.delta_c, model::delta_k(p),
                model::queue_length(p), model::packets_in_switch(p));
  }

  std::printf("\n  Simulated on the PsPIN unit (64 cores, S=8, single "
              "buffer, 64 KiB, P=8):\n");
  std::printf("  %-22s %14s %16s %14s\n", "send order", "goodput Tbps",
              "input buf KiB", "cs wait cyc");
  bool all_correct = true;
  for (const core::SendOrder order :
       {core::SendOrder::kAligned, core::SendOrder::kStaggered}) {
    pspin::SingleSwitchOptions opt;
    opt.unit.n_clusters = 8;
    opt.unit.cores_per_cluster = 8;
    opt.unit.charge_cold_start = false;
    opt.hosts = 8;
    opt.data_bytes = 64_KiB;
    opt.policy = core::AggPolicy::kSingleBuffer;
    opt.order = order;
    opt.arrivals = workload::ArrivalKind::kDeterministic;
    const auto res = pspin::run_single_switch(opt);
    all_correct = all_correct && res.correct;
    std::printf("  %-22s %14s %16s %14.0f   %s\n",
                order == core::SendOrder::kAligned ? "aligned" : "staggered",
                bench::fmt_tbps(res.goodput_bps).c_str(),
                bench::fmt_kib(static_cast<f64>(res.input_buffer_hwm_bytes))
                    .c_str(),
                res.cs_wait_mean_cycles, res.correct ? "" : "(CHECK FAILED)");
    const std::string which =
        order == core::SendOrder::kAligned ? "aligned" : "staggered";
    report.add(which + "_goodput_tbps", res.goodput_bps / 1e12)
        .add(which + "_cs_wait_cycles", res.cs_wait_mean_cycles)
        .add(which + "_correct", res.correct);
  }
  std::printf("  -> staggered sending raises delta_c: no critical-section "
              "spin, smaller queues.\n");
  report.emit();
  return all_correct ? 0 : 1;
}
