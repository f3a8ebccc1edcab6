// PsPIN unit simulator + single-switch experiment driver: scheduling
// (hierarchical FCFS core affinity, global FCFS), L2 accounting and drops,
// cold start, end-to-end correctness/performance properties of
// run_single_switch across policies, dtypes, dense and sparse, and a replay
// pin of every aggregator under contention.
#include <gtest/gtest.h>

#include <bit>
#include <ostream>
#include <string>

#include "pspin/experiment.hpp"
#include "pspin/unit.hpp"

namespace flare::pspin {
namespace {

PsPinConfig tiny_unit(u32 clusters = 2, u32 cores = 4, u32 subset = 2) {
  PsPinConfig cfg;
  cfg.n_clusters = clusters;
  cfg.cores_per_cluster = cores;
  cfg.subset_cores = subset;
  cfg.charge_cold_start = false;
  return cfg;
}

core::AllreduceConfig simple_allreduce(u32 id, u32 children,
                                       core::AggPolicy policy) {
  core::AllreduceConfig cfg;
  cfg.id = id;
  cfg.num_children = children;
  cfg.dtype = core::DType::kInt32;
  cfg.elems_per_packet = 256;
  cfg.policy = policy;
  cfg.is_root = true;
  return cfg;
}

core::Packet test_packet(u32 id, u32 block, u16 child) {
  std::vector<i32> data(256, 1);
  return core::make_dense_packet(id, block, child, data.data(), 256,
                                 core::DType::kInt32);
}

TEST(PsPinUnit, UnmatchedPacketsCounted) {
  sim::Simulator sim;
  PsPinUnit unit(sim, tiny_unit());
  unit.inject(test_packet(99, 0, 0), 0);
  sim.run();
  EXPECT_EQ(unit.packets_unmatched(), 1u);
  EXPECT_EQ(unit.handlers_run(), 0u);
}

TEST(PsPinUnit, HierarchicalFcfsPinsBlockToSubset) {
  // All packets of one block must run on the S cores of its subset.
  sim::Simulator sim;
  PsPinConfig cfg = tiny_unit(/*clusters=*/2, /*cores=*/4, /*subset=*/2);
  PsPinUnit unit(sim, cfg);
  unit.install(simple_allreduce(1, 16, core::AggPolicy::kTree));
  for (u32 h = 0; h < 16; ++h) unit.inject(test_packet(1, 0, static_cast<u16>(h)), h);
  sim.run();
  // Block 0 -> subset 0 -> cores {0, 1} only.
  u64 on_subset = unit.core_handler_count(0) + unit.core_handler_count(1);
  EXPECT_EQ(on_subset, 16u);
  for (u32 c = 2; c < cfg.total_cores(); ++c)
    EXPECT_EQ(unit.core_handler_count(c), 0u);
}

TEST(PsPinUnit, GlobalFcfsSpreadsAcrossAllCores) {
  sim::Simulator sim;
  PsPinConfig cfg = tiny_unit();
  cfg.scheduler = SchedulerKind::kGlobalFcfs;
  PsPinUnit unit(sim, cfg);
  unit.install(simple_allreduce(1, 16, core::AggPolicy::kTree));
  for (u32 h = 0; h < 16; ++h)
    unit.inject(test_packet(1, 0, static_cast<u16>(h)), 0);
  sim.run();
  u32 cores_used = 0;
  for (u32 c = 0; c < cfg.total_cores(); ++c)
    if (unit.core_handler_count(c) > 0) ++cores_used;
  EXPECT_GT(cores_used, 2u);
}

TEST(PsPinUnit, DifferentBlocksUseDifferentSubsets) {
  sim::Simulator sim;
  PsPinConfig cfg = tiny_unit(2, 4, 2);  // 4 subsets
  PsPinUnit unit(sim, cfg);
  unit.install(simple_allreduce(1, 1, core::AggPolicy::kSingleBuffer));
  for (u32 b = 0; b < 4; ++b) unit.inject(test_packet(1, b, 0), b);
  sim.run();
  u32 cores_used = 0;
  for (u32 c = 0; c < cfg.total_cores(); ++c)
    if (unit.core_handler_count(c) > 0) ++cores_used;
  EXPECT_EQ(cores_used, 4u);  // one core of each of the 4 subsets
}

TEST(PsPinUnit, L2OverflowDropsPackets) {
  sim::Simulator sim;
  PsPinConfig cfg = tiny_unit(1, 1, 1);  // one slow core
  cfg.l2_packet_bytes = 4 * 1088;       // room for ~4 wire packets
  PsPinUnit unit(sim, cfg);
  unit.install(simple_allreduce(1, 64, core::AggPolicy::kSingleBuffer));
  for (u32 h = 0; h < 64; ++h)
    unit.inject(test_packet(1, 0, static_cast<u16>(h)), 0);
  sim.run();
  EXPECT_GT(unit.packets_dropped(), 0u);
  EXPECT_LE(unit.l2_bytes().high_water(), cfg.l2_packet_bytes);
}

TEST(PsPinUnit, ColdStartDelaysFirstHandlerOnly) {
  auto run_with = [](bool cold) {
    sim::Simulator sim;
    PsPinConfig cfg = tiny_unit(1, 1, 1);
    cfg.charge_cold_start = cold;
    PsPinUnit unit(sim, cfg);
    unit.install(simple_allreduce(1, 2, core::AggPolicy::kSingleBuffer));
    SimTime done_at = 0;
    unit.set_emit_hook(
        [&](const core::Packet&, SimTime when) { done_at = when; });
    unit.inject(test_packet(1, 0, 0), 0);
    unit.inject(test_packet(1, 0, 1), 0);
    sim.run();
    return done_at;
  };
  const SimTime cold = run_with(true);
  const SimTime warm = run_with(false);
  core::CostModel costs;
  EXPECT_EQ(cold - warm, costs.cold_start_cycles);
}

TEST(PsPinUnit, BusyCoresGaugeReturnsToZero) {
  sim::Simulator sim;
  PsPinUnit unit(sim, tiny_unit());
  unit.install(simple_allreduce(1, 8, core::AggPolicy::kMultiBuffer));
  for (u32 h = 0; h < 8; ++h)
    unit.inject(test_packet(1, 0, static_cast<u16>(h)), h * 10);
  sim.run();
  EXPECT_EQ(unit.busy_cores().current(), 0u);
  EXPECT_GT(unit.busy_cores().high_water(), 0u);
  EXPECT_EQ(unit.l2_bytes().current(), 0u);
}

TEST(PsPinUnit, DuplicateInstallAborts) {
  sim::Simulator sim;
  PsPinUnit unit(sim, tiny_unit());
  unit.install(simple_allreduce(1, 2, core::AggPolicy::kTree));
  EXPECT_DEATH(unit.install(simple_allreduce(1, 2, core::AggPolicy::kTree)),
               "already installed");
}

// ---------------------------------------------------------- experiments ---

SingleSwitchOptions small_exp(core::AggPolicy policy, u64 bytes = 64_KiB) {
  SingleSwitchOptions opt;
  opt.unit.n_clusters = 8;
  opt.unit.cores_per_cluster = 8;
  opt.unit.subset_cores = 8;
  opt.unit.charge_cold_start = false;
  opt.hosts = 4;
  opt.data_bytes = bytes;
  opt.policy = policy;
  opt.num_buffers = policy == core::AggPolicy::kMultiBuffer ? 2 : 1;
  opt.seed = 3;
  return opt;
}

class ExperimentPolicySweep
    : public ::testing::TestWithParam<core::AggPolicy> {};

TEST_P(ExperimentPolicySweep, DenseEndToEndCorrect) {
  SingleSwitchOptions opt = small_exp(GetParam());
  const SingleSwitchResult res = run_single_switch(opt);
  EXPECT_TRUE(res.correct) << "err=" << res.max_abs_err
                           << " blocks=" << res.blocks_completed
                           << " drops=" << res.drops;
  EXPECT_EQ(res.blocks_completed, 64u);
  EXPECT_EQ(res.drops, 0u);
  EXPECT_GT(res.goodput_bps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Policies, ExperimentPolicySweep,
                         ::testing::Values(core::AggPolicy::kSingleBuffer,
                                           core::AggPolicy::kMultiBuffer,
                                           core::AggPolicy::kTree));

class ExperimentDtypeSweep : public ::testing::TestWithParam<core::DType> {};

TEST_P(ExperimentDtypeSweep, DenseAllTypes) {
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kTree, 32_KiB);
  opt.dtype = GetParam();
  const SingleSwitchResult res = run_single_switch(opt);
  EXPECT_TRUE(res.correct) << "err=" << res.max_abs_err;
}

INSTANTIATE_TEST_SUITE_P(Dtypes, ExperimentDtypeSweep,
                         ::testing::Values(core::DType::kInt8,
                                           core::DType::kInt16,
                                           core::DType::kInt32,
                                           core::DType::kInt64,
                                           core::DType::kFloat16,
                                           core::DType::kFloat32));

TEST(Experiment, MultiRoundSteadyState) {
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kTree, 16_KiB);
  opt.rounds = 4;
  const SingleSwitchResult res = run_single_switch(opt);
  EXPECT_TRUE(res.correct);
  EXPECT_EQ(res.blocks_completed, 64u);  // 16 blocks x 4 rounds
}

TEST(Experiment, StaggeredBeatsAlignedOnSingleBuffer) {
  // Section 5/6.1: staggered sending removes buffer contention for large
  // messages; aligned sending collapses the bandwidth.
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kSingleBuffer, 256_KiB);
  opt.arrivals = workload::ArrivalKind::kDeterministic;
  opt.order = core::SendOrder::kStaggered;
  const auto stag = run_single_switch(opt);
  opt.order = core::SendOrder::kAligned;
  opt.aggregate_ingest_bps = 0.0;  // re-derive pacing for aligned
  const auto aligned = run_single_switch(opt);
  ASSERT_TRUE(stag.correct);
  ASSERT_TRUE(aligned.correct);
  EXPECT_GT(stag.goodput_bps, 1.2 * aligned.goodput_bps);
  EXPECT_GT(aligned.cs_wait_mean_cycles, stag.cs_wait_mean_cycles);
}

TEST(Experiment, TreeInsensitiveToSendOrder) {
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kTree, 64_KiB);
  opt.arrivals = workload::ArrivalKind::kDeterministic;
  const auto stag = run_single_switch(opt);
  opt.order = core::SendOrder::kAligned;
  const auto aligned = run_single_switch(opt);
  ASSERT_TRUE(stag.correct && aligned.correct);
  const f64 ratio = aligned.goodput_bps / stag.goodput_bps;
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

TEST(Experiment, ReproducibleTreeChecksumStableAcrossArrivalOrders) {
  // F3: same data, different packet arrival jitter -> bitwise-identical
  // results with the reproducible (tree) configuration.
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kTree, 32_KiB);
  opt.dtype = core::DType::kFloat32;
  opt.reproducible = true;
  opt.arrival_seed = 1001;
  const auto a = run_single_switch(opt);
  opt.arrival_seed = 2002;
  const auto b = run_single_switch(opt);
  ASSERT_TRUE(a.correct && b.correct);
  EXPECT_EQ(a.result_checksum, b.result_checksum);
}

TEST(Experiment, SingleBufferFloatChecksumArrivalDependent) {
  // Counterpart: without reproducibility the float sum order follows
  // arrivals, so checksums (almost surely) differ.
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kSingleBuffer, 32_KiB);
  opt.dtype = core::DType::kFloat32;
  opt.arrival_seed = 1001;
  const auto a = run_single_switch(opt);
  opt.arrival_seed = 2002;
  const auto b = run_single_switch(opt);
  ASSERT_TRUE(a.correct && b.correct);
  EXPECT_NE(a.result_checksum, b.result_checksum);
}

TEST(Experiment, SparseHashEndToEnd) {
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kSingleBuffer, 64_KiB);
  opt.sparse = true;
  opt.dtype = core::DType::kFloat32;
  opt.density = 0.10;
  opt.index_overlap = 0.5;
  opt.hash_storage = true;
  const auto res = run_single_switch(opt);
  EXPECT_TRUE(res.correct) << "err=" << res.max_abs_err
                           << " blocks=" << res.blocks_completed;
  EXPECT_GE(res.extra_traffic_pct, 0.0);
}

TEST(Experiment, SparseArrayEndToEnd) {
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kSingleBuffer, 64_KiB);
  opt.sparse = true;
  opt.dtype = core::DType::kFloat32;
  opt.density = 0.10;
  opt.index_overlap = 0.5;
  opt.hash_storage = false;
  const auto res = run_single_switch(opt);
  EXPECT_TRUE(res.correct) << "err=" << res.max_abs_err;
  // Array storage never spills -> no extra traffic (Figure 14).
  EXPECT_NEAR(res.extra_traffic_pct, 0.0, 1e-9);
}

TEST(Experiment, SparseArrayMemoryExceedsHash) {
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kSingleBuffer, 64_KiB);
  opt.sparse = true;
  opt.density = 0.01;  // low density -> large span
  opt.index_overlap = 0.8;
  opt.hash_storage = false;
  const auto arr = run_single_switch(opt);
  opt.hash_storage = true;
  const auto hash = run_single_switch(opt);
  ASSERT_TRUE(arr.correct && hash.correct);
  EXPECT_GT(arr.block_mem_mean_bytes, hash.block_mem_mean_bytes);
}

TEST(Experiment, HierarchicalSchedulingBeatsGlobal) {
  // Section 5: global FCFS pays remote-L1 penalties on most aggregations.
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kSingleBuffer, 128_KiB);
  const auto local = run_single_switch(opt);
  opt.unit.scheduler = SchedulerKind::kGlobalFcfs;
  opt.unit.subset_cores = opt.unit.cores_per_cluster;
  const auto remote = run_single_switch(opt);
  ASSERT_TRUE(local.correct && remote.correct);
  EXPECT_GT(local.goodput_bps, 2.0 * remote.goodput_bps);
}

TEST(Experiment, InputBufferStaysWithinL2) {
  SingleSwitchOptions opt = small_exp(core::AggPolicy::kSingleBuffer, 128_KiB);
  const auto res = run_single_switch(opt);
  ASSERT_TRUE(res.correct);
  EXPECT_LE(res.input_buffer_hwm_bytes, opt.unit.l2_packet_bytes);
  EXPECT_EQ(res.drops, 0u);
}

// ------------------------------------------------------------ replay pin --

// The network switch runs its engines with a zero cost model, so only the
// PsPIN unit sees lock waits, merge chains and spill flushes at their true
// cycle times.  Each case runs one contended single-switch experiment
// (aligned send order, deterministic arrivals, small hash stores) and pins
// its timing and result bit for bit.
struct SwitchReplayCase {
  const char* name;
  core::AggPolicy policy;
  u32 buffers;
  u32 subset;  ///< S; the unit has 8 cores per cluster
  bool sparse;
  bool hash;
  // Pinned outcome.
  u64 makespan_cycles;
  u64 cs_wait_mean_bits;   ///< std::bit_cast<u64>(f64)
  u64 block_latency_bits;  ///< std::bit_cast<u64>(f64)
  u64 emitted_wire_bytes;
  u64 result_checksum;
};

void PrintTo(const SwitchReplayCase& c, std::ostream* os) { *os << c.name; }

class SwitchReplay : public ::testing::TestWithParam<SwitchReplayCase> {};

TEST_P(SwitchReplay, MatchesPinnedOutcome) {
  const SwitchReplayCase& want = GetParam();
  SingleSwitchOptions opt;
  opt.unit.n_clusters = 4;
  opt.unit.cores_per_cluster = 8;
  opt.unit.subset_cores = want.subset;
  opt.hosts = 16;
  opt.data_bytes = 32_KiB;
  opt.policy = want.policy;
  opt.num_buffers = want.buffers;
  opt.order = core::SendOrder::kAligned;
  opt.arrivals = workload::ArrivalKind::kDeterministic;
  opt.seed = 5;
  opt.sparse = want.sparse;
  if (want.sparse) {
    opt.dtype = core::DType::kFloat32;
    opt.density = 0.2;
    opt.index_overlap = 0.3;
    opt.hash_storage = want.hash;
    opt.hash_capacity_pairs = 64;
    opt.spill_capacity_pairs = 16;
  }
  const SingleSwitchResult got = run_single_switch(opt);
  ASSERT_TRUE(got.correct) << "err=" << got.max_abs_err;
  EXPECT_EQ(got.makespan_cycles, want.makespan_cycles);
  EXPECT_EQ(std::bit_cast<u64>(got.cs_wait_mean_cycles),
            want.cs_wait_mean_bits)
      << got.cs_wait_mean_cycles;
  EXPECT_EQ(std::bit_cast<u64>(got.block_latency_mean_cycles),
            want.block_latency_bits)
      << got.block_latency_mean_cycles;
  EXPECT_EQ(got.emitted_wire_bytes, want.emitted_wire_bytes);
  EXPECT_EQ(got.result_checksum, want.result_checksum);
}

INSTANTIATE_TEST_SUITE_P(
    Contended, SwitchReplay,
    ::testing::Values(
        SwitchReplayCase{"SingleS1", core::AggPolicy::kSingleBuffer, 1, 1,
                         false, false, 26312, 0x0000000000000000ull,
                         0x40c9800000000000ull, 34816, 0xedd817a990d53081ull},
        SwitchReplayCase{"SingleSC", core::AggPolicy::kSingleBuffer, 1, 8,
                         false, false, 66566, 0x40a565d800000001ull,
                         0x40c6ca1fffffffffull, 34816, 0xedd817a990d53081ull},
        SwitchReplayCase{"MultiB2", core::AggPolicy::kMultiBuffer, 2, 8, false,
                         false, 62563, 0x4092ef8000000002ull,
                         0x40b969ffffffffffull, 34816, 0xedd817a990d53081ull},
        SwitchReplayCase{"MultiB4", core::AggPolicy::kMultiBuffer, 4, 8, false,
                         false, 62984, 0x40641dfffffffffdull,
                         0x40b521e000000000ull, 34816, 0xedd817a990d53081ull},
        SwitchReplayCase{"Tree", core::AggPolicy::kTree, 1, 8, false, false,
                         19695, 0x0000000000000000ull, 0x40b0a60000000001ull,
                         34816, 0xedd817a990d53081ull},
        SwitchReplayCase{"SparseHash", core::AggPolicy::kSingleBuffer, 2, 8,
                         true, true, 110238, 0x40a1f9fcafa335dcull,
                         0x40da974ec4ec4ec6ull, 188720, 0xab45b0ccd42b6c3full},
        SwitchReplayCase{"SparseArray", core::AggPolicy::kSingleBuffer, 1, 8,
                         true, false, 90476, 0x40b41e848e7f95f4ull,
                         0x40db37c9d89d89d9ull, 66136, 0xd58d3801bf2e13ddull}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace flare::pspin
