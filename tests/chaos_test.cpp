// Deterministic chaos harness: seeded fault schedules (link flaps, switch
// crash/restarts, silent drop and CRC-corruption bursts) replayed against
// in-network collectives, the host ring, SparCML and the multi-tenant
// service.
//
// Every case asserts the recovery contract end to end:
//   * the collective COMPLETES despite the schedule (recovered in-network
//     or finished on the host-ring fallback);
//   * the result is bit-for-bit the reference reduction (integer dtypes
//     make tree association exact);
//   * re-running the same seed reproduces the run exactly — completion
//     times, traffic, retransmission and recovery counts;
//   * no switch occupancy leaks: after release every switch holds zero
//     installed reductions.
//
// Reproduce any sweep case standalone with
//   ./chaos_test --gtest_filter='Schedules/ChaosSweep.*/<seed>'
// — the logged FaultPlan::summary shows the exact schedule replayed.
#include <gtest/gtest.h>

#include <bit>
#include <ostream>
#include <string>
#include <vector>

#include "coll/communicator.hpp"
#include "common/rng.hpp"
#include "workload/generators.hpp"
#include "net/fault.hpp"
#include "service/service.hpp"

namespace flare {
namespace {

using coll::Algorithm;
using coll::CollectiveKind;
using coll::CollectiveOptions;
using coll::Communicator;

void expect_no_leaked_occupancy(net::Network& net) {
  for (net::Switch* sw : net.switches()) {
    EXPECT_EQ(sw->installed_reduces(), 0u)
        << sw->name() << " still holds installed reductions";
    EXPECT_EQ(sw->occupancy().current(), 0u)
        << sw->name() << " occupancy gauge leaked";
  }
}

// ------------------------------------------------------- seeded sweep -----

struct ChaosOutcome {
  std::vector<f64> completion_s;
  std::vector<u64> retransmits;
  std::vector<u32> recoveries;
  std::vector<bool> fell_back;
  u64 traffic = 0;
  u64 link_drops = 0;
  u64 stale_drops = 0;

  bool operator==(const ChaosOutcome& o) const = default;
};

/// One full chaos scenario, entirely derived from `seed`: topology, fault
/// schedule, collective shape and iteration count.
ChaosOutcome run_chaos(u64 seed) {
  Rng meta(seed * 7919 + 1);
  net::Network net;
  std::vector<net::Host*> hosts;
  if (meta.bernoulli(0.5)) {
    net::FatTreeSpec spec;
    spec.hosts = 16;
    spec.radix = 4;
    hosts = net::build_fat_tree(net, spec).hosts;
  } else {
    hosts = net::build_single_switch(net, 8).hosts;
  }

  net::FaultPlanSpec fspec;
  fspec.link_flaps = 1 + static_cast<u32>(meta.uniform_u64(3));
  fspec.switch_failures = static_cast<u32>(meta.uniform_u64(2));
  fspec.drop_bursts = static_cast<u32>(meta.uniform_u64(5));
  fspec.corrupt_bursts = static_cast<u32>(meta.uniform_u64(3));
  fspec.horizon_ps = 30 * kPsPerUs;
  const net::FaultPlan plan = net::FaultPlan::random(net, seed, fspec);
  SCOPED_TRACE("seed " + std::to_string(seed) + " fault schedule:\n" +
               plan.summary(net));
  net::FaultInjector injector(net);
  injector.arm(plan);

  CollectiveOptions desc;
  desc.algorithm = Algorithm::kFlareDense;
  desc.dtype = meta.bernoulli(0.5) ? core::DType::kInt32
                                   : core::DType::kInt64;
  desc.data_bytes = 16_KiB << meta.uniform_u64(3);  // 16..64 KiB
  desc.seed = seed;
  desc.retransmit_timeout_ps = 5 * kPsPerUs;
  desc.max_retransmits = 3;

  ChaosOutcome out;
  {
    Communicator comm(net, hosts);
    coll::PersistentCollective pc = comm.persistent(desc);
    EXPECT_TRUE(pc.ok());
    const u32 iters = 1 + static_cast<u32>(meta.uniform_u64(3));
    for (u32 i = 0; i < iters; ++i) {
      const coll::CollectiveResult res = pc.run();
      EXPECT_TRUE(res.ok) << "iteration " << i;
      EXPECT_EQ(res.max_abs_err, 0.0)
          << "iteration " << i << " not bit-for-bit";
      out.completion_s.push_back(res.completion_seconds);
      out.retransmits.push_back(res.retransmits);
      out.recoveries.push_back(res.recoveries);
      out.fell_back.push_back(res.fell_back);
    }
    pc.release();
  }
  out.traffic = net.total_traffic_bytes();
  out.link_drops = net.link_dropped_packets();
  out.stale_drops = net.stale_reduce_dropped_packets();
  expect_no_leaked_occupancy(net);
  return out;
}

class ChaosSweep : public ::testing::TestWithParam<u64> {};

TEST_P(ChaosSweep, CompletesBitForBitAndDeterministically) {
  const u64 seed = GetParam();
  const ChaosOutcome first = run_chaos(seed);
  const ChaosOutcome replay = run_chaos(seed);
  // Same seed -> same run, down to completion times and every fault
  // counter: the whole faulty execution is replayable.
  EXPECT_TRUE(first == replay) << "seed " << seed << " not deterministic";
}

// >= 50 seeded schedules (acceptance criterion); each runs twice.
INSTANTIATE_TEST_SUITE_P(Schedules, ChaosSweep,
                         ::testing::Range<u64>(1, 61));

// --------------------------------------------------- targeted recovery ----

CollectiveOptions fault_tolerant_desc(u64 data_bytes = 32_KiB) {
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kFlareDense;
  desc.dtype = core::DType::kInt32;
  desc.data_bytes = data_bytes;
  desc.retransmit_timeout_ps = 3 * kPsPerUs;
  desc.max_retransmits = 2;
  return desc;
}

TEST(ChaosTargeted, SingleDropHealsByRetransmissionWithoutReinstall) {
  // One lost host contribution: the watchdog retransmits, the engine
  // aggregates the late copy, and no tree recovery is needed.
  net::Network net;
  auto topo = net::build_single_switch(net, 8);
  net.link(0).drop_next(1);  // first packet of host 0's uplink

  Communicator comm(net, topo.hosts);
  const auto res = comm.run(fault_tolerant_desc());
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.max_abs_err, 0.0);
  EXPECT_GE(res.retransmits, 1u);
  EXPECT_EQ(res.recoveries, 0u);
  EXPECT_FALSE(res.fell_back);
  expect_no_leaked_occupancy(net);
}

TEST(ChaosTargeted, LostDownMulticastReemitsCachedResult) {
  // Drop a packet on the switch->host direction: the host's retransmission
  // hits a switch that already completed the block, which re-emits the
  // cached result instead of re-aggregating.
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  net.link(1).drop_next(2);  // switch->host0 direction of the first link

  Communicator comm(net, topo.hosts);
  const auto res = comm.run(fault_tolerant_desc(8_KiB));
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.max_abs_err, 0.0);
  EXPECT_GE(res.retransmits, 1u);
  EXPECT_EQ(res.recoveries, 0u);
  expect_no_leaked_occupancy(net);
}

TEST(ChaosTargeted, SpineCrashRecoversInNetworkViaOtherSpine) {
  // Fat tree with two spines: crashing the tree's spine mid-run forces a
  // reinstall that routes around it — the collective finishes in-network.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 8;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  ASSERT_EQ(topo.spines.size(), 2u);

  CollectiveOptions desc = fault_tolerant_desc(64_KiB);
  Communicator comm(net, topo.hosts);
  coll::PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok());
  // The retry policy prefers the smallest embedding; find which spine (if
  // any) the tree crosses and crash it mid-run.
  net::Switch* tree_spine = nullptr;
  for (const coll::TreeSwitchEntry& e : pc.tree().switches) {
    for (net::Switch* sp : topo.spines) {
      if (e.sw == sp) tree_spine = sp;
    }
  }
  ASSERT_NE(tree_spine, nullptr) << "8 hosts over 4 leaves must cross a spine";
  net.sim().schedule_at(2 * kPsPerUs, [tree_spine] { tree_spine->fail(); });

  const auto res = pc.run();
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.max_abs_err, 0.0);
  EXPECT_GE(res.recoveries, 1u);
  EXPECT_FALSE(res.fell_back) << "the surviving spine should carry the tree";
  EXPECT_TRUE(pc.in_network());
  pc.release();
  expect_no_leaked_occupancy(net);
}

TEST(ChaosTargeted, TotalSwitchLossFallsBackToHostRing) {
  // Single switch crashed mid-run and restarted later: no viable tree at
  // recovery time, so the allreduce finishes on the host ring (which itself
  // NACKs through the outage window).
  net::Network net;
  auto topo = net::build_single_switch(net, 6);
  net::Switch* sw = topo.leaves[0];
  net.sim().schedule_at(2 * kPsPerUs, [sw] { sw->fail(); });
  net.sim().schedule_at(40 * kPsPerUs, [sw] { sw->restart(); });

  Communicator comm(net, topo.hosts);
  const auto res = comm.run(fault_tolerant_desc());
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.max_abs_err, 0.0);
  EXPECT_TRUE(res.fell_back);
  EXPECT_FALSE(res.in_network);
  expect_no_leaked_occupancy(net);
}

TEST(ChaosTargeted, HostRingSurvivesLinkFlap) {
  // The ring data plane alone: a mid-run duplex outage on a host access
  // link is healed by the NACK/replay machinery.
  net::Network net;
  auto topo = net::build_single_switch(net, 8);
  CollectiveOptions desc = fault_tolerant_desc();
  desc.algorithm = Algorithm::kHostRing;

  net::FaultPlan plan;
  plan.events.push_back({1 * kPsPerUs, net::FaultKind::kLinkDown, 2, 1});
  plan.events.push_back({9 * kPsPerUs, net::FaultKind::kLinkUp, 2, 1});
  net::FaultInjector injector(net);
  injector.arm(plan);

  Communicator comm(net, topo.hosts);
  const auto res = comm.run(desc);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.max_abs_err, 0.0);
  EXPECT_GE(res.retransmits, 1u);
}

TEST(ChaosTargeted, PermanentFaultReportsFailureInsteadOfHanging) {
  // A switch that never restarts: broadcast has no host-ring fallback, so
  // after the bounded heal-wait budget the op must publish ok == false and
  // let the calendar drain — a permanent outage is an observable failure,
  // not a hang.
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  net.sim().schedule_at(1 * kPsPerUs, [sw = topo.leaves[0]] { sw->fail(); });

  CollectiveOptions desc = fault_tolerant_desc(8_KiB);
  desc.kind = CollectiveKind::kBroadcast;
  Communicator comm(net, topo.hosts);
  const auto res = comm.run(desc);
  EXPECT_FALSE(res.ok);
  expect_no_leaked_occupancy(net);
}

TEST(ChaosTargeted, PermanentRingStallReportsFailure) {
  // The ring plane under a host access link that never comes back: the
  // NACK budget runs out and the op publishes ok == false.
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  net.sim().schedule_at(1 * kPsPerUs, [&net] {
    net.set_duplex_up(0, false);  // h0's access link, down forever
  });

  CollectiveOptions desc = fault_tolerant_desc(8_KiB);
  desc.algorithm = Algorithm::kHostRing;
  Communicator comm(net, topo.hosts);
  const auto res = comm.run(desc);
  EXPECT_FALSE(res.ok);
}

// ------------------------------------------------------- sparse chaos -----
// The sparse engine under the same recovery contract: integer workloads
// (bit-for-bit), zero leaked switch occupancy AND zero leaked hash-store
// bytes (engine_pool_in_use) after completion.

CollectiveOptions sparse_fault_desc(u32 span = 1280, u32 blocks = 8) {
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kFlareSparse;
  desc.dtype = core::DType::kInt32;
  desc.sparse.block_span = span;
  desc.sparse.num_blocks = blocks;
  desc.sparse.epoch_pairs = [span](u64 epoch, u32 h, u32 b) {
    workload::SparseSpec spec{span, 0.08, 0.5, core::DType::kInt32, epoch};
    return workload::sparse_block_pairs(spec, h, b);
  };
  desc.retransmit_timeout_ps = 3 * kPsPerUs;
  desc.max_retransmits = 2;
  return desc;
}

void expect_no_leaked_hash_store(net::Network& net) {
  for (net::Switch* sw : net.switches()) {
    EXPECT_EQ(sw->engine_pool_in_use(), 0u)
        << sw->name() << " still holds sparse store bytes";
  }
}

TEST(ChaosSparse, SingleDropHealsByRetransmissionWithoutReinstall) {
  // One lost sparse contribution shard: the watchdog re-sends the block's
  // shards, the switch shard-trackers absorb the duplicates and aggregate
  // only the missing one — no tree recovery.
  net::Network net;
  auto topo = net::build_single_switch(net, 8);
  net.link(0).drop_next(1);  // first packet of host 0's uplink

  Communicator comm(net, topo.hosts);
  const auto res = comm.run(sparse_fault_desc());
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.max_abs_err, 0.0);
  EXPECT_GE(res.retransmits, 1u);
  EXPECT_EQ(res.recoveries, 0u);
  EXPECT_FALSE(res.fell_back);
  expect_no_leaked_occupancy(net);
  expect_no_leaked_hash_store(net);
}

TEST(ChaosSparse, LostDownMulticastReemitsCachedShardSequence) {
  // Drop packets on the switch->host direction: the host's retransmission
  // hits a switch that already completed the block, which replays the
  // block's cached emission sequence; the host-side shard bitmaps keep the
  // replay idempotent.
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  net.link(1).drop_next(2);  // switch->host0 direction of the first link

  Communicator comm(net, topo.hosts);
  const auto res = comm.run(sparse_fault_desc(1024, 4));
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.max_abs_err, 0.0);
  EXPECT_GE(res.retransmits, 1u);
  EXPECT_EQ(res.recoveries, 0u);
  expect_no_leaked_occupancy(net);
  expect_no_leaked_hash_store(net);
}

TEST(ChaosSparse, SpineCrashRecoversInNetworkViaOtherSpine) {
  // Persistent sparse on a two-spine fat tree: the tree's spine dies
  // mid-iteration; the fresh-id reinstall routes around it and the session
  // finishes in-network, exactly like the dense engine.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 8;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  ASSERT_EQ(topo.spines.size(), 2u);

  Communicator comm(net, topo.hosts);
  coll::PersistentCollective pc = comm.persistent(sparse_fault_desc());
  ASSERT_TRUE(pc.ok());
  net::Switch* tree_spine = nullptr;
  for (const coll::TreeSwitchEntry& e : pc.tree().switches) {
    for (net::Switch* sp : topo.spines) {
      if (e.sw == sp) tree_spine = sp;
    }
  }
  ASSERT_NE(tree_spine, nullptr) << "8 hosts over 4 leaves must cross a spine";
  net.sim().schedule_at(2 * kPsPerUs, [tree_spine] { tree_spine->fail(); });

  const auto faulted = pc.run();
  ASSERT_TRUE(faulted.ok);
  EXPECT_EQ(faulted.max_abs_err, 0.0);
  EXPECT_GE(faulted.recoveries, 1u);
  EXPECT_FALSE(faulted.fell_back) << "the surviving spine should carry it";
  EXPECT_TRUE(pc.in_network());

  const auto steady = pc.run();
  ASSERT_TRUE(steady.ok);
  EXPECT_EQ(steady.max_abs_err, 0.0);
  EXPECT_EQ(steady.recoveries, 0u);

  pc.release();
  expect_no_leaked_occupancy(net);
  expect_no_leaked_hash_store(net);
}

TEST(ChaosSparse, TotalSwitchLossFallsBackToSparcml) {
  // The only switch crashes mid-run and restarts later: no viable tree at
  // recovery time, so the sparse allreduce finishes on the SparCML host
  // data plane — whose receiver-driven NACK/replay machinery itself rides
  // out the outage window.
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  net::Switch* sw = topo.leaves[0];
  net.sim().schedule_at(2 * kPsPerUs, [sw] { sw->fail(); });
  net.sim().schedule_at(40 * kPsPerUs, [sw] { sw->restart(); });

  Communicator comm(net, topo.hosts);
  const auto res = comm.run(sparse_fault_desc());
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.max_abs_err, 0.0);
  EXPECT_TRUE(res.fell_back);
  EXPECT_FALSE(res.in_network);
  expect_no_leaked_occupancy(net);
  expect_no_leaked_hash_store(net);
}

TEST(ChaosTargeted, SparcmlSurvivesLinkFlap) {
  // The SparCML data plane alone, on the ring's flap schedule: a mid-run
  // duplex outage on a host access link is healed by NACK/replay.
  net::Network net;
  auto topo = net::build_single_switch(net, 8);
  CollectiveOptions desc = sparse_fault_desc();
  desc.algorithm = Algorithm::kSparcml;

  net::FaultPlan plan;
  plan.events.push_back({1 * kPsPerUs, net::FaultKind::kLinkDown, 2, 1});
  plan.events.push_back({9 * kPsPerUs, net::FaultKind::kLinkUp, 2, 1});
  net::FaultInjector injector(net);
  injector.arm(plan);

  Communicator comm(net, topo.hosts);
  const auto res = comm.run(desc);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.max_abs_err, 0.0);
  EXPECT_GE(res.retransmits, 1u);
  EXPECT_FALSE(res.in_network);
}

TEST(ChaosTargeted, PermanentSparcmlStallReportsFailure) {
  // SparCML under a host access link that never comes back: the NACK
  // budget runs out and the op publishes ok == false instead of hanging.
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  net.sim().schedule_at(1 * kPsPerUs, [&net] {
    net.set_duplex_up(0, false);  // h0's access link, down forever
  });

  CollectiveOptions desc = sparse_fault_desc();
  desc.algorithm = Algorithm::kSparcml;
  Communicator comm(net, topo.hosts);
  const auto res = comm.run(desc);
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.in_network);
}

/// Seeded sparse chaos runs, mirroring the dense sweep: every schedule
/// completes bit-for-bit and replays identically.
ChaosOutcome run_sparse_chaos(u64 seed) {
  Rng meta(seed * 6151 + 5);
  net::Network net;
  std::vector<net::Host*> hosts;
  if (meta.bernoulli(0.5)) {
    net::FatTreeSpec spec;
    spec.hosts = 16;
    spec.radix = 4;
    hosts = net::build_fat_tree(net, spec).hosts;
  } else {
    hosts = net::build_single_switch(net, 8).hosts;
  }

  net::FaultPlanSpec fspec;
  fspec.link_flaps = 1 + static_cast<u32>(meta.uniform_u64(2));
  fspec.switch_failures = static_cast<u32>(meta.uniform_u64(2));
  fspec.drop_bursts = static_cast<u32>(meta.uniform_u64(4));
  fspec.corrupt_bursts = static_cast<u32>(meta.uniform_u64(3));
  fspec.horizon_ps = 30 * kPsPerUs;
  const net::FaultPlan plan = net::FaultPlan::random(net, seed, fspec);
  SCOPED_TRACE("sparse seed " + std::to_string(seed) + " fault schedule:\n" +
               plan.summary(net));
  net::FaultInjector injector(net);
  injector.arm(plan);

  CollectiveOptions desc = sparse_fault_desc(
      1024 << meta.uniform_u64(2), 4 + static_cast<u32>(meta.uniform_u64(5)));
  desc.seed = seed;
  desc.retransmit_timeout_ps = 5 * kPsPerUs;
  desc.max_retransmits = 3;

  ChaosOutcome out;
  {
    Communicator comm(net, hosts);
    coll::PersistentCollective pc = comm.persistent(desc);
    EXPECT_TRUE(pc.ok());
    const u32 iters = 1 + static_cast<u32>(meta.uniform_u64(3));
    for (u32 i = 0; i < iters; ++i) {
      const coll::CollectiveResult res = pc.run();
      EXPECT_TRUE(res.ok) << "iteration " << i;
      EXPECT_EQ(res.max_abs_err, 0.0)
          << "iteration " << i << " not bit-for-bit";
      out.completion_s.push_back(res.completion_seconds);
      out.retransmits.push_back(res.retransmits);
      out.recoveries.push_back(res.recoveries);
      out.fell_back.push_back(res.fell_back);
    }
    pc.release();
  }
  out.traffic = net.total_traffic_bytes();
  out.link_drops = net.link_dropped_packets();
  out.stale_drops = net.stale_reduce_dropped_packets();
  expect_no_leaked_occupancy(net);
  expect_no_leaked_hash_store(net);
  return out;
}

class SparseChaosSweep : public ::testing::TestWithParam<u64> {};

TEST_P(SparseChaosSweep, CompletesBitForBitAndDeterministically) {
  const u64 seed = GetParam();
  const ChaosOutcome first = run_sparse_chaos(seed);
  const ChaosOutcome replay = run_sparse_chaos(seed);
  EXPECT_TRUE(first == replay) << "sparse seed " << seed
                               << " not deterministic";
}

INSTANTIATE_TEST_SUITE_P(SparseSchedules, SparseChaosSweep,
                         ::testing::Range<u64>(1, 13));

// ---------------------------------------------- host data-plane replay -----
// The ring and SparCML planes share one NACK/replay chassis.  These runs
// replay fixed fault schedules through both planes — alone, as 3-iteration
// persistent sessions, and as the fallback of a tree that lost its only
// switch — and pin every outcome bit for bit.  A change to framing,
// replay order, flow ids or give-up accounting moves these numbers.

struct HostPlaneRun {
  u64 completion_bits = 0;  ///< bit pattern of completion_seconds
  u64 traffic = 0;
  u64 retransmits = 0;
  u64 dense_switchovers = 0;
  u64 pairs_exchanged = 0;
  bool operator==(const HostPlaneRun&) const = default;
};

std::ostream& operator<<(std::ostream& os, const HostPlaneRun& r) {
  return os << "{0x" << std::hex << r.completion_bits << std::dec << "ull, "
            << r.traffic << ", " << r.retransmits << ", "
            << r.dense_switchovers << ", " << r.pairs_exchanged << "}";
}

struct HostPlanePin {
  std::vector<HostPlaneRun> runs;
  u64 net_packets = 0;  ///< the fabric's final Network::total_packets()
};

enum class HostPlaneCase {
  kRing,
  kSparcml,
  kRingPersistent,
  kSparcmlPersistent,
  kDenseFallback,
  kSparseFallback,
};

HostPlaneRun host_plane_run(const coll::CollectiveResult& res) {
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.max_abs_err, 0.0);
  EXPECT_FALSE(res.in_network);
  return {std::bit_cast<u64>(res.completion_seconds), res.total_traffic_bytes,
          res.retransmits, res.dense_switchovers, res.pairs_exchanged};
}

HostPlanePin run_host_plane(HostPlaneCase c) {
  const bool fallback = c == HostPlaneCase::kDenseFallback ||
                        c == HostPlaneCase::kSparseFallback;
  const bool sparse = c == HostPlaneCase::kSparcml ||
                      c == HostPlaneCase::kSparcmlPersistent ||
                      c == HostPlaneCase::kSparseFallback;
  net::Network net;
  // The fallback runs reuse the TotalSwitchLoss* setups (the only switch
  // down from 2 us to 40 us); the rest HostRingSurvivesLinkFlap's flap.
  auto topo =
      net::build_single_switch(net, fallback ? (sparse ? 4 : 6) : 8);
  net::FaultPlan plan;
  if (fallback) {
    net::Switch* sw = topo.leaves[0];
    net.sim().schedule_at(2 * kPsPerUs, [sw] { sw->fail(); });
    net.sim().schedule_at(40 * kPsPerUs, [sw] { sw->restart(); });
  } else {
    plan.events.push_back({1 * kPsPerUs, net::FaultKind::kLinkDown, 2, 1});
    plan.events.push_back({9 * kPsPerUs, net::FaultKind::kLinkUp, 2, 1});
  }
  net::FaultInjector injector(net);
  injector.arm(plan);

  CollectiveOptions desc = sparse ? sparse_fault_desc() : fault_tolerant_desc();
  if (!fallback) {
    desc.algorithm = sparse ? Algorithm::kSparcml : Algorithm::kHostRing;
  }

  HostPlanePin pin;
  {
    Communicator comm(net, topo.hosts);
    if (c == HostPlaneCase::kRingPersistent ||
        c == HostPlaneCase::kSparcmlPersistent) {
      coll::PersistentCollective pc = comm.persistent(desc);
      EXPECT_TRUE(pc.ok());
      for (u32 i = 0; i < 3; ++i) pin.runs.push_back(host_plane_run(pc.run()));
      pc.release();
    } else {
      const coll::CollectiveResult res = comm.run(desc);
      EXPECT_EQ(res.fell_back, fallback);
      pin.runs.push_back(host_plane_run(res));
    }
  }
  pin.net_packets = net.total_packets();
  return pin;
}

struct HostPlaneExpect {
  const char* name;
  HostPlaneCase c;
  std::vector<HostPlaneRun> runs;
  u64 net_packets;
};

void PrintTo(const HostPlaneExpect& e, std::ostream* os) { *os << e.name; }

class HostPlaneReplay : public ::testing::TestWithParam<HostPlaneExpect> {};

TEST_P(HostPlaneReplay, MatchesPinnedOutcome) {
  const HostPlaneExpect& want = GetParam();
  const HostPlanePin got = run_host_plane(want.c);
  ASSERT_EQ(got.runs.size(), want.runs.size());
  for (std::size_t i = 0; i < got.runs.size(); ++i) {
    EXPECT_EQ(got.runs[i], want.runs[i]) << "iteration " << i;
  }
  EXPECT_EQ(got.net_packets, want.net_packets);
}

INSTANTIATE_TEST_SUITE_P(
    HostPlanes, HostPlaneReplay,
    ::testing::Values(
        HostPlaneExpect{"Ring",
                        HostPlaneCase::kRing,
                        {{0x3f076b0051fe0544ull, 1186880, 33, 0, 0}},
                        369},
        HostPlaneExpect{"Sparcml",
                        HostPlaneCase::kSparcml,
                        {{0x3f000db9b0f71275ull, 628384, 6, 0, 31842}},
                        201},
        HostPlaneExpect{"RingPersistent",
                        HostPlaneCase::kRingPersistent,
                        {{0x3f076b0051fe0544ull, 1186880, 33, 0, 0},
                         {0x3ef8737c3f0ee04dull, 931840, 0, 0, 0},
                         {0x3ef8737c3f0ee04dull, 931840, 0, 0, 0}},
                        817},
        HostPlaneExpect{"SparcmlPersistent",
                        HostPlaneCase::kSparcmlPersistent,
                        {{0x3f000db9b0f71275ull, 628384, 6, 0, 31842},
                         {0x3edc0a17cb13b54dull, 527168, 0, 0, 32372},
                         {0x3edbc1401378d32full, 519984, 0, 0, 31923}},
                        489},
        HostPlaneExpect{"DenseFallback",
                        HostPlaneCase::kDenseFallback,
                        {{0x3f1183aaabcffbfbull, 706560, 6, 0, 0}},
                        576},
        HostPlaneExpect{"SparseFallback",
                        HostPlaneCase::kSparseFallback,
                        {{0x3f0bca66092c2030ull, 160400, 4, 0, 8110}},
                        172}),
    [](const ::testing::TestParamInfo<HostPlaneExpect>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------- tree data-plane replay -----
// The dense and sparse in-network ops share one block chassis (windowed
// sending, completion, restart, timeout scan, finalize).  These runs replay
// fixed faults through every dense kind and the sparse engine — single
// drops on an uplink and a downlink, and 3-iteration persistent sessions
// whose tree spine crashes mid-iteration — and pin every outcome bit for
// bit.  A change to block order, window accounting, restart replay or the
// result's common half moves these numbers.

struct TreePlaneRun {
  u64 completion_bits = 0;  ///< bit pattern of completion_seconds
  u64 traffic = 0;
  u64 retransmits = 0;
  u32 recoveries = 0;
  u64 spill_packets = 0;
  u64 switch_working_mem_hwm = 0;
  bool operator==(const TreePlaneRun&) const = default;
};

std::ostream& operator<<(std::ostream& os, const TreePlaneRun& r) {
  return os << "{0x" << std::hex << r.completion_bits << std::dec << "ull, "
            << r.traffic << ", " << r.retransmits << ", " << r.recoveries
            << ", " << r.spill_packets << ", " << r.switch_working_mem_hwm
            << "}";
}

struct TreePlanePin {
  std::vector<TreePlaneRun> runs;
  u64 net_packets = 0;  ///< the fabric's final Network::total_packets()
};

enum class TreeFault { kUplinkDrop, kDownlinkDrop, kSpineCrash };

struct TreePlaneCase {
  bool sparse = false;
  CollectiveKind kind = CollectiveKind::kAllreduce;
  TreeFault fault = TreeFault::kUplinkDrop;
};

/// Drains the calendar for at most 5 ms of simulated time after `h`
/// started: a stuck or livelocked op fails its pin instead of hanging.
TreePlaneRun tree_plane_run(net::Network& net,
                            const coll::CollectiveHandle& h) {
  net.sim().run_until(net.sim().now() + 5 * kPsPerMs);
  EXPECT_TRUE(h.done()) << "op still running after 5 ms";
  if (!h.done()) return {};
  const coll::CollectiveResult& res = h.result();
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.max_abs_err, 0.0);
  EXPECT_TRUE(res.in_network);
  return {std::bit_cast<u64>(res.completion_seconds),
          res.total_traffic_bytes,
          res.retransmits,
          res.recoveries,
          res.spill_packets,
          res.switch_working_mem_hwm};
}

TreePlanePin run_tree_plane(const TreePlaneCase& c) {
  net::Network net;
  std::vector<net::Host*> hosts;
  std::vector<net::Switch*> spines;
  CollectiveOptions desc;
  switch (c.fault) {
    case TreeFault::kUplinkDrop:
      // SingleDropHeals*: host 0's first contribution is lost.
      hosts = net::build_single_switch(net, 8).hosts;
      net.link(0).drop_next(1);
      desc = c.sparse ? sparse_fault_desc() : fault_tolerant_desc();
      break;
    case TreeFault::kDownlinkDrop:
      // LostDownMulticast*: two results toward host 0 are lost.
      hosts = net::build_single_switch(net, 4).hosts;
      net.link(1).drop_next(2);
      desc = c.sparse ? sparse_fault_desc(1024, 4)
                      : fault_tolerant_desc(8_KiB);
      break;
    case TreeFault::kSpineCrash: {
      // SpineCrashRecovers*: two spines; the tree's one dies at 2 us.
      net::FatTreeSpec spec;
      spec.hosts = 8;
      spec.radix = 4;
      auto topo = net::build_fat_tree(net, spec);
      hosts = topo.hosts;
      spines = topo.spines;
      desc = c.sparse ? sparse_fault_desc() : fault_tolerant_desc(64_KiB);
      break;
    }
  }
  desc.kind = c.kind;
  desc.root = 1;  // reduce/broadcast: a root other than the dropped host

  TreePlanePin pin;
  {
    Communicator comm(net, hosts);
    if (c.fault == TreeFault::kSpineCrash) {
      coll::PersistentCollective pc = comm.persistent(desc);
      EXPECT_TRUE(pc.ok());
      net::Switch* spine = nullptr;
      for (const coll::TreeSwitchEntry& e : pc.tree().switches) {
        for (net::Switch* sp : spines) {
          if (e.sw == sp) spine = sp;
        }
      }
      EXPECT_NE(spine, nullptr);
      if (spine != nullptr) {
        net.sim().schedule_at(2 * kPsPerUs, [spine] { spine->fail(); });
      }
      // A stuck iteration ends the session: the next start() would
      // assert that it is still running.
      for (u32 i = 0; i < 3 && !::testing::Test::HasFailure(); ++i) {
        pin.runs.push_back(tree_plane_run(net, pc.start()));
      }
      pc.release();
    } else {
      pin.runs.push_back(tree_plane_run(net, comm.start(desc)));
    }
  }
  pin.net_packets = net.total_packets();
  expect_no_leaked_occupancy(net);
  expect_no_leaked_hash_store(net);
  return pin;
}

struct TreePlaneExpect {
  const char* name;
  TreePlaneCase c;
  std::vector<TreePlaneRun> runs;
  u64 net_packets;
};

void PrintTo(const TreePlaneExpect& e, std::ostream* os) { *os << e.name; }

class TreePlaneReplay : public ::testing::TestWithParam<TreePlaneExpect> {};

TEST_P(TreePlaneReplay, MatchesPinnedOutcome) {
  const TreePlaneExpect& want = GetParam();
  const TreePlanePin got = run_tree_plane(want.c);
  ASSERT_EQ(got.runs.size(), want.runs.size());
  for (std::size_t i = 0; i < got.runs.size(); ++i) {
    EXPECT_EQ(got.runs[i], want.runs[i]) << "iteration " << i;
  }
  EXPECT_EQ(got.net_packets, want.net_packets);
}

constexpr CollectiveKind kAllreduce = CollectiveKind::kAllreduce;

INSTANTIATE_TEST_SUITE_P(
    TreePlanes, TreePlaneReplay,
    ::testing::Values(
        TreePlaneExpect{"AllreduceUplinkDrop",
                        {false, kAllreduce, TreeFault::kUplinkDrop},
                        {{0x3ed185c714c37436ull, 1078208, 96, 0, 0, 8192}},
                        991},
        TreePlaneExpect{"AllreduceDownlinkDrop",
                        {false, kAllreduce, TreeFault::kDownlinkDrop},
                        {{0x3ed1e33c7441b821ull, 78336, 2, 0, 0, 3072}},
                        72},
        TreePlaneExpect{"ReduceUplinkDrop",
                        {false, CollectiveKind::kReduce,
                         TreeFault::kUplinkDrop},
                        {{0x3ed185c714c37436ull, 1078208, 96, 0, 0, 8192}},
                        991},
        TreePlaneExpect{"ReduceDownlinkDrop",
                        {false, CollectiveKind::kReduce,
                         TreeFault::kDownlinkDrop},
                        {{0x3ebe29c45f8767c0ull, 78336, 2, 0, 0, 3072}},
                        72},
        TreePlaneExpect{"BroadcastUplinkDrop",
                        {false, CollectiveKind::kBroadcast,
                         TreeFault::kUplinkDrop},
                        {{0x3ed185c714c37436ull, 1078208, 96, 0, 0, 8192}},
                        991},
        TreePlaneExpect{"BroadcastDownlinkDrop",
                        {false, CollectiveKind::kBroadcast,
                         TreeFault::kDownlinkDrop},
                        {{0x3ed1e33c7441b821ull, 78336, 2, 0, 0, 3072}},
                        72},
        TreePlaneExpect{"BarrierUplinkDrop",
                        {false, CollectiveKind::kBarrier,
                         TreeFault::kUplinkDrop},
                        {{0x3ed0d230ed318c2cull, 1472, 8, 0, 0, 0}},
                        23},
        TreePlaneExpect{"BarrierDownlinkDrop",
                        {false, CollectiveKind::kBarrier,
                         TreeFault::kDownlinkDrop},
                        {{0x3ee4fe522f213840ull, 1024, 2, 0, 0, 0}},
                        16},
        TreePlaneExpect{"SparseUplinkDrop",
                        {true, kAllreduce, TreeFault::kUplinkDrop},
                        {{0x3ed241b1bd0cff34ull, 521368, 16, 0, 0, 15840}},
                        583},
        TreePlaneExpect{"DensePersistentSpineCrash",
                        {false, kAllreduce, TreeFault::kSpineCrash},
                        {{0x3eec26f3f62ed897ull, 3529472, 648, 1, 0, 3072},
                         {0x3ee0784806665b28ull, 2611200, 448, 0, 0, 3072},
                         {0x3ee0784806665b28ull, 2611200, 448, 0, 0, 3072}},
                        26868},
        TreePlaneExpect{"SparsePersistentSpineCrash",
                        {true, kAllreduce, TreeFault::kSpineCrash},
                        {{0x3edb44d339658bd2ull, 685456, 16, 1, 18, 10560},
                         {0x3ed3207a3b32f093ull, 782472, 48, 0, 20, 10560},
                         {0x3ed301a3bcddbf57ull, 762144, 48, 0, 15, 10560}},
                        7657}),
    [](const ::testing::TestParamInfo<TreePlaneExpect>& info) {
      return std::string(info.param.name);
    });

// --------------------------------------- tree reliability regressions -----

/// Starts `desc` on a healthy 16-host radix-4 fat tree and drains the
/// calendar up to `bound` of simulated time: a livelocked op is still
/// running there instead of hanging the test.
coll::CollectiveResult run_bounded(const CollectiveOptions& desc,
                                   SimTime bound, bool* done) {
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  Communicator comm(net, topo.hosts);
  coll::CollectiveHandle h = comm.start(desc);
  net.sim().run_until(bound);
  *done = h.done();
  return *done ? h.result() : coll::CollectiveResult{};
}

TEST(ChaosTreeReliability, DenseTimeoutShorterThanIterationTerminates) {
  // No fault at all, but the retransmit timeout (4 us) is shorter than one
  // iteration (~27 us): blocks exhaust their retries, each escalation
  // reinstalls a healthy tree, and the restarted iteration must be given
  // a growing wait instead of the same too-short one forever.
  CollectiveOptions desc = fault_tolerant_desc(256_KiB);
  desc.retransmit_timeout_ps = 4 * kPsPerUs;
  bool done = false;
  const coll::CollectiveResult res =
      run_bounded(desc, 2 * kPsPerMs, &done);
  ASSERT_TRUE(done) << "op still running after 2 ms of simulated time";
  EXPECT_TRUE(res.ok);
  EXPECT_TRUE(res.in_network);
  EXPECT_EQ(res.max_abs_err, 0.0);
}

TEST(ChaosTreeReliability, SparseTimeoutShorterThanIterationTerminates) {
  // The sparse engine under the same too-short timeout (3 us against a
  // ~12 us iteration), with small hash stores so spills lengthen it.
  CollectiveOptions desc = sparse_fault_desc(2048, 4);
  desc.sparse.epoch_pairs = [](u64 epoch, u32 h, u32 b) {
    workload::SparseSpec spec{2048, 0.2, 0.5, core::DType::kInt32, epoch};
    return workload::sparse_block_pairs(spec, h, b);
  };
  desc.hash_capacity_pairs = 32;
  bool done = false;
  const coll::CollectiveResult res =
      run_bounded(desc, 2 * kPsPerMs, &done);
  ASSERT_TRUE(done) << "op still running after 2 ms of simulated time";
  EXPECT_TRUE(res.ok);
  EXPECT_TRUE(res.in_network);
  EXPECT_EQ(res.max_abs_err, 0.0);
}

TEST(ChaosTreeReliability, SilentBlackholeGivesUpInsteadOfRestarting) {
  // Host 0's uplink silently drops everything while the tree looks alive:
  // each escalation reinstalls the same healthy-looking tree and no block
  // ever completes.  The stall budget must declare the tree dead; a
  // broadcast has no host fallback, so the op publishes ok == false.
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  net.link(0).drop_next(1u << 30);
  CollectiveOptions desc = fault_tolerant_desc(8_KiB);
  desc.kind = CollectiveKind::kBroadcast;
  Communicator comm(net, topo.hosts);
  coll::CollectiveHandle h = comm.start(desc);
  net.sim().run_until(100 * kPsPerMs);
  ASSERT_TRUE(h.done()) << "op still running after 100 ms of simulated time";
  EXPECT_FALSE(h.result().ok);
  expect_no_leaked_occupancy(net);
}

/// Spill packets counted so far by the engines installed on `tree` (every
/// collective id a small test fabric hands out is probed).
u64 installed_spills(const coll::ReductionTree& tree) {
  u64 spills = 0;
  for (const coll::TreeSwitchEntry& e : tree.switches) {
    for (u32 id = 0; id < 256; ++id) {
      if (const core::EngineStats* st = e.sw->engine_stats(id)) {
        spills += st->spill_packets;
      }
    }
  }
  return spills;
}

TEST(ChaosTreeReliability, SparseSpillsAcrossMidIterationReinstall) {
  // Iteration 1 runs sparse (few spills) on the persistent tree; in
  // iteration 2 the gradients densify and the tree's spine crashes 1 us
  // in.  The reinstalled tree's engines are fresh, so iteration 2 must
  // report their whole spill count, not that count minus iteration 1's.
  // Iteration 3 (same density, same tree) reports the persistent delta.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);

  f64 density = 0.03;
  CollectiveOptions desc = sparse_fault_desc(2048, 4);
  desc.sparse.epoch_pairs = [&density](u64 epoch, u32 h, u32 b) {
    workload::SparseSpec s{2048, density, 0.5, core::DType::kInt32, 7};
    (void)epoch;  // same draw every iteration: only the density moves
    return workload::sparse_block_pairs(s, h, b);
  };
  desc.hash_capacity_pairs = 32;
  desc.retransmit_timeout_ps = 20 * kPsPerUs;

  Communicator comm(net, topo.hosts);
  coll::PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok());
  const coll::CollectiveResult first = pc.run();
  ASSERT_TRUE(first.ok);
  EXPECT_GT(first.spill_packets, 0u);

  net::Switch* tree_spine = nullptr;
  for (const coll::TreeSwitchEntry& e : pc.tree().switches) {
    for (net::Switch* sp : topo.spines) {
      if (e.sw == sp) tree_spine = sp;
    }
  }
  ASSERT_NE(tree_spine, nullptr);
  density = 0.2;
  const SimTime crash = net.sim().now() + 1 * kPsPerUs;
  net.sim().schedule_at(crash, [tree_spine] { tree_spine->fail(); });
  const coll::CollectiveResult crashed = pc.run();
  ASSERT_TRUE(crashed.ok);
  EXPECT_EQ(crashed.recoveries, 1u);
  EXPECT_FALSE(crashed.fell_back);
  const u64 fresh = installed_spills(pc.tree());
  EXPECT_GT(fresh, first.spill_packets);
  EXPECT_EQ(crashed.spill_packets, fresh);

  const coll::CollectiveResult steady = pc.run();
  ASSERT_TRUE(steady.ok);
  EXPECT_EQ(steady.recoveries, 0u);
  EXPECT_EQ(steady.spill_packets, installed_spills(pc.tree()) - fresh);
  pc.release();
  expect_no_leaked_occupancy(net);
  expect_no_leaked_hash_store(net);
}

// ------------------------------------------------------ service chaos -----

TEST(ChaosService, JobsSurviveMidRunFaults) {
  // A loaded service with a fault schedule across the run: every job must
  // finish bit-for-bit, and the fault telemetry must show the service saw
  // and survived the disruptions.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);

  service::ServiceOptions opt;
  opt.retransmit_timeout_ps = 4 * kPsPerUs;
  opt.max_retransmits = 2;
  opt.queue_timeout_ps = 0;  // queued jobs wait for slots
  service::AllreduceService svc(net, opt);

  auto slice = [&](u32 lo, u32 n) {
    return std::vector<net::Host*>(topo.hosts.begin() + lo,
                                   topo.hosts.begin() + lo + n);
  };
  u32 jobs = 0;
  for (u32 j = 0; j < 6; ++j) {
    service::JobSpec s;
    s.participants = slice((j * 4) % 12, 4 + (j % 2) * 4);
    s.desc.data_bytes = 16_KiB << (j % 3);
    s.desc.dtype = core::DType::kInt32;
    s.desc.seed = 100 + j;
    svc.submit_at(j * 2 * kPsPerUs, std::move(s));
    jobs += 1;
  }

  net::FaultPlanSpec fspec;
  fspec.link_flaps = 2;
  fspec.switch_failures = 1;
  fspec.drop_bursts = 4;
  fspec.corrupt_bursts = 2;
  fspec.horizon_ps = 25 * kPsPerUs;
  const net::FaultPlan plan = net::FaultPlan::random(net, 4242, fspec);
  net::FaultInjector injector(net);
  injector.arm(plan);

  net.sim().run();

  ASSERT_EQ(svc.records().size(), jobs);
  for (const service::JobRecord& rec : svc.records()) {
    EXPECT_EQ(rec.state, service::JobState::kDone) << rec.job_id;
    EXPECT_TRUE(rec.ok) << rec.job_id;
    EXPECT_TRUE(rec.exact) << rec.job_id;
  }
  const service::ServiceTelemetry& t = svc.telemetry();
  EXPECT_EQ(t.submitted, jobs);
  EXPECT_GT(t.faults_seen, 0u);
  EXPECT_EQ(svc.active_jobs(), 0u);
  expect_no_leaked_occupancy(net);
}

}  // namespace
}  // namespace flare
