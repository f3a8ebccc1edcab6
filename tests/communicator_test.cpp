// The Communicator session API: persistent collectives (install-once /
// run-many with per-iteration engine reset), the unified descriptor across
// allreduce / reduce / broadcast / barrier, and nonblocking handles
// composing on one event calendar.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coll/communicator.hpp"
#include "service/telemetry.hpp"
#include "workload/generators.hpp"

namespace flare::coll {
namespace {

CollectiveOptions int_allreduce(u64 data_bytes) {
  CollectiveOptions desc;
  desc.kind = CollectiveKind::kAllreduce;
  desc.algorithm = Algorithm::kFlareDense;
  desc.data_bytes = data_bytes;
  desc.dtype = core::DType::kInt32;  // integer sum: bit-for-bit checkable
  return desc;
}

/// Integer sparse workload with fresh per-iteration gradients: iteration i
/// (epoch seed + i) redraws every (host, block) pair list.
CollectiveOptions int_sparse_allreduce(u32 span = 1280, u32 blocks = 8,
                                       f64 density = 0.08,
                                       f64 overlap = 0.5) {
  CollectiveOptions desc;
  desc.kind = CollectiveKind::kAllreduce;
  desc.algorithm = Algorithm::kFlareSparse;
  desc.dtype = core::DType::kInt32;
  desc.sparse.block_span = span;
  desc.sparse.num_blocks = blocks;
  desc.sparse.epoch_pairs = [span, density, overlap](u64 epoch, u32 h,
                                                     u32 b) {
    workload::SparseSpec spec{span, density, overlap, core::DType::kInt32,
                              epoch};
    return workload::sparse_block_pairs(spec, h, b);
  };
  return desc;
}

// ------------------------------------------------------- persistent -------

TEST(Persistent, TenIterationsInstallOnceBitForBit) {
  // The acceptance scenario: a 10-iteration persistent allreduce performs
  // tree install exactly once, every iteration is bit-for-bit against the
  // reference reduction, and the per-iteration completion time is no worse
  // than the single-shot path.
  const CollectiveOptions desc = int_allreduce(64_KiB);

  // Single-shot baseline on an identical fabric.
  net::Network solo_net;
  auto solo_topo = net::build_single_switch(solo_net, 8);
  Communicator solo_comm(solo_net, solo_topo.hosts);
  const CollectiveResult solo = solo_comm.run(desc);
  ASSERT_TRUE(solo.ok);

  net::Network net;
  auto topo = net::build_single_switch(net, 8);
  Communicator comm(net, topo.hosts);
  PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok());
  EXPECT_EQ(pc.install_report().attempts, 1u);

  for (u32 it = 0; it < 10; ++it) {
    const CollectiveResult res = pc.run();
    ASSERT_TRUE(res.ok) << "iteration " << it;
    EXPECT_EQ(res.max_abs_err, 0.0) << "iteration " << it;
    EXPECT_TRUE(res.in_network);
    // The per-iteration data plane is identical to the single-shot path —
    // install amortization must not cost completion time.
    EXPECT_LE(res.completion_seconds, solo.completion_seconds + 1e-12)
        << "iteration " << it;
    // Zero re-install attempts after the first: the one-time report never
    // grows and the switch keeps exactly the one installed reduction.
    EXPECT_EQ(pc.install_report().attempts, 1u);
    EXPECT_EQ(topo.leaves[0]->installed_reduces(), 1u);
    EXPECT_EQ(topo.leaves[0]->occupancy().high_water(), 1u);
  }
  EXPECT_EQ(pc.iterations(), 10u);

  pc.release();
  EXPECT_EQ(topo.leaves[0]->installed_reduces(), 0u);
}

TEST(Persistent, IterationsUseFreshData) {
  // Iteration i rotates the inputs drawn from the seed: distinct data in
  // every iteration, all exact.
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  Communicator comm(net, topo.hosts);
  CollectiveOptions desc = int_allreduce(16_KiB);
  desc.seed = 11;
  PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok());
  f64 prev_traffic = -1.0;
  for (u32 it = 0; it < 3; ++it) {
    const CollectiveResult res = pc.run();
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.max_abs_err, 0.0);
    // Traffic per iteration is workload-shaped, not cumulative.
    if (prev_traffic >= 0.0) {
      EXPECT_DOUBLE_EQ(static_cast<f64>(res.total_traffic_bytes),
                       prev_traffic);
    }
    prev_traffic = static_cast<f64>(res.total_traffic_bytes);
  }
}

TEST(Persistent, FatTreeMultiSwitchEngineReuse) {
  // Reuse across a multi-switch tree: every tree switch's engine resets
  // between iterations (the multi-level reduce would otherwise drop every
  // block of iteration 2 as a duplicate).
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  Communicator comm(net, topo.hosts);
  PersistentCollective pc = comm.persistent(int_allreduce(32_KiB));
  ASSERT_TRUE(pc.ok());
  ASSERT_GE(pc.tree().switches.size(), 5u);
  for (u32 it = 0; it < 3; ++it) {
    const CollectiveResult res = pc.run();
    ASSERT_TRUE(res.ok) << "iteration " << it;
    EXPECT_EQ(res.max_abs_err, 0.0);
  }
}

TEST(Persistent, ReleaseFreesSlotsForOtherTenants) {
  net::Network net;
  auto topo = net::build_single_switch(net, 4, net::LinkSpec{},
                                       /*max_allreduces=*/1);
  Communicator comm(net, topo.hosts);
  PersistentCollective pc = comm.persistent(int_allreduce(8_KiB));
  ASSERT_TRUE(pc.ok());
  ASSERT_TRUE(pc.run().ok);

  // The slot is held between iterations (that is the amortization)...
  Communicator other(net, topo.hosts);
  PersistentCollective rejected = other.persistent(int_allreduce(8_KiB));
  EXPECT_FALSE(rejected.ok());

  // ...and released exactly once, whether via release() or destruction.
  pc.release();
  pc.release();  // idempotent
  PersistentCollective admitted = other.persistent(int_allreduce(8_KiB));
  EXPECT_TRUE(admitted.ok());
  EXPECT_TRUE(admitted.run().ok);
}

TEST(Persistent, MoveTransfersOwnershipOfTheInstall) {
  net::Network net;
  auto topo = net::build_single_switch(net, 4, net::LinkSpec{},
                                       /*max_allreduces=*/1);
  Communicator comm(net, topo.hosts);
  std::vector<PersistentCollective> slots;
  {
    PersistentCollective pc = comm.persistent(int_allreduce(8_KiB));
    ASSERT_TRUE(pc.ok());
    slots.push_back(std::move(pc));
    // The moved-from object must not release on destruction...
  }
  EXPECT_EQ(topo.leaves[0]->installed_reduces(), 1u);
  ASSERT_TRUE(slots[0].run().ok);
  slots.clear();  // ...the moved-to object does.
  EXPECT_EQ(topo.leaves[0]->installed_reduces(), 0u);
}

TEST(Persistent, AutoFallsBackToPersistentRing) {
  // Zero switch slots: a kAuto persistent allreduce degrades to a
  // persistent host ring (no install) and still iterates correctly.
  net::Network net;
  auto topo = net::build_single_switch(net, 4, net::LinkSpec{},
                                       /*max_allreduces=*/0);
  Communicator comm(net, topo.hosts);
  CollectiveOptions desc = int_allreduce(16_KiB);
  desc.algorithm = Algorithm::kAuto;
  PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok());
  for (u32 it = 0; it < 3; ++it) {
    const CollectiveResult res = pc.run();
    ASSERT_TRUE(res.ok);
    EXPECT_FALSE(res.in_network);
    EXPECT_EQ(res.max_abs_err, 0.0);
  }
}

TEST(Persistent, SingleHostRingIterationsAfterTimeZero) {
  // A one-participant ring completes instantly; later iterations start at
  // t > 0 and must report ~zero completion time, not an underflowed one.
  net::Network net;
  auto topo = net::build_single_switch(net, 1);
  Communicator comm(net, topo.hosts);
  CollectiveOptions desc = int_allreduce(8_KiB);
  desc.algorithm = Algorithm::kHostRing;
  PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok());
  EXPECT_FALSE(pc.in_network());
  for (u32 it = 0; it < 3; ++it) {
    const CollectiveResult res = pc.run();
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.completion_seconds, 0.0);
    EXPECT_EQ(res.mean_host_seconds, 0.0);
  }
}

// ------------------------------------------------- persistent sparse ------

TEST(PersistentSparse, TenIterationsInstallOnceBitForBit) {
  // The sparse acceptance scenario: a 10-iteration persistent sparse
  // allreduce installs its tree EXACTLY once on the healthy path (no
  // per-iteration reinstall), every iteration is bit-for-bit (int32 sum),
  // per-iteration engine reset returns every hash/array store to the pool,
  // and release leaves zero switch occupancy.
  const CollectiveOptions desc = int_sparse_allreduce();

  // Single-shot baseline on an identical fabric (same seed as iteration 0).
  net::Network solo_net;
  auto solo_topo = net::build_single_switch(solo_net, 8);
  Communicator solo_comm(solo_net, solo_topo.hosts);
  const CollectiveResult solo = solo_comm.run(desc);
  ASSERT_TRUE(solo.ok);
  EXPECT_EQ(solo.max_abs_err, 0.0);
  EXPECT_TRUE(solo.in_network);

  net::Network net;
  auto topo = net::build_single_switch(net, 8);
  Communicator comm(net, topo.hosts);
  PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok());
  EXPECT_EQ(pc.install_report().attempts, 1u);
  EXPECT_TRUE(pc.in_network());

  for (u32 it = 0; it < 10; ++it) {
    const CollectiveResult res = pc.run();
    ASSERT_TRUE(res.ok) << "iteration " << it;
    EXPECT_EQ(res.max_abs_err, 0.0) << "iteration " << it;
    EXPECT_TRUE(res.in_network);
    EXPECT_EQ(res.recoveries, 0u) << "healthy path must never reinstall";
    EXPECT_GT(res.host_pairs_sent, 0u);
    EXPECT_GT(res.down_pairs, 0u);
    if (it == 0) {
      // Iteration 0 uses the same epoch as the one-shot: identical data
      // plane, so install amortization must not cost completion time.
      EXPECT_DOUBLE_EQ(res.completion_seconds, solo.completion_seconds);
    }
    // Install-once: the one-time report never grows, the switch keeps
    // exactly the one installed reduction...
    EXPECT_EQ(pc.install_report().attempts, 1u);
    EXPECT_EQ(topo.leaves[0]->installed_reduces(), 1u);
    EXPECT_EQ(topo.leaves[0]->occupancy().high_water(), 1u);
    // ...and the per-iteration reset returned every sparse store: zero
    // hash-store bytes held between iterations.
    EXPECT_EQ(topo.leaves[0]->engine_pool_in_use(), 0u)
        << "leaked hash-store occupancy after iteration " << it;
  }
  EXPECT_EQ(pc.iterations(), 10u);

  pc.release();
  EXPECT_EQ(topo.leaves[0]->installed_reduces(), 0u);
  EXPECT_EQ(topo.leaves[0]->occupancy().current(), 0u);
}

TEST(PersistentSparse, FreshGradientsPerEpochDiffer) {
  // epoch_pairs really is consulted per iteration: pair traffic changes
  // across iterations (distinct epochs draw distinct non-zeros) while
  // every iteration stays exact.
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  Communicator comm(net, topo.hosts);
  CollectiveOptions desc = int_sparse_allreduce();
  desc.seed = 21;
  PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok());
  std::vector<u64> pairs_per_iter;
  for (u32 it = 0; it < 3; ++it) {
    const CollectiveResult res = pc.run();
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.max_abs_err, 0.0);
    pairs_per_iter.push_back(res.host_pairs_sent);
  }
  EXPECT_FALSE(pairs_per_iter[0] == pairs_per_iter[1] &&
               pairs_per_iter[1] == pairs_per_iter[2])
      << "three epochs drew identical sparse patterns — epoch_pairs unused?";
}

TEST(PersistentSparse, MultiSwitchTreeSpillsAndResets) {
  // Fat-tree sparse persistent: leaf switches run tiny hash stores that
  // MUST spill; iterations stay exact and the spill counter is
  // per-iteration (reset path), not cumulative.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  Communicator comm(net, topo.hosts);
  CollectiveOptions desc = int_sparse_allreduce(2048, 4, 0.2, 0.0);
  desc.hash_capacity_pairs = 32;
  desc.spill_capacity_pairs = 8;
  // Deterministic data every iteration isolates the spill-counter check.
  desc.sparse.epoch_pairs = {};
  workload::SparseSpec sspec{2048, 0.2, 0.0, core::DType::kInt32, 43};
  desc.sparse.pairs = [sspec](u32 h, u32 b) {
    return workload::sparse_block_pairs(sspec, h, b);
  };
  PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok());
  ASSERT_GE(pc.tree().switches.size(), 5u);
  u64 first_spills = 0;
  for (u32 it = 0; it < 3; ++it) {
    const CollectiveResult res = pc.run();
    ASSERT_TRUE(res.ok) << "iteration " << it;
    EXPECT_EQ(res.max_abs_err, 0.0);
    EXPECT_GT(res.spill_packets, 0u);
    if (it == 0) {
      first_spills = res.spill_packets;
    } else {
      EXPECT_EQ(res.spill_packets, first_spills)
          << "spill counter must be per-iteration, not cumulative";
    }
    for (net::Switch* sw : net.switches()) {
      EXPECT_EQ(sw->engine_pool_in_use(), 0u) << sw->name();
    }
  }
}

TEST(PersistentSparse, AutoFallsBackToPersistentSparcml) {
  // Zero switch slots: a kAuto persistent SPARSE allreduce degrades to a
  // persistent SparCML host data plane (no install) and still iterates
  // exactly.
  net::Network net;
  auto topo = net::build_single_switch(net, 4, net::LinkSpec{},
                                       /*max_allreduces=*/0);
  Communicator comm(net, topo.hosts);
  CollectiveOptions desc = int_sparse_allreduce();
  desc.algorithm = Algorithm::kAuto;
  PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok());
  EXPECT_FALSE(pc.in_network());
  for (u32 it = 0; it < 3; ++it) {
    const CollectiveResult res = pc.run();
    ASSERT_TRUE(res.ok);
    EXPECT_FALSE(res.in_network);
    EXPECT_EQ(res.max_abs_err, 0.0);
  }
}

TEST(PersistentSparse, NonblockingSparseOverlapsDenseOnOneCalendar) {
  // The former blocking-only gap: a sparse handle composes with a dense
  // handle on ONE calendar, both exact.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  Communicator sparse(net, {topo.hosts.begin(), topo.hosts.begin() + 8});
  Communicator dense(net, {topo.hosts.begin() + 8, topo.hosts.end()});
  PersistentCollective ps = sparse.persistent(int_sparse_allreduce());
  PersistentCollective pd = dense.persistent(int_allreduce(32_KiB));
  ASSERT_TRUE(ps.ok() && pd.ok());
  for (u32 it = 0; it < 3; ++it) {
    CollectiveHandle hs = ps.start();
    CollectiveHandle hd = pd.start();
    EXPECT_FALSE(hs.done());
    net.sim().run();
    ASSERT_TRUE(hs.done() && hd.done()) << "iteration " << it;
    EXPECT_TRUE(hs.result().ok);
    EXPECT_TRUE(hd.result().ok);
    EXPECT_EQ(hs.result().max_abs_err, 0.0);
    EXPECT_EQ(hd.result().max_abs_err, 0.0);
    EXPECT_TRUE(hs.result().in_network);
  }
  EXPECT_EQ(ps.install_report().attempts, 1u);
}

// ------------------------------------------- reduce/broadcast/barrier -----

TEST(PersistentFault, TransparentReinstallAfterSwitchRestart) {
  // Persistent install-once / run-many across a crash: a tree switch fails
  // and restarts BETWEEN iterations (its engines are lost), and the next
  // start() transparently recomputes + reinstalls.  Iteration completion
  // time before and after the recovery must be identical — the reinstalled
  // embedding is the same tree on the same fabric — and releasing at the
  // end must leave zero switch occupancy despite the install id changing.
  CollectiveOptions desc = int_allreduce(32_KiB);
  desc.retransmit_timeout_ps = 4 * kPsPerUs;

  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 8;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  Communicator comm(net, topo.hosts);
  PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok());
  const net::NodeId root_before = pc.tree().root;

  const CollectiveResult before = pc.run();
  ASSERT_TRUE(before.ok);
  EXPECT_EQ(before.max_abs_err, 0.0);
  EXPECT_EQ(before.recoveries, 0u);

  // Crash-stop the tree root while idle; it restarts with empty tables.
  net::Switch* failed = net.switch_at(root_before);
  ASSERT_NE(failed, nullptr);
  failed->fail();
  failed->restart();
  EXPECT_EQ(failed->installed_reduces(), 0u) << "crash must lose the engine";

  const CollectiveResult after = pc.run();
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.max_abs_err, 0.0);
  EXPECT_EQ(after.recoveries, 1u) << "one transparent reinstall";
  EXPECT_TRUE(pc.in_network());
  EXPECT_EQ(pc.tree().root, root_before)
      << "same fabric, same best embedding";
  // Identical embedding + identical data-plane sizes: the iteration time
  // is unchanged by the recovery (event times are value-independent).
  EXPECT_DOUBLE_EQ(after.completion_seconds, before.completion_seconds);

  // One more healthy iteration takes the plain reset path.
  const CollectiveResult steady = pc.run();
  ASSERT_TRUE(steady.ok);
  EXPECT_EQ(steady.recoveries, 0u);
  EXPECT_DOUBLE_EQ(steady.completion_seconds, before.completion_seconds);

  pc.release();
  // No leaked occupancy: the recovery's fresh install id was released too.
  for (net::Switch* sw : net.switches()) {
    EXPECT_EQ(sw->installed_reduces(), 0u) << sw->name();
    EXPECT_EQ(sw->occupancy().current(), 0u) << sw->name();
    EXPECT_GE(sw->occupancy().high_water(), 0u);
  }
}

TEST(PersistentFault, MidIterationSpineCrashStaysInNetwork) {
  // A spine dies mid-iteration on a two-spine fat tree: the op reinstalls
  // around it and finishes in-network, and later iterations run against
  // the recovered tree at steady-state timing.
  CollectiveOptions desc = int_allreduce(64_KiB);
  desc.retransmit_timeout_ps = 3 * kPsPerUs;
  desc.max_retransmits = 2;

  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 8;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  Communicator comm(net, topo.hosts);
  PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok());
  net::Switch* tree_spine = nullptr;
  for (const TreeSwitchEntry& e : pc.tree().switches) {
    for (net::Switch* sp : topo.spines) {
      if (e.sw == sp) tree_spine = sp;
    }
  }
  ASSERT_NE(tree_spine, nullptr);
  net.sim().schedule_at(2 * kPsPerUs, [tree_spine] { tree_spine->fail(); });

  const CollectiveResult faulted = pc.run();
  ASSERT_TRUE(faulted.ok);
  EXPECT_EQ(faulted.max_abs_err, 0.0);
  EXPECT_GE(faulted.recoveries, 1u);
  EXPECT_FALSE(faulted.fell_back);
  EXPECT_TRUE(pc.in_network());

  const CollectiveResult steady = pc.run();
  ASSERT_TRUE(steady.ok);
  EXPECT_EQ(steady.recoveries, 0u);
  EXPECT_LT(steady.completion_seconds, faulted.completion_seconds)
      << "recovered iterations should not pay the fault penalty";

  pc.release();
  for (net::Switch* sw : net.switches()) {
    EXPECT_EQ(sw->installed_reduces(), 0u) << sw->name();
    EXPECT_EQ(sw->occupancy().current(), 0u) << sw->name();
  }
}

/// Iteration 1 of a persistent allreduce on a 6-host single switch.  The
/// switch fails 2 us into it and restarts at 40 us, so no tree survives and
/// the iteration finishes on the host-ring fallback.
CollectiveResult crashed_second_iteration(CollectiveOptions desc) {
  desc.retransmit_timeout_ps = 3 * kPsPerUs;
  desc.max_retransmits = 2;
  net::Network net;
  auto topo = net::build_single_switch(net, 6);
  Communicator comm(net, topo.hosts);
  PersistentCollective pc = comm.persistent(desc);
  EXPECT_TRUE(pc.ok());
  const CollectiveResult first = pc.run();
  EXPECT_TRUE(first.ok);
  EXPECT_FALSE(first.fell_back);
  net::Switch* sw = topo.leaves[0];
  const SimTime now = net.sim().now();
  net.sim().schedule_at(now + 2 * kPsPerUs, [sw] { sw->fail(); });
  net.sim().schedule_at(now + 40 * kPsPerUs, [sw] { sw->restart(); });
  return pc.run();
}

TEST(PersistentFault, MidIterationFallbackReducesThatIterationsRotation) {
  // int32: the ring's result equals the reference it checks, exactly.
  CollectiveOptions desc = int_allreduce(16_KiB);
  desc.seed = 37;
  const CollectiveResult fell = crashed_second_iteration(desc);
  ASSERT_TRUE(fell.ok);
  EXPECT_TRUE(fell.fell_back);
  EXPECT_FALSE(fell.in_network);
  EXPECT_EQ(fell.max_abs_err, 0.0);

  // f32: the ring's worst rounding error pins which inputs it reduced.  The
  // fallback reports what a host-ring request reports for its iteration 1,
  // not its iteration 0: it reduced the in-network op's inputs rotated for
  // iteration 1, against that iteration's rotated reference.
  desc.dtype = core::DType::kFloat32;
  const CollectiveResult fell_f32 = crashed_second_iteration(desc);
  ASSERT_TRUE(fell_f32.ok);
  EXPECT_TRUE(fell_f32.fell_back);
  CollectiveOptions ring = desc;
  ring.algorithm = Algorithm::kHostRing;
  net::Network net;
  auto topo = net::build_single_switch(net, 6);
  Communicator comm(net, topo.hosts);
  PersistentCollective ring_pc = comm.persistent(ring);
  const CollectiveResult ring0 = ring_pc.run();
  const CollectiveResult ring1 = ring_pc.run();
  EXPECT_EQ(ring0.max_abs_err, 5.7220458984375e-06);
  EXPECT_EQ(ring1.max_abs_err, 3.814697265625e-06);
  EXPECT_EQ(fell_f32.max_abs_err, ring1.max_abs_err);
}

TEST(CommunicatorKinds, ReduceDeliversAtDestination) {
  net::Network net;
  auto topo = net::build_single_switch(net, 8);
  Communicator comm(net, topo.hosts);
  CollectiveOptions desc;
  desc.kind = CollectiveKind::kReduce;
  desc.root = 5;
  desc.data_bytes = 32_KiB;
  desc.dtype = core::DType::kInt32;
  const CollectiveResult res = comm.run(desc);
  EXPECT_TRUE(res.ok) << res.max_abs_err;
  EXPECT_EQ(res.max_abs_err, 0.0);
  EXPECT_TRUE(res.in_network);
}

TEST(CommunicatorKinds, PersistentReduceBroadcastBarrier) {
  // The extension collectives ride the same persistent machinery.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  Communicator comm(net, topo.hosts);

  CollectiveOptions reduce;
  reduce.kind = CollectiveKind::kReduce;
  reduce.root = 2;
  reduce.data_bytes = 16_KiB;
  reduce.dtype = core::DType::kInt32;
  PersistentCollective pr = comm.persistent(reduce);
  ASSERT_TRUE(pr.ok());

  CollectiveOptions bcast;
  bcast.kind = CollectiveKind::kBroadcast;
  bcast.root = 7;
  bcast.data_bytes = 16_KiB;
  PersistentCollective pb = comm.persistent(bcast);
  ASSERT_TRUE(pb.ok());

  CollectiveOptions barrier;
  barrier.kind = CollectiveKind::kBarrier;
  PersistentCollective px = comm.persistent(barrier);
  ASSERT_TRUE(px.ok());

  for (u32 it = 0; it < 3; ++it) {
    EXPECT_TRUE(pr.run().ok) << "reduce it " << it;
    EXPECT_TRUE(pb.run().ok) << "broadcast it " << it;
    const CollectiveResult bar = px.run();
    EXPECT_TRUE(bar.ok) << "barrier it " << it;
    EXPECT_GT(bar.completion_seconds, 0.0);
  }
  EXPECT_EQ(pr.install_report().attempts, 1u);
  EXPECT_EQ(pb.install_report().attempts, 1u);
  EXPECT_EQ(px.install_report().attempts, 1u);
}

// ------------------------------------------------------ result checks ---
// Hosts check each delivered block against its slice of the reference as
// it arrives.  These pins hold max_abs_err and ok to the exact values the
// whole-result comparison at the end of the iteration reported, on
// non-exact float reductions where the error is not 0.

/// One collective on a fresh 16-host radix-4 fat tree, `iterations` times
/// as one persistent request; the per-iteration results.
std::vector<CollectiveResult> run_on_fat_tree(const CollectiveOptions& desc,
                                              u32 iterations = 1) {
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  Communicator comm(net, topo.hosts);
  PersistentCollective pc = comm.persistent(desc);
  EXPECT_TRUE(pc.in_network());
  std::vector<CollectiveResult> out;
  for (u32 it = 0; it < iterations; ++it) out.push_back(pc.run());
  return out;
}

CollectiveOptions float_collective(CollectiveKind kind, core::DType dtype,
                                   u64 data_bytes) {
  CollectiveOptions desc;
  desc.kind = kind;
  desc.algorithm = Algorithm::kFlareDense;
  desc.dtype = dtype;
  desc.data_bytes = data_bytes;
  desc.seed = 17;
  return desc;
}

TEST(ResultCheck, FloatAllreduceErrorMultiBuffer) {
  // 384 KiB selects the 4-buffer policy (Section 6.4 thresholds).
  ASSERT_EQ(core::select_policy(384_KiB, false).policy,
            core::AggPolicy::kMultiBuffer);
  const CollectiveResult f32 = run_on_fat_tree(float_collective(
      CollectiveKind::kAllreduce, core::DType::kFloat32, 384_KiB))[0];
  EXPECT_EQ(f32.max_abs_err, 1.1444091796875e-05);
  EXPECT_TRUE(f32.ok);
  const CollectiveResult f16 = run_on_fat_tree(float_collective(
      CollectiveKind::kAllreduce, core::DType::kFloat16, 384_KiB))[0];
  EXPECT_EQ(f16.max_abs_err, 0.125);
  EXPECT_TRUE(f16.ok);
}

TEST(ResultCheck, FloatAllreduceErrorSingleBuffer) {
  const auto single = [](core::DType dtype) {
    CollectiveOptions desc =
        float_collective(CollectiveKind::kAllreduce, dtype, 64_KiB);
    desc.auto_policy = false;
    desc.policy = core::AggPolicy::kSingleBuffer;
    return run_on_fat_tree(desc)[0];
  };
  const CollectiveResult f32 = single(core::DType::kFloat32);
  EXPECT_EQ(f32.max_abs_err, 1.1444091796875e-05);
  EXPECT_TRUE(f32.ok);
  const CollectiveResult f16 = single(core::DType::kFloat16);
  EXPECT_EQ(f16.max_abs_err, 0.09375);
  EXPECT_TRUE(f16.ok);
}

TEST(ResultCheck, ReduceCountsTheRoot) {
  CollectiveOptions desc =
      float_collective(CollectiveKind::kReduce, core::DType::kFloat32, 64_KiB);
  desc.root = 5;
  const CollectiveResult res = run_on_fat_tree(desc)[0];
  EXPECT_EQ(res.max_abs_err, 1.1444091796875e-05);
  EXPECT_TRUE(res.ok);
}

TEST(ResultCheck, BroadcastComparesWithTheRootVector) {
  CollectiveOptions desc = float_collective(CollectiveKind::kBroadcast,
                                            core::DType::kFloat32, 64_KiB);
  desc.root = 7;
  const CollectiveResult res = run_on_fat_tree(desc)[0];
  EXPECT_EQ(res.max_abs_err, 0.0);  // root value + sum identities: exact
  EXPECT_TRUE(res.ok);
}

TEST(ResultCheck, PersistentIterationsReportTheirOwnError) {
  // Iterations rotate the inputs drawn once, so every element reduces the
  // same operands in the same order and the worst error repeats while the
  // tree stays put.  A planned re-embed onto spine 2 changes the combine
  // order and the worst error drops in iteration 1: an error carried over
  // from iteration 0 would show.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  Communicator comm(net, topo.hosts);
  CollectiveOptions desc = float_collective(CollectiveKind::kAllreduce,
                                            core::DType::kFloat32, 16_KiB);
  desc.seed = 1;
  PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.in_network());
  ASSERT_NE(pc.tree().switches.front().sw, topo.spines[2]);
  std::vector<CollectiveResult> res;
  res.push_back(pc.run());
  const std::optional<ReductionTree> spine2 =
      comm.manager().compute_tree(topo.hosts, topo.spines[2]->id());
  ASSERT_TRUE(spine2.has_value());
  ASSERT_TRUE(pc.plan_migration(*spine2));
  res.push_back(pc.run());
  res.push_back(pc.run());
  EXPECT_EQ(res[1].planned_migrations, 1u);
  EXPECT_EQ(res[0].max_abs_err, 1.1444091796875e-05);
  EXPECT_EQ(res[1].max_abs_err, 7.62939453125e-06);
  EXPECT_EQ(res[2].max_abs_err, 7.62939453125e-06);
  for (const CollectiveResult& r : res) EXPECT_TRUE(r.ok);
}

// -------------------------------------------------- nonblocking handles ---

TEST(Handles, TwoOverlappingCollectivesOneCalendar) {
  // Satellite requirement: two overlapping nonblocking handles on one
  // calendar complete correctly — here an in-network allreduce and a host
  // ring SHARING the same hosts.
  net::Network net;
  auto topo = net::build_single_switch(net, 8);
  Communicator inns(net, topo.hosts);
  Communicator ring(net, topo.hosts);

  CollectiveOptions d1 = int_allreduce(64_KiB);
  CollectiveOptions d2 = int_allreduce(32_KiB);
  d2.algorithm = Algorithm::kHostRing;
  d2.seed = 3;

  bool cb1 = false, cb2 = false;
  CollectiveHandle h1 = inns.start(d1, [&](const CollectiveResult& r) {
    cb1 = true;
    EXPECT_TRUE(r.ok);
  });
  CollectiveHandle h2 = ring.start(d2, [&](const CollectiveResult& r) {
    cb2 = true;
    EXPECT_TRUE(r.ok);
  });
  EXPECT_FALSE(h1.done());
  EXPECT_FALSE(h2.done());
  net.sim().run();
  ASSERT_TRUE(h1.done() && h2.done());
  EXPECT_TRUE(cb1 && cb2);
  EXPECT_TRUE(h1.result().ok);
  EXPECT_TRUE(h2.result().ok);
  EXPECT_EQ(h1.result().max_abs_err, 0.0);
  EXPECT_EQ(h2.result().max_abs_err, 0.0);
  EXPECT_TRUE(h1.result().in_network);
  EXPECT_FALSE(h2.result().in_network);
}

TEST(Handles, TwoPersistentRequestsOverlapEachIteration) {
  // Two model shards allreduced concurrently every iteration, each behind
  // its own installed tree; both complete exactly on every iteration.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  Communicator left(net, {topo.hosts.begin(), topo.hosts.begin() + 8});
  Communicator right(net, {topo.hosts.begin() + 8, topo.hosts.end()});
  PersistentCollective pl = left.persistent(int_allreduce(32_KiB));
  PersistentCollective pr = right.persistent(int_allreduce(16_KiB));
  ASSERT_TRUE(pl.ok() && pr.ok());

  for (u32 it = 0; it < 3; ++it) {
    CollectiveHandle hl = pl.start();
    CollectiveHandle hr = pr.start();
    net.sim().run();
    ASSERT_TRUE(hl.done() && hr.done()) << "iteration " << it;
    EXPECT_TRUE(hl.result().ok);
    EXPECT_TRUE(hr.result().ok);
    EXPECT_EQ(hl.result().max_abs_err, 0.0);
    EXPECT_EQ(hr.result().max_abs_err, 0.0);
  }
  EXPECT_EQ(pl.install_report().attempts, 1u);
  EXPECT_EQ(pr.install_report().attempts, 1u);
}

TEST(Handles, CompletionCallbackFiresOnCalendar) {
  // The callback runs at completion time ON the calendar, enabling
  // pipelining: the next iteration is started from inside it.
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  Communicator comm(net, topo.hosts);
  PersistentCollective pc = comm.persistent(int_allreduce(8_KiB));
  ASSERT_TRUE(pc.ok());

  u32 completed = 0;
  std::function<void(const CollectiveResult&)> chain =
      [&](const CollectiveResult& r) {
        EXPECT_TRUE(r.ok);
        completed += 1;
        if (completed < 3) pc.start(chain);
      };
  pc.start(chain);
  net.sim().run();
  EXPECT_EQ(completed, 3u);
  EXPECT_EQ(pc.iterations(), 3u);
}

// ----------------------------------------------------- occupancy hygiene --

TEST(Communicator, NoSwitchStateLeaksAfterMixedWorkload) {
  // One-shots, persistents and fallbacks on one fabric: when everything
  // is done and released, every switch is back to zero occupancy.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  {
    Communicator comm(net, topo.hosts);
    ASSERT_TRUE(comm.run(int_allreduce(16_KiB)).ok);
    PersistentCollective pc = comm.persistent(int_allreduce(8_KiB));
    ASSERT_TRUE(pc.ok());
    ASSERT_TRUE(pc.run().ok);
    CollectiveOptions barrier;
    barrier.kind = CollectiveKind::kBarrier;
    ASSERT_TRUE(comm.run(barrier).ok);
  }
  for (const auto& occ :
       service::snapshot_occupancy(net, net.sim().now())) {
    EXPECT_EQ(occ.current, 0u) << occ.name << " still holds switch state";
  }
}

// ---------------------------------------------------------- one-shot -------

void expect_bit_identical(const CollectiveResult& a,
                          const CollectiveResult& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.in_network, b.in_network);
  EXPECT_EQ(a.max_abs_err, b.max_abs_err);
  EXPECT_EQ(a.completion_seconds, b.completion_seconds);
  EXPECT_EQ(a.mean_host_seconds, b.mean_host_seconds);
  EXPECT_EQ(a.total_traffic_bytes, b.total_traffic_bytes);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.extra_packets, b.extra_packets);
  EXPECT_EQ(a.switch_working_mem_hwm, b.switch_working_mem_hwm);
  EXPECT_EQ(a.spill_packets, b.spill_packets);
  EXPECT_EQ(a.host_pairs_sent, b.host_pairs_sent);
  EXPECT_EQ(a.down_pairs, b.down_pairs);
  EXPECT_EQ(a.dense_switchovers, b.dense_switchovers);
  EXPECT_EQ(a.pairs_exchanged, b.pairs_exchanged);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.planned_migrations, b.planned_migrations);
  EXPECT_EQ(a.fell_back, b.fell_back);
}

/// Crash-stops `spine` at 2 us and restarts it at 10 us.
void schedule_spine_crash(net::Network& net, net::Switch* spine) {
  net.sim().schedule_at(2 * kPsPerUs, [spine] { spine->fail(); });
  net.sim().schedule_at(10 * kPsPerUs, [spine] { spine->restart(); });
}

TEST(OneShot, EqualsFirstPersistentIteration) {
  // A one-shot is a one-iteration persistent request: for every algorithm
  // x kind pair, with fault handling off and with it on plus a spine crash
  // and restart, comm.run(desc) and comm.persistent(desc).run() on fresh
  // identical fabrics agree bit for bit — result, events and packets —
  // and the one-shot leaves no switch state behind.
  struct Case {
    Algorithm alg;
    CollectiveKind kind;
  };
  std::vector<Case> cases;
  for (const Algorithm alg : {Algorithm::kAuto, Algorithm::kFlareDense}) {
    for (const CollectiveKind kind :
         {CollectiveKind::kAllreduce, CollectiveKind::kReduce,
          CollectiveKind::kBroadcast, CollectiveKind::kBarrier}) {
      cases.push_back({alg, kind});
    }
  }
  for (const Algorithm alg : {Algorithm::kFlareSparse, Algorithm::kHostRing,
                              Algorithm::kSparcml}) {
    cases.push_back({alg, CollectiveKind::kAllreduce});
  }
  net::FatTreeSpec spec;
  spec.hosts = 8;
  spec.radix = 4;

  for (const bool faults : {false, true}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(algorithm_name(c.alg)) + " " +
                   std::string(collective_kind_name(c.kind)) +
                   (faults ? " with a spine crash" : ""));
      const bool sparse =
          c.alg == Algorithm::kFlareSparse || c.alg == Algorithm::kSparcml;
      CollectiveOptions desc =
          sparse ? int_sparse_allreduce() : int_allreduce(32_KiB);
      desc.algorithm = c.alg;
      desc.kind = c.kind;
      desc.root = 3;
      if (faults) {
        desc.retransmit_timeout_ps = 10 * kPsPerUs;
      }

      net::Network pnet;
      const net::BuiltTopology ptopo = net::build_fat_tree(pnet, spec);
      Communicator pcomm(pnet, ptopo.hosts);
      PersistentCollective pc = pcomm.persistent(desc);
      ASSERT_TRUE(pc.ok());
      // Crash the spine under the tree (the one-shot embeds the same tree
      // on its identical fabric), else the first one.
      std::size_t spine = 0;
      if (pc.in_network()) {
        for (const TreeSwitchEntry& e : pc.tree().switches) {
          for (std::size_t i = 0; i < ptopo.spines.size(); ++i) {
            if (e.sw == ptopo.spines[i]) spine = i;
          }
        }
      }
      if (faults) schedule_spine_crash(pnet, ptopo.spines[spine]);
      const CollectiveResult persistent = pc.run();

      net::Network onet;
      const net::BuiltTopology otopo = net::build_fat_tree(onet, spec);
      if (faults) schedule_spine_crash(onet, otopo.spines[spine]);
      Communicator ocomm(onet, otopo.hosts);
      const CollectiveResult one_shot = ocomm.run(desc);

      EXPECT_TRUE(one_shot.ok);
      if (faults && one_shot.in_network) {
        EXPECT_EQ(one_shot.recoveries, 1u) << "the crash hit the tree";
      }
      expect_bit_identical(one_shot, persistent);
      EXPECT_EQ(onet.sim().total_events_run(), pnet.sim().total_events_run());
      EXPECT_EQ(onet.total_packets(), pnet.total_packets());
      for (const net::Switch* sw : onet.switches()) {
        EXPECT_EQ(sw->installed_reduces(), 0u) << sw->name();
        EXPECT_EQ(sw->engine_pool_in_use(), 0u) << sw->name();
      }
    }
  }
}

}  // namespace
}  // namespace flare::coll
