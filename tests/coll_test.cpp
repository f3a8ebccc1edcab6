// Collectives over the network simulator: reduction-tree computation and
// admission control, Flare dense/sparse end-to-end on single-switch and
// fat-tree topologies, ring allreduce, SparCML recursive doubling — all
// driven through the coll::Communicator descriptor API and functionally
// verified, plus the traffic relationships the paper claims (in-network
// dense moves ~half the bytes of the host ring; Flare sparse moves far
// less than SparCML).
#include <gtest/gtest.h>

#include <set>

#include "coll/communicator.hpp"
#include "coll/flare_sparse.hpp"
#include "coll/manager.hpp"
#include "coll/sparcml.hpp"
#include "coll/tree_cache.hpp"
#include "workload/generators.hpp"

namespace flare::coll {
namespace {

CollectiveResult run_collective(net::Network& net,
                                const std::vector<net::Host*>& hosts,
                                const CollectiveOptions& desc) {
  Communicator comm(net, hosts);
  return comm.run(desc);
}

CollectiveOptions dense_desc(u64 data_bytes,
                             core::DType dtype = core::DType::kFloat32) {
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kFlareDense;
  desc.data_bytes = data_bytes;
  desc.dtype = dtype;
  return desc;
}

CollectiveOptions ring_desc(u64 data_bytes,
                            core::DType dtype = core::DType::kFloat32) {
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kHostRing;
  desc.data_bytes = data_bytes;
  desc.dtype = dtype;
  return desc;
}

// ------------------------------------------------------------ manager -----

TEST(Manager, SingleSwitchTree) {
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  NetworkManager mgr(net);
  auto tree = mgr.compute_tree(topo.hosts, topo.leaves[0]->id());
  ASSERT_TRUE(tree.has_value());
  ASSERT_EQ(tree->switches.size(), 1u);
  EXPECT_EQ(tree->switches[0].num_children, 4u);
  EXPECT_EQ(tree->max_depth, 0u);
  // Host child indices are a permutation of 0..3.
  std::set<u16> idx(tree->host_child_index.begin(),
                    tree->host_child_index.end());
  EXPECT_EQ(idx.size(), 4u);
}

TEST(Manager, FatTreeSpansAllParticipants) {
  net::Network net;
  net::FatTreeSpec spec;
  auto topo = net::build_fat_tree(net, spec);
  NetworkManager mgr(net);
  auto tree = mgr.compute_tree(topo.hosts, topo.spines[0]->id());
  ASSERT_TRUE(tree.has_value());
  // Every leaf aggregates its 4 hosts; total children across switches =
  // 64 hosts + (#switches - 1) switch-to-switch edges.
  u64 total_children = 0;
  for (const auto& e : tree->switches) total_children += e.num_children;
  EXPECT_EQ(total_children, 64u + tree->switches.size() - 1);
  EXPECT_EQ(tree->root, topo.spines[0]->id());
  EXPECT_GE(tree->switches.size(), 17u);  // root + 16 leaves at minimum
}

TEST(Manager, InvalidRootsAreRejected) {
  // Roots are caller-supplied (CommunicatorConfig::roots).  A host id, an
  // id past the last node and kInvalidNode must each come back nullopt
  // before the search indexes anything by them.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  NetworkManager mgr(net);
  const std::vector<net::NodeId> roots = {
      topo.hosts[0]->id(), net.num_nodes() + 5, net::kInvalidNode,
      topo.spines[0]->id()};
  for (u32 i = 0; i < 3; ++i) {
    EXPECT_FALSE(mgr.compute_tree(topo.hosts, roots[i]).has_value())
        << "root=" << roots[i];
  }
  // install_with_roots skips them and installs at the valid fourth root.
  core::AllreduceConfig cfg;
  cfg.id = mgr.next_id();
  cfg.dtype = core::DType::kInt32;
  cfg.elems_per_packet = 16;
  TreeCache cache;
  for (TreeCache* c : {static_cast<TreeCache*>(nullptr), &cache}) {
    InstallReport report =
        mgr.install_with_roots(topo.hosts, cfg, 1e12, roots, c);
    EXPECT_EQ(report.attempts, 4u);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->root, topo.spines[0]->id());
    mgr.uninstall(*report, cfg.id);
  }
}

TEST(Manager, DeadParallelLinkIsNeverATreePort) {
  // 32 hosts on radix-16 switches: 4 leaves, 2 spines, 4 parallel links
  // per leaf-spine pair.  With leaf0's first link to spine0 down, the tree
  // must join leaf0 through a live parallel link in both directions, with
  // and without a link-cost provider.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 32;
  spec.radix = 16;
  auto topo = net::build_fat_tree(net, spec);
  const net::NodeId leaf0 = topo.leaves[0]->id();
  const net::NodeId spine0 = topo.spines[0]->id();
  u32 dead_port = UINT32_MAX;
  for (const net::PortPeer& pp : net.neighbors(leaf0)) {
    if (pp.peer == spine0) {
      dead_port = pp.my_port;
      break;
    }
  }
  ASSERT_NE(dead_port, UINT32_MAX);
  net.set_duplex_up(net.node(leaf0).port(dead_port).index() / 2, false);
  for (const bool with_costs : {false, true}) {
    NetworkManager mgr(net);
    if (with_costs) mgr.set_link_cost([](net::NodeId, u32) { return 1.0; });
    auto tree = mgr.compute_tree(topo.hosts, spine0);
    ASSERT_TRUE(tree.has_value()) << "with_costs=" << with_costs;
    EXPECT_TRUE(tree_alive(net, *tree)) << "with_costs=" << with_costs;
    for (const TreeSwitchEntry& e : tree->switches) {
      if (e.sw->id() != spine0) {
        EXPECT_TRUE(net.port_usable(e.sw->id(), e.parent_port))
            << e.sw->name() << " parent_port=" << e.parent_port;
      }
      for (const u32 p : e.child_ports) {
        EXPECT_TRUE(net.port_usable(e.sw->id(), p))
            << e.sw->name() << " child_port=" << p;
      }
    }
  }
}

TEST(Manager, SubsetParticipantsPruneTree) {
  net::Network net;
  net::FatTreeSpec spec;
  auto topo = net::build_fat_tree(net, spec);
  NetworkManager mgr(net);
  // Only the 4 hosts of leaf3 participate: the tree should include leaf3
  // and not every other leaf.
  std::vector<net::Host*> subset(topo.hosts.begin() + 12,
                                 topo.hosts.begin() + 16);
  auto tree = mgr.install_with_retry(subset, [&] {
    core::AllreduceConfig cfg;
    cfg.id = mgr.next_id();
    cfg.dtype = core::DType::kInt32;
    cfg.elems_per_packet = 16;
    return cfg;
  }(), 1e12);
  ASSERT_TRUE(tree.has_value());
  EXPECT_LE(tree->switches.size(), 2u);
  EXPECT_GE(tree.attempts, 1u);  // the InstallReport counts the rounds
  EXPECT_TRUE(tree.any_feasible);
}

TEST(Manager, AdmissionFailureRollsBack) {
  net::Network net;
  auto topo = net::build_single_switch(net, 2, net::LinkSpec{},
                                       /*max_allreduces=*/1);
  NetworkManager mgr(net);
  core::AllreduceConfig cfg;
  cfg.dtype = core::DType::kInt32;
  cfg.elems_per_packet = 16;
  cfg.id = mgr.next_id();
  auto first = mgr.install_with_retry(topo.hosts, cfg, 1e12);
  ASSERT_TRUE(first.has_value());
  cfg.id = mgr.next_id();
  auto second = mgr.install_with_retry(topo.hosts, cfg, 1e12);
  EXPECT_FALSE(second.has_value());  // the paper's fallback-to-host case
  EXPECT_TRUE(second.any_feasible);  // rejected NOW, not inadmissible
  mgr.uninstall(*first, 1);
  cfg.id = mgr.next_id();
  EXPECT_TRUE(mgr.install_with_retry(topo.hosts, cfg, 1e12).has_value());
}

TEST(Manager, PartialInstallRollbackRestoresOccupancy) {
  // 16 hosts, radix 4 -> 8 leaves (2 hosts each) + 4 spines, 2 slots each.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  spec.max_allreduces = 2;
  auto topo = net::build_fat_tree(net, spec);
  NetworkManager mgr(net);

  // Participants under two leaves: the spine-rooted tree spans >= 3
  // switches, so a full switch deep in the install order forces a rollback
  // of the earlier, successful installs.
  std::vector<net::Host*> parts(topo.hosts.begin(), topo.hosts.begin() + 4);
  auto tree = mgr.compute_tree(parts, topo.spines[0]->id());
  ASSERT_TRUE(tree.has_value());
  ASSERT_GE(tree->switches.size(), 3u);

  // Fill the LAST tree switch to capacity with unrelated reductions.
  net::Switch* full = tree->switches.back().sw;
  while (full->can_install()) {
    core::AllreduceConfig dummy;
    dummy.id = mgr.next_id();
    dummy.dtype = core::DType::kInt32;
    dummy.elems_per_packet = 16;
    ASSERT_TRUE(full->install_reduce(dummy, net::ReduceRole{}));
  }

  std::vector<u32> before;
  std::vector<u64> hwm_before;
  for (const net::Switch* sw : net.switches()) {
    before.push_back(sw->installed_reduces());
    hwm_before.push_back(sw->occupancy().high_water());
  }

  core::AllreduceConfig cfg;
  cfg.id = mgr.next_id();
  cfg.dtype = core::DType::kInt32;
  cfg.elems_per_packet = 16;
  EXPECT_FALSE(mgr.install(*tree, cfg, 1e12));

  // After the rejected admission every switch is back at its prior
  // occupancy, no switch holds the rejected id, and the occupancy
  // telemetry (high-water mark) was not polluted by a partial install.
  for (std::size_t i = 0; i < net.switches().size(); ++i) {
    EXPECT_EQ(net.switches()[i]->installed_reduces(), before[i])
        << net.switches()[i]->name();
    EXPECT_EQ(net.switches()[i]->role(cfg.id), nullptr);
    EXPECT_EQ(net.switches()[i]->occupancy().high_water(), hwm_before[i])
        << net.switches()[i]->name();
  }

  // A smaller tree avoiding the full switch still installs: single-leaf
  // participants rooted at a leaf that has slots left.
  net::Switch* free_leaf = topo.leaves[0] == full ? topo.leaves[1]
                                                  : topo.leaves[0];
  const u32 leaf_index = free_leaf == topo.leaves[0] ? 0 : 1;
  std::vector<net::Host*> small = {topo.hosts[2 * leaf_index],
                                   topo.hosts[2 * leaf_index + 1]};
  auto small_tree = mgr.compute_tree(small, free_leaf->id());
  ASSERT_TRUE(small_tree.has_value());
  EXPECT_EQ(small_tree->switches.size(), 1u);
  core::AllreduceConfig cfg2;
  cfg2.id = mgr.next_id();
  cfg2.dtype = core::DType::kInt32;
  cfg2.elems_per_packet = 16;
  const u32 leaf_before = free_leaf->installed_reduces();
  EXPECT_TRUE(mgr.install(*small_tree, cfg2, 1e12));
  EXPECT_EQ(free_leaf->installed_reduces(), leaf_before + 1);
  mgr.uninstall(*small_tree, cfg2.id);
  EXPECT_EQ(free_leaf->installed_reduces(), leaf_before);
}

TEST(Manager, ReleaseListenerFiresOnUninstall) {
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  NetworkManager mgr(net);
  std::vector<u32> released;
  mgr.set_release_listener([&](u32 id) { released.push_back(id); });
  core::AllreduceConfig cfg;
  cfg.id = mgr.next_id();
  cfg.dtype = core::DType::kInt32;
  cfg.elems_per_packet = 16;
  auto tree = mgr.install_with_retry(topo.hosts, cfg, 1e12);
  ASSERT_TRUE(tree.has_value());
  EXPECT_TRUE(released.empty());
  mgr.uninstall(*tree, cfg.id);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0], cfg.id);
}

TEST(Manager, IdsUniqueAcrossManagersOnOneNetwork) {
  // Concurrent sessions each own a manager; ids come from the network so
  // two sessions can never install colliding reductions on a shared
  // switch.
  net::Network net;
  net::build_single_switch(net, 2);
  NetworkManager a(net), b(net);
  std::set<u32> ids = {a.next_id(), b.next_id(), a.next_id(), b.next_id()};
  EXPECT_EQ(ids.size(), 4u);
}

// ---------------------------------------------------------- tree cache ----

TEST(TreeCache, HitMissAndLruEviction) {
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  NetworkManager mgr(net);
  TreeCache cache(/*capacity=*/2);

  std::vector<net::Host*> a(topo.hosts.begin(), topo.hosts.begin() + 4);
  std::vector<net::Host*> b(topo.hosts.begin() + 4, topo.hosts.begin() + 8);
  const net::NodeId root = topo.spines[0]->id();

  EXPECT_EQ(cache.lookup(a, root), nullptr);  // miss #1
  auto t1 = cache.get_or_compute(mgr, a, root);  // miss #2, then cached
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);

  // The key is the ORDERED participant list: a leaf numbers its host
  // children in participant order, so a permuted group must miss.
  std::vector<net::Host*> a_rev(a.rbegin(), a.rend());
  EXPECT_EQ(cache.lookup(a_rev, root), nullptr);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);

  auto t2 = cache.get_or_compute(mgr, b, root);
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(cache.size(), 2u);

  // Recency is now [b, a] (b inserted after a's last touch); a third
  // distinct key evicts a.
  std::vector<net::Host*> c(topo.hosts.begin() + 8,
                            topo.hosts.begin() + 12);
  auto t3 = cache.get_or_compute(mgr, c, root);
  ASSERT_TRUE(t3.has_value());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup(a, root), nullptr);   // evicted
  EXPECT_NE(cache.lookup(b, root), nullptr);   // retained
  EXPECT_NE(cache.lookup(c, root), nullptr);   // retained

  // Cached trees install identically to freshly computed ones.
  core::AllreduceConfig cfg;
  cfg.id = mgr.next_id();
  cfg.dtype = core::DType::kInt32;
  cfg.elems_per_packet = 16;
  const ReductionTree* cached = cache.lookup(b, root);
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(mgr.install(*cached, cfg, 1e12));
  mgr.uninstall(*cached, cfg.id);

  // A permuted group is served its own embedding, equal to a fresh
  // compute — and different from the other order's tree, which is why it
  // must not share that tree's entry.
  const auto same_embedding = [](const ReductionTree& x,
                                 const ReductionTree& y) {
    if (x.root != y.root || x.host_child_index != y.host_child_index ||
        x.switches.size() != y.switches.size()) {
      return false;
    }
    for (std::size_t i = 0; i < x.switches.size(); ++i) {
      if (x.switches[i].sw != y.switches[i].sw ||
          x.switches[i].child_ports != y.switches[i].child_ports) {
        return false;
      }
    }
    return true;
  };
  auto rev = cache.get_or_compute(mgr, a_rev, root);
  auto fresh = mgr.compute_tree(a_rev, root);
  ASSERT_TRUE(rev.has_value());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(same_embedding(*rev, *fresh));
  EXPECT_FALSE(same_embedding(*t1, *fresh));
}

// --------------------------------------------------------- flare dense ----

class FlareDenseTopoSweep : public ::testing::TestWithParam<bool> {};

TEST_P(FlareDenseTopoSweep, EndToEndCorrect) {
  const bool fat_tree = GetParam();
  net::Network net;
  std::vector<net::Host*> hosts;
  if (fat_tree) {
    net::FatTreeSpec spec;
    spec.hosts = 16;
    spec.radix = 4;
    hosts = net::build_fat_tree(net, spec).hosts;
  } else {
    hosts = net::build_single_switch(net, 8).hosts;
  }
  const CollectiveResult res = run_collective(net, hosts, dense_desc(64_KiB));
  EXPECT_TRUE(res.ok) << "err=" << res.max_abs_err;
  EXPECT_TRUE(res.in_network);
  EXPECT_GT(res.completion_seconds, 0.0);
  EXPECT_GT(res.total_traffic_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Topologies, FlareDenseTopoSweep,
                         ::testing::Values(false, true));

class FlareDenseDtypeSweep : public ::testing::TestWithParam<core::DType> {};

TEST_P(FlareDenseDtypeSweep, AllTypesOnFatTree) {
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 8;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  const CollectiveResult res =
      run_collective(net, topo.hosts, dense_desc(16_KiB, GetParam()));
  EXPECT_TRUE(res.ok) << "err=" << res.max_abs_err;
}

INSTANTIATE_TEST_SUITE_P(Dtypes, FlareDenseDtypeSweep,
                         ::testing::Values(core::DType::kInt8,
                                           core::DType::kInt32,
                                           core::DType::kFloat16,
                                           core::DType::kFloat32));

TEST(FlareDense, ReproducibleModeUsesTreeAndChecksOut) {
  net::Network net;
  auto topo = net::build_single_switch(net, 6);
  CollectiveOptions desc = dense_desc(32_KiB);
  desc.reproducible = true;
  const CollectiveResult res = run_collective(net, topo.hosts, desc);
  EXPECT_TRUE(res.ok);
}

TEST(FlareDense, WindowOneStillCompletes) {
  // Degenerate flow control: one outstanding block, fully serialized.
  // (Windowed operation requires aligned sending — staggered sending keeps
  // the whole message in flight by design.)
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  CollectiveOptions desc = dense_desc(8_KiB);
  desc.window_blocks = 1;
  desc.order = core::SendOrder::kAligned;
  const CollectiveResult res = run_collective(net, topo.hosts, desc);
  EXPECT_TRUE(res.ok);
}

TEST(FlareDense, AdmissionRejectionReportsFailure) {
  net::Network net;
  auto topo = net::build_single_switch(net, 4, net::LinkSpec{}, 0);
  // Explicitly in-network: no auto fallback, the rejection must surface.
  const CollectiveResult res =
      run_collective(net, topo.hosts, dense_desc(1 * kMiB));
  EXPECT_FALSE(res.ok);
}

TEST(FlareDense, AutoFallsBackToRingOnRejection) {
  // The paper's admission policy through the descriptor API: kAuto
  // allreduce rejected by admission runs host-based instead.
  net::Network net;
  auto topo = net::build_single_switch(net, 4, net::LinkSpec{}, 0);
  CollectiveOptions desc = dense_desc(32_KiB, core::DType::kInt32);
  desc.algorithm = Algorithm::kAuto;
  const CollectiveResult res = run_collective(net, topo.hosts, desc);
  EXPECT_TRUE(res.ok);
  EXPECT_FALSE(res.in_network);
  EXPECT_EQ(res.max_abs_err, 0.0);
}

// ------------------------------------------------------------- ring -------

class RingSweep : public ::testing::TestWithParam<u32> {};

TEST_P(RingSweep, CorrectForAnyHostCount) {
  const u32 P = GetParam();
  net::Network net;
  auto topo = net::build_single_switch(net, P);
  const CollectiveResult res = run_collective(net, topo.hosts,
                                              ring_desc(64_KiB));
  EXPECT_TRUE(res.ok) << "err=" << res.max_abs_err;
  EXPECT_FALSE(res.in_network);
}

INSTANTIATE_TEST_SUITE_P(HostCounts, RingSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(Ring, TrafficMatchesTwoZFormula) {
  // Each host transmits 2 (P-1)/P Z; on a single switch every byte crosses
  // two links (host->switch->host).
  const u32 P = 8;
  const u64 Z = 256_KiB;
  net::Network net;
  auto topo = net::build_single_switch(net, P);
  const CollectiveResult res = run_collective(net, topo.hosts, ring_desc(Z));
  ASSERT_TRUE(res.ok);
  const f64 expected_payload =
      2.0 * static_cast<f64>(P) * static_cast<f64>(Z) *
      (static_cast<f64>(P - 1) / P) * 2.0;  // x2 for the two hops
  const f64 actual = static_cast<f64>(res.total_traffic_bytes);
  EXPECT_NEAR(actual / expected_payload, 1.0, 0.05);  // header overhead
}

TEST(Ring, FatTreeCorrect) {
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  const CollectiveResult res = run_collective(net, topo.hosts,
                                              ring_desc(32_KiB));
  EXPECT_TRUE(res.ok) << res.max_abs_err;
}

TEST(InNetworkVsRing, FlareHalvesHostTraffic) {
  // The paper's headline: in-network dense ~2x traffic reduction vs the
  // host-based ring (Figure 15 and Section 1).  Same descriptor, two
  // algorithms — the unified API the flexibility claim asks for.
  const u32 P = 16;
  const u64 Z = 128_KiB;
  net::Network netA;
  auto topoA = net::build_single_switch(netA, P);
  const CollectiveResult flare =
      run_collective(netA, topoA.hosts, dense_desc(Z));
  ASSERT_TRUE(flare.ok);

  net::Network netB;
  auto topoB = net::build_single_switch(netB, P);
  const CollectiveResult ring = run_collective(netB, topoB.hosts,
                                               ring_desc(Z));
  ASSERT_TRUE(ring.ok);

  const f64 ratio = static_cast<f64>(ring.total_traffic_bytes) /
                    static_cast<f64>(flare.total_traffic_bytes);
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.4);
}

// ---------------------------------------------------------- sparcml -------

CollectiveOptions sparcml_desc(u32 span, u32 blocks,
                               const workload::SparseSpec& spec) {
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kSparcml;
  desc.dtype = spec.dtype;
  desc.sparse.block_span = span;
  desc.sparse.num_blocks = blocks;
  desc.sparse.pairs = [spec](u32 h, u32 b) {
    return workload::sparse_block_pairs(spec, h, b);
  };
  return desc;
}

class SparcmlSweep : public ::testing::TestWithParam<u32> {};

TEST_P(SparcmlSweep, CorrectForPowerOfTwoHosts) {
  const u32 P = GetParam();
  net::Network net;
  auto topo = net::build_single_switch(net, P);
  workload::SparseSpec spec{4096, 0.02, 0.5, core::DType::kFloat32, 31};
  const CollectiveResult res =
      run_collective(net, topo.hosts, sparcml_desc(4096, 1, spec));
  EXPECT_TRUE(res.ok) << "err=" << res.max_abs_err;
  EXPECT_FALSE(res.in_network);
}

INSTANTIATE_TEST_SUITE_P(HostCounts, SparcmlSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(Sparcml, DenseSwitchoverTriggersForDenseData) {
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  workload::SparseSpec spec{1024, 0.45, 0.0, core::DType::kFloat32, 37};
  // Union of 4 hosts at 45% density exceeds the pair-encoding break-even:
  // later rounds must go dense.  The switchover count rides the shared
  // CollectiveResult's sparse extras.
  const CollectiveResult res =
      run_collective(net, topo.hosts, sparcml_desc(1024, 1, spec));
  ASSERT_TRUE(res.ok);
  EXPECT_GT(res.dense_switchovers, 0u);
}

TEST(Sparcml, NonPowerOfTwoAborts) {
  net::Network net;
  auto topo = net::build_single_switch(net, 3);
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kSparcml;
  desc.sparse.block_span = 16;
  desc.sparse.num_blocks = 1;
  desc.sparse.pairs = [](u32, u32) {
    return std::vector<core::SparsePair>{};
  };
  Communicator comm(net, topo.hosts);
  EXPECT_DEATH(comm.run(desc), "power-of-two");
}

// ------------------------------------------------------- flare sparse -----

SparseWorkload uniform_workload(u32 span, u32 blocks, f64 density,
                                f64 overlap, u64 seed) {
  SparseWorkload w;
  w.block_span = span;
  w.num_blocks = blocks;
  workload::SparseSpec spec{span, density, overlap, core::DType::kFloat32,
                            seed};
  w.pairs = [spec](u32 h, u32 b) {
    return workload::sparse_block_pairs(spec, h, b);
  };
  return w;
}

CollectiveOptions sparse_desc(SparseWorkload w) {
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kFlareSparse;
  desc.sparse = std::move(w);
  return desc;
}

class FlareSparseTopoSweep : public ::testing::TestWithParam<bool> {};

TEST_P(FlareSparseTopoSweep, EndToEndCorrect) {
  const bool fat_tree = GetParam();
  net::Network net;
  std::vector<net::Host*> hosts;
  if (fat_tree) {
    net::FatTreeSpec spec;
    spec.hosts = 16;
    spec.radix = 4;
    hosts = net::build_fat_tree(net, spec).hosts;
  } else {
    hosts = net::build_single_switch(net, 8).hosts;
  }
  const CollectiveResult res = run_collective(
      net, hosts, sparse_desc(uniform_workload(1280, 8, 0.10, 0.6, 41)));
  EXPECT_TRUE(res.ok) << "err=" << res.max_abs_err;
  EXPECT_TRUE(res.in_network);
}

INSTANTIATE_TEST_SUITE_P(Topologies, FlareSparseTopoSweep,
                         ::testing::Values(false, true));

TEST(FlareSparse, EmptyBlocksComplete) {
  net::Network net;
  auto topo = net::build_single_switch(net, 4);
  SparseWorkload w;
  w.block_span = 256;
  w.num_blocks = 4;
  w.pairs = [](u32 h, u32 b) {
    // Host 0 contributes only to even blocks; others always empty.
    std::vector<core::SparsePair> out;
    if (h == 0 && b % 2 == 0) out.push_back({b, 1.0});
    return out;
  };
  const CollectiveResult res =
      run_collective(net, topo.hosts, sparse_desc(std::move(w)));
  EXPECT_TRUE(res.ok) << res.max_abs_err;
}

TEST(FlareSparse, AutoAlgorithmPicksSparseForSparseWorkloads) {
  // Attaching a sparse workload to a kAuto descriptor selects the
  // in-network sparse engine — SparCML's "switch algorithms per call under
  // one API" motivation.
  net::Network net;
  auto topo = net::build_single_switch(net, 8);
  CollectiveOptions desc = sparse_desc(uniform_workload(1280, 4, 0.05,
                                                        0.5, 59));
  desc.algorithm = Algorithm::kAuto;
  const CollectiveResult res = run_collective(net, topo.hosts, desc);
  EXPECT_TRUE(res.ok) << res.max_abs_err;
  EXPECT_TRUE(res.in_network);
}

TEST(FlareSparse, TinyHashSpillsButStaysCorrect) {
  // Leaf switches use hash storage (the root is array-backed and never
  // spills), so a multi-level tree with a tiny hash must generate spill
  // traffic while remaining exact.
  net::Network net;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto topo = net::build_fat_tree(net, spec);
  CollectiveOptions desc = sparse_desc(uniform_workload(2048, 4, 0.2, 0.0,
                                                        43));
  desc.hash_capacity_pairs = 32;
  desc.spill_capacity_pairs = 8;
  const CollectiveResult res = run_collective(net, topo.hosts, desc);
  EXPECT_TRUE(res.ok) << res.max_abs_err;
  EXPECT_GT(res.extra_packets, 0u);  // scheme-specific extras = spills
}

TEST(FlareSparseVsSparcml, LessTrafficWithOverlappedData) {
  // Figure 15's sparse comparison: with realistically-overlapped indices
  // the in-network sparse allreduce moves far fewer bytes than SparCML —
  // same workload description, two algorithms.
  const u32 P = 16;
  const u32 span = 64 * 128;
  const SparseWorkload w = uniform_workload(span, 8, 0.02, 0.9, 47);

  net::Network netA;
  auto topoA = net::build_single_switch(netA, P);
  const CollectiveResult flare =
      run_collective(netA, topoA.hosts, sparse_desc(w));
  ASSERT_TRUE(flare.ok);

  net::Network netB;
  auto topoB = net::build_single_switch(netB, P);
  CollectiveOptions sdesc = sparse_desc(w);
  sdesc.algorithm = Algorithm::kSparcml;
  const CollectiveResult sparcml = run_collective(netB, topoB.hosts, sdesc);
  ASSERT_TRUE(sparcml.ok);
  EXPECT_LT(flare.total_traffic_bytes, sparcml.total_traffic_bytes);
}

}  // namespace
}  // namespace flare::coll
