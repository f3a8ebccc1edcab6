// Collective-level property sweeps through the Communicator descriptor
// API: the traffic and scaling laws each scheme must obey on any
// topology/host-count —
//
//   * ring allreduce: per-host bytes = 2 (P-1)/P Z (Rabenseifner bound);
//   * Flare dense: host->switch traffic = Z per host (the paper's 2x
//     claim), monotone in Z, result independent of topology;
//   * SparCML: exactly log2(P) rounds, traffic grows with the union;
//   * barrier: completion scales with tree depth, not host count;
//   * concurrent nonblocking handles: traffic additivity;
//   * embedding: compute_tree at every root, the one-sweep cheapest_tree
//     and ranked_trees equal an independent from-scratch oracle on healthy
//     and faulted fabrics, with and without link costs, and a manager
//     that keeps its fabric view across fault notices answers like a
//     fresh one.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <tuple>

#include "coll/communicator.hpp"
#include "coll/flare_sparse.hpp"
#include "coll/manager.hpp"
#include "common/rng.hpp"
#include "net/fault.hpp"
#include "workload/generators.hpp"

namespace flare::coll {
namespace {

CollectiveResult run_collective(net::Network& net,
                                const std::vector<net::Host*>& hosts,
                                const CollectiveOptions& desc) {
  Communicator comm(net, hosts);
  return comm.run(desc);
}

// ----------------------------------------------------- ring traffic law ---

class RingTrafficLaw : public ::testing::TestWithParam<u32> {};

TEST_P(RingTrafficLaw, MatchesRabenseifnerBound) {
  const u32 P = GetParam();
  const u64 Z = 64_KiB;
  net::Network net;
  auto topo = net::build_single_switch(net, P);
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kHostRing;
  desc.data_bytes = Z;
  const auto res = run_collective(net, topo.hosts, desc);
  ASSERT_TRUE(res.ok);
  // Payload bytes per host: 2 * (P-1)/P * Z; every byte crosses 2 links on
  // a single switch; allow up to 8% for headers and chunk rounding.
  const f64 ideal = 2.0 * static_cast<f64>(P - 1) / P *
                    static_cast<f64>(Z) * P * 2.0;
  const f64 ratio = static_cast<f64>(res.total_traffic_bytes) / ideal;
  EXPECT_GT(ratio, 0.99);
  EXPECT_LT(ratio, 1.08);
}

INSTANTIATE_TEST_SUITE_P(HostCounts, RingTrafficLaw,
                         ::testing::Values(2, 3, 4, 6, 8, 12, 16));

// ------------------------------------------------- flare dense traffic ----

class FlareDenseTrafficLaw : public ::testing::TestWithParam<u32> {};

TEST_P(FlareDenseTrafficLaw, HostUplinkCarriesExactlyZ) {
  // Each host transmits its vector ONCE — the in-network 2x saving.
  const u32 P = GetParam();
  const u64 Z = 32_KiB;
  net::Network net;
  auto topo = net::build_single_switch(net, P);
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kFlareDense;
  desc.data_bytes = Z;
  const auto res = run_collective(net, topo.hosts, desc);
  ASSERT_TRUE(res.ok);
  // Single switch: up = P*Z, down multicast = P*Z, plus per-packet headers.
  const f64 ideal = 2.0 * static_cast<f64>(P) * static_cast<f64>(Z);
  const f64 ratio = static_cast<f64>(res.total_traffic_bytes) / ideal;
  EXPECT_GT(ratio, 0.99);
  EXPECT_LT(ratio, 1.10);  // 64B header per 1 KiB payload ~ 6%
}

INSTANTIATE_TEST_SUITE_P(HostCounts, FlareDenseTrafficLaw,
                         ::testing::Values(2, 4, 8, 16, 32));

TEST(FlareDenseScaling, CompletionMonotoneInSize) {
  f64 prev = 0.0;
  for (const u64 z : {16_KiB, 64_KiB, 256_KiB}) {
    net::Network net;
    auto topo = net::build_single_switch(net, 8);
    CollectiveOptions desc;
    desc.algorithm = Algorithm::kFlareDense;
    desc.data_bytes = z;
    const auto res = run_collective(net, topo.hosts, desc);
    ASSERT_TRUE(res.ok) << z;
    EXPECT_GT(res.completion_seconds, prev) << z;
    prev = res.completion_seconds;
  }
}

TEST(FlareDenseScaling, ResultIndependentOfTopology) {
  // The same participants and data must produce the same numbers whether
  // they sit on one switch or across a fat tree (reproducible mode makes
  // the comparison bitwise-meaningful through max_abs_err equality).
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kFlareDense;
  desc.data_bytes = 32_KiB;
  desc.reproducible = true;
  desc.seed = 1234;

  net::Network a;
  auto ta = net::build_single_switch(a, 16);
  const auto ra = run_collective(a, ta.hosts, desc);

  net::Network b;
  net::FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;
  auto tb = net::build_fat_tree(b, spec);
  const auto rb = run_collective(b, tb.hosts, desc);

  ASSERT_TRUE(ra.ok && rb.ok);
  // Tree association differs between a flat 16-child tree and a two-level
  // (4x4) one, so bitwise equality is not required — but both must be
  // within the fp32 reduction tolerance of the same reference.
  EXPECT_LE(ra.max_abs_err, 1e-3 * 16);
  EXPECT_LE(rb.max_abs_err, 1e-3 * 16);
}

// ------------------------------------------------------------- sparcml ----

class SparcmlRounds : public ::testing::TestWithParam<u32> {};

TEST_P(SparcmlRounds, ExactlyLogPRounds) {
  const u32 P = GetParam();
  net::Network net;
  auto topo = net::build_single_switch(net, P);
  workload::SparseSpec spec{2048, 0.05, 0.3, core::DType::kFloat32, 55};
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kSparcml;
  desc.sparse.block_span = 2048;
  desc.sparse.num_blocks = 1;
  desc.sparse.pairs = [&spec](u32 h, u32) {
    return workload::sparse_block_pairs(spec, h, 0);
  };
  const auto res = run_collective(net, topo.hosts, desc);
  ASSERT_TRUE(res.ok);
  u32 logp = 0;
  while ((1u << logp) < P) ++logp;
  EXPECT_EQ(res.blocks, logp);  // blocks field reports rounds
}

INSTANTIATE_TEST_SUITE_P(HostCounts, SparcmlRounds,
                         ::testing::Values(2, 4, 8, 16, 32));

TEST(SparcmlProperty, TrafficGrowsWithLowerOverlap) {
  auto run_with_overlap = [](f64 overlap) {
    net::Network net;
    auto topo = net::build_single_switch(net, 16);
    workload::SparseSpec spec{8192, 0.03, overlap, core::DType::kFloat32,
                              66};
    CollectiveOptions desc;
    desc.algorithm = Algorithm::kSparcml;
    desc.sparse.block_span = 8192;
    desc.sparse.num_blocks = 1;
    desc.sparse.pairs = [spec](u32 h, u32) {
      return workload::sparse_block_pairs(spec, h, 0);
    };
    const auto res = run_collective(net, topo.hosts, desc);
    EXPECT_TRUE(res.ok);
    return res.total_traffic_bytes;
  };
  // Less overlap -> bigger unions every round -> more bytes.
  EXPECT_GT(run_with_overlap(0.0), run_with_overlap(0.9));
}

// ------------------------------------------------------------- barrier ----

TEST(BarrierProperty, LatencyScalesWithDepthNotHosts) {
  // Barrier over 8 hosts on one switch vs 64 hosts on a deeper fat tree:
  // the fat-tree barrier pays more hops but stays in the microsecond range
  // (empty packets; no serialization of bulk data).
  CollectiveOptions desc;
  desc.kind = CollectiveKind::kBarrier;

  net::Network a;
  auto ta = net::build_single_switch(a, 8);
  const auto ra = run_collective(a, ta.hosts, desc);
  ASSERT_TRUE(ra.ok);

  net::Network b;
  auto tb = net::build_fat_tree(b, net::FatTreeSpec{});
  const auto rb = run_collective(b, tb.hosts, desc);
  ASSERT_TRUE(rb.ok);

  EXPECT_GT(rb.completion_seconds, ra.completion_seconds);  // more hops
  EXPECT_LT(rb.completion_seconds, 50e-6);                  // but still tiny
}

// ------------------------------------------------------- sparse density ---

class SparseDensitySweep : public ::testing::TestWithParam<f64> {};

TEST_P(SparseDensitySweep, TrafficTracksDensity) {
  const f64 density = GetParam();
  net::Network net;
  auto topo = net::build_single_switch(net, 8);
  const u32 span = 2560;
  workload::SparseSpec spec{span, density, 0.5, core::DType::kFloat32, 77};
  SparseWorkload w;
  w.block_span = span;
  w.num_blocks = 8;
  w.pairs = [spec](u32 h, u32 b) {
    return workload::sparse_block_pairs(spec, h, b);
  };
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kFlareSparse;
  desc.sparse = std::move(w);
  Communicator comm(net, topo.hosts);
  const CollectiveResult res = comm.run(desc);
  ASSERT_TRUE(res.ok) << res.max_abs_err;
  // Host pairs scale ~ density * span * blocks per host.
  const f64 expected_pairs = density * span * 8;
  const f64 per_host =
      static_cast<f64>(res.host_pairs_sent) / topo.hosts.size();
  EXPECT_NEAR(per_host / expected_pairs, 1.0, 0.15) << density;
}

INSTANTIATE_TEST_SUITE_P(Densities, SparseDensitySweep,
                         ::testing::Values(0.01, 0.05, 0.10, 0.25));

// ------------------------------------------------ single-fault coverage ---
// Property: for EVERY single-link and single-switch failure position in a
// small fat-tree, every supported CollectiveKind x Algorithm combination
// still completes correctly — recovered in-network, or on the host-ring
// fallback — with a bit-for-bit (int32) result and no leaked switch
// occupancy.  Faults are transient (down at 500 ns, repaired 8 us later),
// which makes even a host access link or a leaf switch survivable.
//
// Combos cover the dense in-network kinds plus the ring data plane;
// host-ring serves allreduce only.  The sparse engines run the same
// recovery machinery; their fault coverage lives in chaos_test's
// ChaosSparse scenarios and seeded SparseChaosSweep.

struct FaultCombo {
  CollectiveKind kind;
  Algorithm alg;
};

constexpr FaultCombo kFaultCombos[] = {
    {CollectiveKind::kAllreduce, Algorithm::kFlareDense},
    {CollectiveKind::kAllreduce, Algorithm::kAuto},
    {CollectiveKind::kAllreduce, Algorithm::kHostRing},
    {CollectiveKind::kReduce, Algorithm::kFlareDense},
    {CollectiveKind::kBroadcast, Algorithm::kFlareDense},
    {CollectiveKind::kBarrier, Algorithm::kFlareDense},
};

void run_all_combos_under_fault(bool fail_switch, u32 position) {
  for (const FaultCombo& combo : kFaultCombos) {
    SCOPED_TRACE(std::string(collective_kind_name(combo.kind)) + " x " +
                 std::string(algorithm_name(combo.alg)) +
                 (fail_switch ? " switch " : " link ") +
                 std::to_string(position));
    net::Network net;
    net::FatTreeSpec spec;
    spec.hosts = 8;
    spec.radix = 4;
    auto topo = net::build_fat_tree(net, spec);

    net::FaultPlan plan;
    if (fail_switch) {
      const net::NodeId sw = (position < topo.spines.size())
                                 ? topo.spines[position]->id()
                                 : topo.leaves[position - topo.spines.size()]
                                       ->id();
      plan.events.push_back(
          {kPsPerUs / 2, net::FaultKind::kSwitchFail, sw, 1});
      plan.events.push_back(
          {kPsPerUs / 2 + 8 * kPsPerUs, net::FaultKind::kSwitchRestart, sw,
           1});
    } else {
      plan.events.push_back(
          {kPsPerUs / 2, net::FaultKind::kLinkDown, position, 1});
      plan.events.push_back(
          {kPsPerUs / 2 + 8 * kPsPerUs, net::FaultKind::kLinkUp, position,
           1});
    }
    net::FaultInjector injector(net);
    injector.arm(plan);

    CollectiveOptions desc;
    desc.kind = combo.kind;
    desc.algorithm = combo.alg;
    desc.dtype = core::DType::kInt32;
    desc.data_bytes = 16_KiB;
    desc.seed = 100 + position;
    desc.retransmit_timeout_ps = 3 * kPsPerUs;
    desc.max_retransmits = 2;

    Communicator comm(net, topo.hosts);
    const CollectiveResult res = comm.run(desc);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.max_abs_err, 0.0);
    for (net::Switch* sw : net.switches()) {
      EXPECT_EQ(sw->installed_reduces(), 0u) << sw->name();
      EXPECT_EQ(sw->occupancy().current(), 0u) << sw->name();
    }
  }
}

class SingleLinkFailure : public ::testing::TestWithParam<u32> {};

TEST_P(SingleLinkFailure, EveryComboCompletes) {
  run_all_combos_under_fault(/*fail_switch=*/false, GetParam());
}

// 8 host access links + 8 leaf-spine uplinks (duplex indices follow the
// fat-tree builder's connect() order).
INSTANTIATE_TEST_SUITE_P(Positions, SingleLinkFailure,
                         ::testing::Range<u32>(0, 16));

class SingleSwitchFailure : public ::testing::TestWithParam<u32> {};

TEST_P(SingleSwitchFailure, EveryComboCompletes) {
  run_all_combos_under_fault(/*fail_switch=*/true, GetParam());
}

// 2 spines then 4 leaves.
INSTANTIATE_TEST_SUITE_P(Positions, SingleSwitchFailure,
                         ::testing::Range<u32>(0, 6));

// ----------------------------------------------------- tenant additivity --

TEST(MultiTenantProperty, TrafficIsAdditive) {
  // Two concurrent nonblocking handles move (approximately) the sum of
  // what each moves alone — the fabric does not duplicate or lose traffic
  // under sharing.
  const u64 Z = 32_KiB;
  auto solo_traffic = [&](u64 seed) {
    net::Network net;
    auto topo = net::build_single_switch(net, 8);
    CollectiveOptions desc;
    desc.algorithm = Algorithm::kFlareDense;
    desc.data_bytes = Z;
    desc.seed = seed;
    const auto res = run_collective(net, topo.hosts, desc);
    EXPECT_TRUE(res.ok);
    return res.total_traffic_bytes;
  };
  const u64 a = solo_traffic(1), b = solo_traffic(2);

  net::Network net;
  auto topo = net::build_single_switch(net, 8);
  CollectiveOptions desc;
  desc.algorithm = Algorithm::kFlareDense;
  desc.data_bytes = Z;
  Communicator c1(net, topo.hosts), c2(net, topo.hosts);
  desc.seed = 1;
  auto h1 = c1.start(desc);
  desc.seed = 2;
  auto h2 = c2.start(desc);
  net.sim().run();
  ASSERT_TRUE(h1.done() && h2.done());
  ASSERT_TRUE(h1.result().ok && h2.result().ok);
  // Per-tenant deltas overlap in time, so compare the NETWORK-wide total:
  // sharing must neither duplicate nor drop traffic.
  const u64 together = net.total_traffic_bytes();
  EXPECT_NEAR(static_cast<f64>(together) / static_cast<f64>(a + b), 1.0,
              0.02);
}

// ------------------------------------------------------------ root sweep --

enum class CostMode { kNone, kRandom, kQuantized };
constexpr const char* kCostModes[] = {"NoCosts", "RandomCosts",
                                      "QuantizedCosts"};

constexpr const char* kSweepFabrics[] = {
    "single8", "fat16r4", "fat64r8", "fat128r16", "fat32r16", "fat3r8p3"};

std::vector<net::Host*> build_sweep_fabric(net::Network& net, u32 which) {
  const auto fat = [&net](u32 hosts, u32 radix) {
    net::FatTreeSpec spec;
    spec.hosts = hosts;
    spec.radix = radix;
    return net::build_fat_tree(net, spec).hosts;
  };
  switch (which) {
    case 0:
      return net::build_single_switch(net, 8).hosts;
    case 1:
      return fat(16, 4);
    case 2:
      return fat(64, 8);
    case 3:
      return fat(128, 16);
    case 4:
      return fat(32, 16);  // 4 parallel links per leaf-spine pair
    default: {
      net::FatTree3Spec spec;
      spec.radix = 8;
      spec.pods = 3;
      return net::build_fat_tree_3level(net, spec).hosts;
    }
  }
}

void expect_same_tree(const ReductionTree& a, const ReductionTree& b) {
  EXPECT_EQ(a.root, b.root);
  EXPECT_EQ(std::bit_cast<u64>(a.cost), std::bit_cast<u64>(b.cost))
      << a.cost << " vs " << b.cost;
  EXPECT_EQ(a.max_depth, b.max_depth);
  EXPECT_EQ(a.host_child_index, b.host_child_index);
  ASSERT_EQ(a.switches.size(), b.switches.size());
  for (std::size_t i = 0; i < a.switches.size(); ++i) {
    const TreeSwitchEntry& x = a.switches[i];
    const TreeSwitchEntry& y = b.switches[i];
    EXPECT_EQ(x.sw, y.sw) << "entry " << i;
    EXPECT_EQ(x.depth, y.depth) << "entry " << i;
    EXPECT_EQ(x.parent_port, y.parent_port) << "entry " << i;
    EXPECT_EQ(x.child_index_at_parent, y.child_index_at_parent)
        << "entry " << i;
    EXPECT_EQ(x.child_ports, y.child_ports) << "entry " << i;
    EXPECT_EQ(x.num_children, y.num_children) << "entry " << i;
  }
}

/// The embedding oracle: root's tree built from scratch, independent of
/// the manager's cached fabric view and early-exit search.  It reads
/// net.neighbors() and port_usable fresh, runs a full BFS (no provider) or
/// Dijkstra (provider) with no early exit, and applies the documented
/// rules: switches settle in (cost, id) order, the first strict
/// improvement sets a predecessor, parent and child ports are the first
/// usable port toward the peer, and BFS order lists each switch's
/// participant hosts (participant order) before its child switches (port
/// order).
std::optional<ReductionTree> oracle_tree(
    net::Network& net, const std::vector<net::Host*>& parts, net::NodeId root,
    const NetworkManager::LinkCostFn& cost) {
  const auto link_cost = [&cost](net::NodeId node, u32 port) {
    return cost ? cost(node, port) : 1.0;
  };
  const auto live_switch = [&net](net::NodeId id) {
    const net::Switch* sw = net.switch_at(id);
    return sw != nullptr && !sw->failed();
  };
  // Usable switch-to-switch ports of `u`, in port order.
  const auto switch_ports = [&](net::NodeId u) {
    std::vector<net::PortPeer> out;
    if (!live_switch(u)) return out;
    for (const net::PortPeer& pp : net.neighbors(u)) {
      if (net.switch_at(pp.peer) != nullptr && net.port_usable(u, pp.my_port))
        out.push_back(pp);
    }
    return out;
  };
  const auto first_port = [&](net::NodeId u, net::NodeId peer) {
    for (const net::PortPeer& pp : switch_ports(u)) {
      if (pp.peer == peer) return pp.my_port;
    }
    return UINT32_MAX;
  };
  if (!live_switch(root)) return std::nullopt;

  // Participants' leaves and the leaves' ports toward them.
  std::vector<net::NodeId> leaf(parts.size());
  std::vector<u32> leaf_port(parts.size(), UINT32_MAX);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const auto& adj = net.neighbors(parts[i]->id());
    if (!net.port_usable(parts[i]->id(), adj[0].my_port)) return std::nullopt;
    leaf[i] = adj[0].peer;
    for (const net::PortPeer& pp : net.neighbors(leaf[i])) {
      if (pp.peer == parts[i]->id()) {
        leaf_port[i] = pp.my_port;
        break;
      }
    }
  }

  const u32 n = net.num_nodes();
  std::vector<bool> reached(n, false), settled(n, false);
  std::vector<f64> dist(n, 0.0);
  std::vector<u32> depth(n, 0);
  std::vector<net::NodeId> pred(n, net::kInvalidNode);
  reached[root] = true;
  if (!cost) {
    std::vector<net::NodeId> queue = {root};
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const net::NodeId u = queue[head];
      for (const net::PortPeer& pp : switch_ports(u)) {
        if (reached[pp.peer]) continue;
        reached[pp.peer] = true;
        depth[pp.peer] = depth[u] + 1;
        pred[pp.peer] = u;
        queue.push_back(pp.peer);
      }
    }
  } else {
    for (;;) {
      net::NodeId u = net::kInvalidNode;
      for (net::NodeId v = 0; v < n; ++v) {
        if (reached[v] && !settled[v] &&
            (u == net::kInvalidNode || dist[v] < dist[u])) {
          u = v;  // ascending ids: the lowest id wins a cost tie
        }
      }
      if (u == net::kInvalidNode) break;
      settled[u] = true;
      for (const net::PortPeer& pp : switch_ports(u)) {
        const f64 d = dist[u] + link_cost(u, pp.my_port);
        if (reached[pp.peer] && d >= dist[pp.peer]) continue;
        reached[pp.peer] = true;
        dist[pp.peer] = d;
        depth[pp.peer] = depth[u] + 1;
        pred[pp.peer] = u;
      }
    }
  }

  std::vector<bool> needed(n, false);
  for (const net::NodeId l : leaf) {
    if (!reached[l]) return std::nullopt;
    for (net::NodeId v = l; v != net::kInvalidNode; v = pred[v]) {
      needed[v] = true;
    }
  }

  ReductionTree tree;
  tree.root = root;
  tree.host_child_index.assign(net.hosts().size(), 0);
  std::vector<u16> index_at_parent(n, 0);
  std::vector<net::NodeId> order = {root};
  for (std::size_t head = 0; head < order.size(); ++head) {
    const net::NodeId u = order[head];
    TreeSwitchEntry e;
    e.sw = net.switch_at(u);
    e.depth = depth[u];
    if (u != root) {
      e.parent_port = first_port(u, pred[u]);
      e.child_index_at_parent = index_at_parent[u];
    }
    u16 next = 0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (leaf[i] != u) continue;
      e.child_ports.push_back(leaf_port[i]);
      tree.host_child_index[parts[i]->host_index()] = next++;
    }
    for (const net::PortPeer& pp : switch_ports(u)) {
      if (needed[pp.peer] && pred[pp.peer] == u &&
          first_port(u, pp.peer) == pp.my_port) {
        e.child_ports.push_back(pp.my_port);
        index_at_parent[pp.peer] = next++;
        order.push_back(pp.peer);
      }
    }
    e.num_children = next;
    tree.max_depth = std::max(tree.max_depth, e.depth);
    for (const u32 p : e.child_ports) tree.cost += link_cost(u, p);
    tree.switches.push_back(std::move(e));
  }
  return tree;
}

/// The oracle's answers to cheapest_tree (strict <, first root in
/// net.switches() order wins) and ranked_trees (install_with_retry's
/// preference order).
std::optional<ReductionTree> oracle_cheapest(
    net::Network& net, const std::vector<net::Host*>& parts,
    const NetworkManager::LinkCostFn& cost) {
  std::optional<ReductionTree> best;
  for (const net::Switch* sw : net.switches()) {
    std::optional<ReductionTree> t = oracle_tree(net, parts, sw->id(), cost);
    if (t && (!best || t->cost < best->cost)) best = std::move(t);
  }
  return best;
}

std::vector<ReductionTree> oracle_ranked(
    net::Network& net, const std::vector<net::Host*>& parts,
    const NetworkManager::LinkCostFn& cost) {
  std::vector<ReductionTree> all;
  for (const net::Switch* sw : net.switches()) {
    std::optional<ReductionTree> t = oracle_tree(net, parts, sw->id(), cost);
    if (t) all.push_back(std::move(*t));
  }
  if (cost) {
    std::sort(all.begin(), all.end(),
              [](const ReductionTree& a, const ReductionTree& b) {
                if (a.cost != b.cost) return a.cost < b.cost;
                if (a.switches.size() != b.switches.size())
                  return a.switches.size() < b.switches.size();
                if (a.max_depth != b.max_depth)
                  return a.max_depth < b.max_depth;
                return a.root < b.root;
              });
  } else {
    std::sort(all.begin(), all.end(),
              [](const ReductionTree& a, const ReductionTree& b) {
                if (a.switches.size() != b.switches.size())
                  return a.switches.size() < b.switches.size();
                return a.max_depth < b.max_depth;
              });
  }
  return all;
}

/// compute_tree at every root, cheapest_tree and ranked_trees of `mgr`
/// against the oracle under the same provider.
void expect_matches_oracle(NetworkManager& mgr, net::Network& net,
                           const std::vector<net::Host*>& parts,
                           const NetworkManager::LinkCostFn& cost) {
  for (const net::Switch* sw : net.switches()) {
    SCOPED_TRACE("root " + sw->name());
    const std::optional<ReductionTree> got = mgr.compute_tree(parts, sw->id());
    const std::optional<ReductionTree> want =
        oracle_tree(net, parts, sw->id(), cost);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got) expect_same_tree(*got, *want);
  }
  const std::optional<ReductionTree> best = mgr.cheapest_tree(parts);
  const std::optional<ReductionTree> want_best =
      oracle_cheapest(net, parts, cost);
  ASSERT_EQ(best.has_value(), want_best.has_value());
  if (best) expect_same_tree(*best, *want_best);
  const std::vector<ReductionTree> ranked = mgr.ranked_trees(parts);
  const std::vector<ReductionTree> want_ranked =
      oracle_ranked(net, parts, cost);
  ASSERT_EQ(ranked.size(), want_ranked.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    SCOPED_TRACE("rank " + std::to_string(i));
    expect_same_tree(ranked[i], want_ranked[i]);
  }
}

class RootSweep
    : public ::testing::TestWithParam<std::tuple<u32, CostMode, bool>> {};

TEST_P(RootSweep, EqualsPerRootReference) {
  const auto [fabric, mode, faults] = GetParam();
  u32 spanned = 0;
  for (u32 trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(0x5EE9ull * (fabric + 1) + 97 * static_cast<u64>(mode) +
            (faults ? 7 : 0) + 1000 * trial);
    net::Network net;
    const std::vector<net::Host*> hosts = build_sweep_fabric(net, fabric);
    NetworkManager mgr(net);
    // A fixed table per directed port: the provider must be a pure
    // function of (node, port) within one query.
    std::vector<std::vector<f64>> table(net.num_nodes());
    for (net::NodeId id = 0; id < net.num_nodes(); ++id) {
      for (std::size_t p = 0; p < net.neighbors(id).size(); ++p) {
        table[id].push_back(mode == CostMode::kQuantized
                                ? 1.0 + static_cast<f64>(rng.uniform_u64(3))
                                : rng.uniform(1.0, 9.0));
      }
    }
    NetworkManager::LinkCostFn provider;
    if (mode != CostMode::kNone) {
      provider = [&table](net::NodeId node, u32 port) {
        return table[node][port];
      };
    }
    mgr.set_link_cost(provider);
    if (faults) {
      std::vector<bool> access(net.num_duplex_links(), false);
      for (const net::Host* h : hosts) {
        access[net.node(h->id()).port(0).index() / 2] = true;
      }
      for (u32 i = 0; i < net.num_duplex_links(); ++i) {
        if (rng.uniform_u64(access[i] ? 32 : 6) == 0) {
          net.set_duplex_up(i, false);
        }
      }
      if (net.switches().size() > 1) {
        net.switches()[rng.uniform_u64(net.switches().size())]->fail();
      }
    }
    // A random participant subset (in random order), at least two hosts;
    // on even trials only hosts whose access link still works, so faulted
    // fabrics span too.
    std::vector<net::Host*> parts;
    for (net::Host* h : hosts) {
      if (trial % 2 == 1 || net.port_usable(h->id(), 0)) parts.push_back(h);
    }
    ASSERT_GE(parts.size(), 2u);
    for (std::size_t i = parts.size(); i > 1; --i) {
      std::swap(parts[i - 1], parts[rng.uniform_u64(i)]);
    }
    parts.resize(2 + rng.uniform_u64(parts.size() - 1));

    expect_matches_oracle(mgr, net, parts, provider);
    if (oracle_cheapest(net, parts, provider)) ++spanned;
  }
  EXPECT_GT(spanned, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, RootSweep,
    ::testing::Combine(::testing::Range<u32>(0, 6),
                       ::testing::Values(CostMode::kNone, CostMode::kRandom,
                                         CostMode::kQuantized),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(kSweepFabrics[std::get<0>(info.param)]) + "_" +
             kCostModes[static_cast<u32>(std::get<1>(info.param))] +
             (std::get<2>(info.param) ? "_Faults" : "_Healthy");
    });

// One manager keeps its fabric view across queries.  Between fault
// notices — links down and up, switches failed and restarted — each of
// its answers must equal a freshly constructed manager's and the
// oracle's, including the second query after a change, which reuses the
// view.
TEST(EmbeddingOracle, CachedViewFollowsEveryFaultNotice) {
  for (const CostMode mode : {CostMode::kNone, CostMode::kRandom}) {
    for (const u32 fabric : {4u, 5u}) {  // parallel links; three levels
      SCOPED_TRACE(std::string(kSweepFabrics[fabric]) + "_" +
                   kCostModes[static_cast<u32>(mode)]);
      Rng rng(0xFAB1ull + 31 * fabric + static_cast<u64>(mode));
      net::Network net;
      const std::vector<net::Host*> hosts = build_sweep_fabric(net, fabric);
      std::vector<std::vector<f64>> table(net.num_nodes());
      for (net::NodeId id = 0; id < net.num_nodes(); ++id) {
        for (std::size_t p = 0; p < net.neighbors(id).size(); ++p) {
          table[id].push_back(rng.uniform(1.0, 9.0));
        }
      }
      NetworkManager::LinkCostFn provider;
      if (mode != CostMode::kNone) {
        provider = [&table](net::NodeId node, u32 port) {
          return table[node][port];
        };
      }
      NetworkManager mgr(net);
      mgr.set_link_cost(provider);
      std::vector<u32> down;
      std::vector<net::Switch*> failed;
      for (u32 step = 0; step < 24; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        switch (rng.uniform_u64(4)) {
          case 0: {
            const u32 i = static_cast<u32>(
                rng.uniform_u64(net.num_duplex_links()));
            net.set_duplex_up(i, false);
            down.push_back(i);
            break;
          }
          case 1:
            if (!down.empty()) {
              const std::size_t k = rng.uniform_u64(down.size());
              net.set_duplex_up(down[k], true);
              down.erase(down.begin() + static_cast<std::ptrdiff_t>(k));
            }
            break;
          case 2: {
            net::Switch* sw =
                net.switches()[rng.uniform_u64(net.switches().size())];
            if (!sw->failed()) {
              sw->fail();
              failed.push_back(sw);
            }
            break;
          }
          default:
            if (!failed.empty()) {
              const std::size_t k = rng.uniform_u64(failed.size());
              failed[k]->restart();
              failed.erase(failed.begin() + static_cast<std::ptrdiff_t>(k));
            }
            break;
        }
        for (u32 query = 0; query < 2; ++query) {
          std::vector<net::Host*> parts;
          for (net::Host* h : hosts) {
            if (query == 1 || net.port_usable(h->id(), 0)) parts.push_back(h);
          }
          if (parts.size() < 2) parts = hosts;
          for (std::size_t i = parts.size(); i > 1; --i) {
            std::swap(parts[i - 1], parts[rng.uniform_u64(i)]);
          }
          parts.resize(2 + rng.uniform_u64(parts.size() - 1));

          NetworkManager fresh(net);
          fresh.set_link_cost(provider);
          const net::NodeId root =
              net.switches()[rng.uniform_u64(net.switches().size())]->id();
          const std::optional<ReductionTree> a = mgr.compute_tree(parts, root);
          const std::optional<ReductionTree> b =
              fresh.compute_tree(parts, root);
          ASSERT_EQ(a.has_value(), b.has_value());
          if (a) expect_same_tree(*a, *b);
          const std::optional<ReductionTree> ca = mgr.cheapest_tree(parts);
          const std::optional<ReductionTree> cb = fresh.cheapest_tree(parts);
          ASSERT_EQ(ca.has_value(), cb.has_value());
          if (ca) expect_same_tree(*ca, *cb);
          const std::vector<ReductionTree> ra = mgr.ranked_trees(parts);
          const std::vector<ReductionTree> rb = fresh.ranked_trees(parts);
          ASSERT_EQ(ra.size(), rb.size());
          for (std::size_t i = 0; i < ra.size(); ++i) {
            expect_same_tree(ra[i], rb[i]);
          }
          expect_matches_oracle(mgr, net, parts, provider);
        }
      }
    }
  }
}

}  // namespace
}  // namespace flare::coll
