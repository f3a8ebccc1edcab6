// Co-placement plane (src/place/): CostSnapshot freeze determinism, the
// placement descent (replay stability, fleet splitting, a pinned plan, a
// seeded corpus checked against the simulated-annealing oracle in
// sa_oracle.hpp, and the access floor that prunes its sweeps), the
// hysteresis filter, plan-conflict detection, and the service placement
// plane end to end — planned migrations with reactive migration disabled,
// plan application under injected switch faults, a stuck job that must
// drain instead of hanging, and cross-job admission scoring.
//
// Topology used throughout: 32 hosts x radix-8 fat tree = 8 leaves (4 hosts
// each) x 4 spines, one link per leaf-spine pair — an allreduce over two
// leaves has four equal-size embeddings, so placement is purely a heat
// decision (same fabric as congestion_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>

#include "coll/communicator.hpp"
#include "net/telemetry.hpp"
#include "place/optimizer.hpp"
#include "place/snapshot.hpp"
#include "sa_oracle.hpp"
#include "service/service.hpp"

namespace flare {
namespace {

using namespace flare::net;

FatTreeSpec four_spine_spec() {
  FatTreeSpec spec;
  spec.hosts = 32;
  spec.radix = 8;  // 8 leaves x 4 spines, single link per leaf-spine pair
  return spec;
}

u32 link_by_name(Network& net, const std::string& name) {
  for (u32 i = 0; i < net.num_links(); ++i) {
    if (net.link(i).name() == name) return i;
  }
  ADD_FAILURE() << "no link named " << name;
  return UINT32_MAX;
}

/// Injects `bytes` of opaque load onto unidirectional link `i` (a stale
/// reduce-down frame: dropped on arrival, but the link serializes every
/// byte — the same surgical heater congestion_test.cpp uses).
void heat_link(Network& net, u32 i, u64 bytes) {
  std::vector<i32> dummy(4, 0);
  core::Packet p = core::make_dense_packet(0x7EA70000u, 0, 0, dummy.data(),
                                           4, core::DType::kInt32);
  NetPacket np;
  np.kind = PacketKind::kReduceDown;
  np.allreduce_id = 0x7EA70000u;  // installed nowhere: dropped on arrival
  np.wire_bytes = bytes;
  np.reduce = std::make_shared<const core::Packet>(std::move(p));
  net.link(i).send(std::move(np));
}

/// Heats both directions of every link between `sw` and the given peers.
void heat_switch_links(Network& net, const std::string& sw,
                       const std::vector<std::string>& peers, u64 bytes) {
  for (const std::string& peer : peers) {
    heat_link(net, link_by_name(net, sw + "->" + peer), bytes);
    heat_link(net, link_by_name(net, peer + "->" + sw), bytes);
  }
}

/// Hosts by index into the built topology (leaf l owns hosts [4l, 4l+4)).
std::vector<Host*> pick_hosts(const BuiltTopology& topo,
                              std::initializer_list<u32> idx) {
  std::vector<Host*> out;
  for (const u32 i : idx) out.push_back(topo.hosts[i]);
  return out;
}

u32 total_installed(Network& net) {
  u32 installed = 0;
  for (Switch* s : net.switches()) installed += s->installed_reduces();
  return installed;
}

// ---------------------------------------------------------- CostSnapshot --

TEST(CostSnapshot, TwoFreezesOfOneInstantAreByteIdentical) {
  Network net;
  auto topo = build_fat_tree(net, four_spine_spec());
  CongestionMonitor monitor(net);
  coll::NetworkManager manager(net);

  monitor.sample();
  heat_switch_links(net, "spine1", {"leaf0", "leaf1"}, 8 * kMiB);
  net.sim().run();
  monitor.sample();

  const auto participants = pick_hosts(topo, {0, 1, 4, 5});
  auto tree0 = manager.compute_tree(participants, topo.spines[0]->id());
  auto tree1 = manager.compute_tree(participants, topo.spines[1]->id());
  ASSERT_TRUE(tree0 && tree1);

  // Handed out of job-id order on purpose: freeze() must sort.
  const auto inputs = [&] {
    std::vector<place::JobInput> in(2);
    in[0].job_id = 7;
    in[0].trace = 11;
    in[0].data_bytes = 1 * kMiB;
    in[0].participants = participants;
    in[0].tree = *tree1;
    in[1].job_id = 3;
    in[1].trace = 12;
    in[1].data_bytes = 2 * kMiB;
    in[1].participants = participants;
    in[1].tree = *tree0;
    return in;
  };
  const place::CostSnapshot a =
      place::CostSnapshot::freeze(net, monitor, inputs());
  const place::CostSnapshot b =
      place::CostSnapshot::freeze(net, monitor, inputs());
  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_FALSE(a.serialize().empty());

  ASSERT_EQ(a.jobs().size(), 2u);
  EXPECT_EQ(a.jobs()[0].job_id, 3u);  // ascending job_id
  EXPECT_EQ(a.jobs()[1].job_id, 7u);
  EXPECT_EQ(a.num_links(), net.num_links());

  // The heated spine1 links are BACKGROUND (no active trace owns them);
  // traceless jobs carry the cold-start prior and a non-empty link set.
  f64 total_bg = 0.0;
  for (const f64 v : a.background()) total_bg += v;
  EXPECT_GT(total_bg, 0.0);
  for (const place::JobView& jv : a.jobs()) {
    EXPECT_EQ(jv.weight, place::kColdStartWeight);
    EXPECT_FALSE(jv.links.empty());
    EXPECT_TRUE(std::is_sorted(jv.links.begin(), jv.links.end()));
  }
}

// ----------------------------------------------------- PlacementOptimizer --

/// Two jobs with disjoint hosts but one shared leaf, both embedded through
/// spine0: the shared leaf1<->spine0 edge carries both, and three cool
/// spines sit idle — the joint search must split the pair.  No single-job
/// move improves here; only the pair escape does.
TEST(PlacementOptimizer, SamePlanTwiceAndStackedJobsSplit) {
  Network net;
  auto topo = build_fat_tree(net, four_spine_spec());
  CongestionMonitor monitor(net);
  coll::NetworkManager manager(net);
  monitor.sample();

  const NodeId spine0 = topo.spines[0]->id();
  const auto hosts_a = pick_hosts(topo, {0, 1, 4, 5});   // leaf0 + leaf1
  const auto hosts_b = pick_hosts(topo, {6, 7, 8, 9});   // leaf1 + leaf2
  auto tree_a = manager.compute_tree(hosts_a, spine0);
  auto tree_b = manager.compute_tree(hosts_b, spine0);
  ASSERT_TRUE(tree_a && tree_b);

  std::vector<place::JobInput> inputs(2);
  inputs[0].job_id = 0;
  inputs[0].trace = 21;
  inputs[0].data_bytes = 64 * kKiB;
  inputs[0].participants = hosts_a;
  inputs[0].tree = *tree_a;
  inputs[1].job_id = 1;
  inputs[1].trace = 22;
  inputs[1].data_bytes = 64 * kKiB;
  inputs[1].participants = hosts_b;
  inputs[1].tree = *tree_b;
  const place::CostSnapshot snap =
      place::CostSnapshot::freeze(net, monitor, std::move(inputs));

  place::PlacementOptimizer o1(net, place::OptimizerOptions{});
  place::PlacementOptimizer o2(net, place::OptimizerOptions{});
  const place::PlacementPlan p1 = o1.optimize(snap);
  const place::PlacementPlan p2 = o2.optimize(snap);

  // One snapshot -> the same plan, bit for bit.
  EXPECT_EQ(p1.cost_before, p2.cost_before);
  EXPECT_EQ(p1.cost_after, p2.cost_after);
  EXPECT_EQ(p1.passes, p2.passes);
  EXPECT_EQ(p1.root_sweeps, p2.root_sweeps);
  EXPECT_EQ(p1.proposed, p2.proposed);
  ASSERT_EQ(p1.moves.size(), p2.moves.size());
  for (std::size_t i = 0; i < p1.moves.size(); ++i) {
    EXPECT_EQ(p1.moves[i].job_id, p2.moves[i].job_id);
    EXPECT_EQ(p1.moves[i].old_root, p2.moves[i].old_root);
    EXPECT_EQ(p1.moves[i].new_root, p2.moves[i].new_root);
    EXPECT_EQ(p1.moves[i].predicted_gain, p2.moves[i].predicted_gain);
  }

  // The split: the final assignment beats the stacked one and ends with
  // the two jobs on different roots, every surviving move a real change.
  EXPECT_LT(p1.cost_after, p1.cost_before);
  ASSERT_GE(p1.moves.size(), 1u);
  NodeId final_root[2] = {spine0, spine0};
  for (const place::PlannedMove& mv : p1.moves) {
    ASSERT_LT(mv.job_id, 2u);
    EXPECT_EQ(mv.old_root, spine0);
    EXPECT_NE(mv.new_root, mv.old_root);
    EXPECT_GT(mv.predicted_gain, 0.0);
    final_root[mv.job_id] = mv.new_root;
  }
  EXPECT_NE(final_root[0], final_root[1]);

  // The co-tenant case: the descent reaches the annealing oracle's
  // objective exactly.
  EXPECT_EQ(p1.cost_after, testing::sa_best_objective(net, snap));
}

/// Corpus case `c`, frozen on `net`: 2-6 jobs over two or three of six
/// leaves, one host per leaf and no host shared while a leaf has a free
/// one, so co-tenants meet on leaf uplinks rather than on host links.
/// Each job is embedded through spine0 or a random spine, and up to three
/// spines' leaf links are heated.
place::CostSnapshot corpus_snapshot(Network& net, u64 c) {
  constexpr u32 kLeaves = 6;
  Rng rng(derive_seed(0x5A0C0E5ull, c));
  auto topo = build_fat_tree(net, four_spine_spec());
  CongestionMonitor monitor(net);
  coll::NetworkManager manager(net);
  monitor.sample();
  for (const char* sp : {"spine1", "spine2", "spine3"}) {
    if (rng.uniform_u64(2) == 0) continue;
    std::vector<std::string> leaves;
    for (u32 l = 0; l < kLeaves; ++l) {
      if (rng.uniform_u64(2) == 0) {
        leaves.push_back("leaf" + std::to_string(l));
      }
    }
    heat_switch_links(net, sp, leaves, (1 + rng.uniform_u64(6)) * kMiB);
  }
  net.sim().run();
  monitor.sample();

  const u32 num_jobs = 2 + static_cast<u32>(rng.uniform_u64(5));
  u32 next_host[kLeaves] = {};  // per leaf, the next host to hand out
  std::vector<place::JobInput> inputs(num_jobs);
  for (u32 j = 0; j < num_jobs; ++j) {
    std::vector<u32> leaves;
    const u64 want = 2 + rng.uniform_u64(2);
    while (leaves.size() < want) {
      const u32 l = static_cast<u32>(rng.uniform_u64(kLeaves));
      if (std::find(leaves.begin(), leaves.end(), l) == leaves.end()) {
        leaves.push_back(l);
      }
    }
    std::vector<Host*> hosts;
    for (const u32 l : leaves) {
      hosts.push_back(topo.hosts[4 * l + next_host[l]++ % 4]);
    }
    const u64 spine = rng.uniform_u64(2) == 0 ? 0 : rng.uniform_u64(4);
    auto tree = manager.compute_tree(hosts, topo.spines[spine]->id());
    EXPECT_TRUE(tree);
    inputs[j].job_id = j;
    inputs[j].trace = 41 + j;
    inputs[j].data_bytes = (1 + rng.uniform_u64(4)) * 32 * kKiB;
    inputs[j].participants = std::move(hosts);
    inputs[j].tree = std::move(*tree);
  }
  return place::CostSnapshot::freeze(net, monitor, std::move(inputs));
}

constexpr u64 kCorpusCases = 24;

/// The seeded corpus checked against the annealing oracle: the descent
/// never ends more than 0.5% above the best objective SA visits.
TEST(PlacementOptimizer, DescentWithinHalfPercentOfSaOracleOnSeededCorpus) {
  for (u64 c = 0; c < kCorpusCases; ++c) {
    SCOPED_TRACE("corpus case " + std::to_string(c));
    Network net;
    const place::CostSnapshot snap = corpus_snapshot(net, c);
    place::PlacementOptimizer opt(net, place::OptimizerOptions{});
    const place::PlacementPlan plan = opt.optimize(snap);
    testing::SaOptions sa;
    sa.seed = derive_seed(0xC0F1ACEull, c);
    const f64 oracle = testing::sa_best_objective(net, snap, sa);
    EXPECT_LE(plan.cost_after, plan.cost_before);
    EXPECT_LE(plan.cost_after, oracle * 1.005)
        << "descent " << plan.cost_after << " vs SA " << oracle;
  }
}

/// The placement objective of `links`, with loads summed from the
/// background in ascending job order (as the descent sums them).
f64 objective_of(const place::CostSnapshot& snap,
                 const std::vector<std::vector<u32>>& links) {
  std::vector<f64> load = snap.background();
  for (std::size_t j = 0; j < links.size(); ++j) {
    for (const u32 l : links[j]) load[l] += snap.jobs()[j].weight;
  }
  return place::placement_objective(snap, links, load,
                                    place::OptimizerOptions{}.heat_exponent);
}

/// The floor the descent prunes with: on every corpus snapshot, cutting a
/// job (or a pair) back to its access links scores at most what any of
/// its embeddings scores (every root's tree, under hop counts and under
/// load-costed links), and the admission floor is at most the admission
/// score.
TEST(PlacementOptimizer, AccessFloorBoundsEveryEmbedding) {
  for (u64 c = 0; c < kCorpusCases; ++c) {
    SCOPED_TRACE("corpus case " + std::to_string(c));
    Network net;
    const place::CostSnapshot snap = corpus_snapshot(net, c);
    const std::vector<place::JobView>& jobs = snap.jobs();
    coll::NetworkManager plain(net);
    coll::NetworkManager costed(net);
    costed.set_link_cost([&snap, &net](NodeId node, u32 port) {
      const Link& fwd = net.node(node).port(port);
      return 1.0 + snap.load()[fwd.index()] +
             snap.load()[fwd.reverse()->index()];
    });
    // Per job: every candidate embedding's link set.
    std::vector<std::vector<std::vector<u32>>> cands(jobs.size());
    std::vector<std::vector<u32>> links;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      links.push_back(jobs[j].links);
      for (coll::NetworkManager* m : {&plain, &costed}) {
        for (const coll::ReductionTree& t :
             m->ranked_trees(jobs[j].participants)) {
          cands[j].push_back(snap.tree_links(t));
        }
      }
      ASSERT_FALSE(cands[j].empty());
    }
    place::PlacementOptimizer opt(net, place::OptimizerOptions{});
    for (std::size_t a = 0; a < jobs.size(); ++a) {
      EXPECT_LE(place::admission_floor(snap, jobs[a].participants),
                opt.admission_score(snap, jobs[a].participants));
      const std::vector<u32>& acc = jobs[a].access;
      std::vector<std::vector<u32>> trial = links;
      trial[a] = acc;
      const f64 floor_a = objective_of(snap, trial);
      for (const std::vector<u32>& ca : cands[a]) {
        ASSERT_TRUE(
            std::includes(ca.begin(), ca.end(), acc.begin(), acc.end()));
        trial[a] = ca;
        EXPECT_LE(floor_a, objective_of(snap, trial)) << "job " << a;
      }
      for (std::size_t b = a + 1; b < jobs.size(); ++b) {
        trial = links;
        trial[a] = acc;
        trial[b] = jobs[b].access;
        const f64 floor_ab = objective_of(snap, trial);
        for (const std::vector<u32>& ca : cands[a]) {
          for (const std::vector<u32>& cb : cands[b]) {
            trial[a] = ca;
            trial[b] = cb;
            EXPECT_LE(floor_ab, objective_of(snap, trial))
                << "jobs " << a << "+" << b;
          }
        }
      }
    }
  }
}

/// Three jobs stacked on spine0 over a fabric with heated spine1 and
/// spine2 edges and every leaf3 uplink warm: every field of the plan and
/// one admission score, bit for bit.  The search's embedding queries and
/// link costs may be reorganized for speed, never for different answers.
TEST(PlacementOptimizer, PlanAndAdmissionScoreArePinnedBitForBit) {
  Network net;
  auto topo = build_fat_tree(net, four_spine_spec());
  CongestionMonitor monitor(net);
  coll::NetworkManager manager(net);
  monitor.sample();
  heat_switch_links(net, "spine1", {"leaf0", "leaf1"}, 6 * kMiB);
  heat_switch_links(net, "spine2", {"leaf2", "leaf5"}, 3 * kMiB);
  heat_switch_links(net, "leaf3", {"spine0", "spine1", "spine2", "spine3"},
                    2 * kMiB);
  net.sim().run();
  monitor.sample();

  const NodeId spine0 = topo.spines[0]->id();
  const std::vector<std::vector<Host*>> hosts = {
      pick_hosts(topo, {0, 1, 4, 5}),        // leaf0 + leaf1
      pick_hosts(topo, {6, 7, 8, 9}),        // leaf1 + leaf2
      pick_hosts(topo, {2, 3, 10, 11, 20}),  // leaf0 + leaf2 + leaf5
  };
  std::vector<place::JobInput> inputs(hosts.size());
  for (u32 j = 0; j < hosts.size(); ++j) {
    auto tree = manager.compute_tree(hosts[j], spine0);
    ASSERT_TRUE(tree);
    inputs[j].job_id = j;
    inputs[j].trace = 31 + j;
    inputs[j].data_bytes = (j + 1) * 32 * kKiB;
    inputs[j].participants = hosts[j];
    inputs[j].tree = *tree;
  }
  const place::CostSnapshot snap =
      place::CostSnapshot::freeze(net, monitor, std::move(inputs));

  place::PlacementOptimizer opt(net, place::OptimizerOptions{});
  const place::PlacementPlan plan = opt.optimize(snap);
  const f64 score =
      opt.admission_score(snap, pick_hosts(topo, {12, 13, 16, 17, 21}));
  EXPECT_EQ(std::bit_cast<u64>(plan.cost_before), 0x4003c8df2a9684f5ull);
  EXPECT_EQ(std::bit_cast<u64>(plan.cost_after), 0x3ff4cb949c31a941ull);
  EXPECT_EQ(plan.passes, 2u);
  EXPECT_EQ(plan.root_sweeps, 2u);
  EXPECT_EQ(plan.proposed, 19u);
  struct Move {
    u32 job;
    NodeId old_root;
    NodeId new_root;
    u64 gain;
  };
  const Move want[] = {
      {0, 0, 2, 0x3fd949c51da8a609ull},
      {1, 0, 3, 0x3fdc014677933065ull},
  };
  ASSERT_EQ(plan.moves.size(), std::size(want));
  for (std::size_t i = 0; i < plan.moves.size(); ++i) {
    SCOPED_TRACE("move " + std::to_string(i));
    EXPECT_EQ(plan.moves[i].job_id, want[i].job);
    EXPECT_EQ(plan.moves[i].old_root, want[i].old_root);
    EXPECT_EQ(plan.moves[i].new_root, want[i].new_root);
    EXPECT_EQ(std::bit_cast<u64>(plan.moves[i].predicted_gain), want[i].gain);
  }
  EXPECT_EQ(std::bit_cast<u64>(score), 0x3fd664c625978c56ull);
}

TEST(PlacementPlan, HysteresisDropsBelowThresholdMoves) {
  place::PlacementPlan plan;
  place::PlannedMove marginal;
  marginal.job_id = 1;
  marginal.predicted_gain = 0.01;
  place::PlannedMove real;
  real.job_id = 2;
  real.predicted_gain = 0.40;
  plan.moves = {marginal, real};

  EXPECT_EQ(place::filter_moves(plan, 0.05), 1u);
  ASSERT_EQ(plan.moves.size(), 1u);
  EXPECT_EQ(plan.moves[0].job_id, 2u);
  EXPECT_EQ(place::filter_moves(plan, 0.05), 0u);  // survivors stay
  EXPECT_EQ(place::filter_moves(plan, 0.50), 1u);  // raising the bar drops
  EXPECT_TRUE(plan.moves.empty());
}

// ------------------------------------------------------- service, planned --

/// End-to-end planned migration with REACTIVE migration disabled
/// (migrate_above = 0): two duty-cycled jobs land on the one cool spine
/// (the other three are hot at admission), the transient heat decays, and
/// only the co-placement plane can split them.  Every re-embedding observed
/// must therefore be optimizer-planned.
TEST(PlacementService, PlannedMigrationSplitsCoTenantsWithoutReactive) {
  Network net;
  auto topo = build_fat_tree(net, four_spine_spec());
  CongestionMonitor monitor(net);

  service::ServiceOptions opt;
  opt.root_policy = service::RootPolicy::kLeastCongested;
  opt.monitor = &monitor;
  opt.migrate_above = 0.0;  // reactive OFF: any move is the optimizer's
  opt.place_period_ps = 40 * kPsPerUs;
  opt.place_min_gain = 0.02;
  service::AllreduceService service(net, opt);

  // Spines 1..3 are hot over the jobs' leaves BEFORE arrival: admission
  // stacks both jobs onto spine0.  The heat is transient (drains in
  // ~170 us) — the starting point decays into a plainly bad assignment.
  monitor.sample();
  for (const char* sp : {"spine1", "spine2", "spine3"}) {
    heat_switch_links(net, sp, {"leaf0", "leaf1", "leaf2"}, 2 * kMiB);
  }
  net.sim().run();

  const auto submit = [&](std::initializer_list<u32> hosts) {
    service::JobSpec spec;
    spec.participants = pick_hosts(topo, hosts);
    spec.desc.data_bytes = 64 * kKiB;
    spec.desc.dtype = core::DType::kInt32;
    spec.iterations = 60;
    spec.iteration_gap_ps = 15 * kPsPerUs;  // partial duty cycle
    return service.submit(std::move(spec));
  };
  const u32 job_a = submit({0, 1, 4, 5});  // leaf0 + leaf1
  const u32 job_b = submit({6, 7, 8, 9});  // leaf1 + leaf2 (shares leaf1)
  ASSERT_TRUE(service.records()[job_a].in_network);
  ASSERT_TRUE(service.records()[job_b].in_network);
  // Both embeddings route through the one cool spine (the roots may differ
  // — least-congested also roots at cool leaves — but every path between
  // the jobs' leaves crosses spine0 while spines 1..3 are hot).
  EXPECT_EQ(service.records()[job_a].tree_root, topo.spines[0]->id());

  net.sim().run();

  const service::ServiceTelemetry& t = service.telemetry();
  for (const u32 job : {job_a, job_b}) {
    const service::JobRecord& rec = service.records()[job];
    EXPECT_EQ(rec.state, service::JobState::kDone);
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.iterations_done, 60u);
    EXPECT_EQ(rec.migrations, 0u) << "reactive migration is disabled";
  }
  EXPECT_EQ(t.migrations, 0u);
  EXPECT_GE(t.planned_migrations, 1u);
  EXPECT_GE(t.place.rounds, 2u);
  EXPECT_GE(t.place.moves_planned, 1u);
  EXPECT_GT(t.place.last_cost_before, 0.0);
  EXPECT_LE(t.place.last_cost_predicted, t.place.last_cost_before);
  EXPECT_EQ(service.records()[job_a].planned_migrations +
                service.records()[job_b].planned_migrations,
            t.planned_migrations);
  EXPECT_EQ(total_installed(net), 0u);  // no occupancy leak
}

/// Switch faults injected across an active placement plane: staged plans
/// race recoveries and dead targets, and every move must either apply
/// fully or be discarded — jobs complete, nothing leaks.
TEST(PlacementService, PlanApplicationIsLeakFreeUnderFaults) {
  Network net;
  auto topo = build_fat_tree(net, four_spine_spec());
  CongestionMonitor monitor(net);

  service::ServiceOptions opt;
  opt.root_policy = service::RootPolicy::kLeastCongested;
  opt.monitor = &monitor;
  opt.migrate_above = 0.0;
  opt.place_period_ps = 40 * kPsPerUs;
  opt.retransmit_timeout_ps = 15 * kPsPerUs;  // fault recovery on
  service::AllreduceService service(net, opt);

  monitor.sample();
  for (const char* sp : {"spine1", "spine2", "spine3"}) {
    heat_switch_links(net, sp, {"leaf0", "leaf1", "leaf2"}, 2 * kMiB);
  }
  net.sim().run();

  const auto submit = [&](std::initializer_list<u32> hosts) {
    service::JobSpec spec;
    spec.participants = pick_hosts(topo, hosts);
    spec.desc.data_bytes = 64 * kKiB;
    spec.desc.dtype = core::DType::kInt32;
    spec.iterations = 60;
    spec.iteration_gap_ps = 15 * kPsPerUs;
    return service.submit(std::move(spec));
  };
  const u32 job_a = submit({0, 1, 4, 5});
  const u32 job_b = submit({6, 7, 8, 9});
  ASSERT_TRUE(service.records()[job_a].in_network);
  ASSERT_TRUE(service.records()[job_b].in_network);

  // Kill the stacked spine mid-run (forces recovery while plans may be
  // staged against it), then a likely plan TARGET a bit later; restart
  // both so late rounds can re-plan onto them.
  net.sim().schedule_after(150 * kPsPerUs,
                           [sw = topo.spines[0]] { sw->fail(); });
  net.sim().schedule_after(300 * kPsPerUs,
                           [sw = topo.spines[1]] { sw->fail(); });
  net.sim().schedule_after(600 * kPsPerUs, [sw = topo.spines[0]] {
    sw->restart();
  });
  net.sim().schedule_after(600 * kPsPerUs, [sw = topo.spines[1]] {
    sw->restart();
  });
  net.sim().run();

  for (const u32 job : {job_a, job_b}) {
    const service::JobRecord& rec = service.records()[job];
    EXPECT_EQ(rec.state, service::JobState::kDone);
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.iterations_done, 60u);
    EXPECT_EQ(rec.migrations, 0u);
  }
  EXPECT_EQ(total_installed(net), 0u) << "plan apply/fault race leaked";
}

/// A job that can never finish must not keep a placement-enabled run alive:
/// one lost packet with no retransmission leaves job A stuck for good, and
/// once job B finishes the calendar holds only the placement round, which
/// must stop re-arming itself instead of spinning run() forever.
TEST(PlacementService, StuckJobDrainsInsteadOfHanging) {
  Network net;
  auto topo = build_fat_tree(net, four_spine_spec());
  CongestionMonitor monitor(net);

  service::ServiceOptions opt;
  opt.root_policy = service::RootPolicy::kLeastCongested;
  opt.monitor = &monitor;
  opt.place_period_ps = 40 * kPsPerUs;
  opt.retransmit_timeout_ps = 0;  // no stall bound: a lost packet is final
  service::AllreduceService service(net, opt);
  monitor.sample();

  const auto submit = [&](std::initializer_list<u32> hosts) {
    service::JobSpec spec;
    spec.participants = pick_hosts(topo, hosts);
    spec.desc.data_bytes = 64 * kKiB;
    spec.desc.dtype = core::DType::kInt32;
    spec.iterations = 4;
    spec.iteration_gap_ps = 15 * kPsPerUs;
    return service.submit(std::move(spec));
  };
  topo.hosts[0]->port(0).drop_next(1);  // host0's first contribution
  const u32 stuck = submit({0, 1, 4, 5});
  const u32 healthy = submit({8, 9, 12, 13});
  ASSERT_TRUE(service.records()[stuck].in_network);

  // Bounded first, so a regression fails here instead of hanging below.
  net.sim().run_until(100 * kPsPerMs);
  ASSERT_TRUE(net.sim().empty()) << "the placement plane kept a dead run alive";
  net.sim().run();

  EXPECT_FALSE(service.records()[stuck].ok);
  EXPECT_NE(service.records()[stuck].state, service::JobState::kDone);
  EXPECT_EQ(service.records()[healthy].state, service::JobState::kDone);
  EXPECT_TRUE(service.records()[healthy].ok);
  EXPECT_GE(service.telemetry().place.rounds, 1u);
}

// ----------------------------------------------------- admission scoring --

/// Slot scarcity (one reduction per switch) queues two jobs behind a long
/// runner; when the slots free, the hot job's leaf uplinks are saturated
/// and the scored drain admits the COOL job first, overtaking FIFO.
TEST(PlacementService, AdmissionScoringAdmitsCheapestQueuedJobFirst) {
  Network net;
  FatTreeSpec spec = four_spine_spec();
  spec.max_allreduces = 1;  // one job per switch: admission serializes
  auto topo = build_fat_tree(net, spec);
  CongestionMonitor monitor(net);

  service::ServiceOptions opt;
  opt.monitor = &monitor;
  opt.admission_scoring = true;
  opt.queue_timeout_ps = 0;  // wait for slots, never fall back
  service::AllreduceService service(net, opt);
  monitor.sample();

  // A holds leaf1 + leaf2 for ~150 us.
  service::JobSpec spec_a;
  spec_a.participants = pick_hosts(topo, {4, 5, 8, 9});  // leaf1 + leaf2
  spec_a.desc.data_bytes = 64 * kKiB;
  spec_a.desc.dtype = core::DType::kInt32;
  spec_a.iterations = 6;
  spec_a.iteration_gap_ps = 15 * kPsPerUs;
  const u32 job_a = service.submit(std::move(spec_a));
  ASSERT_TRUE(service.records()[job_a].in_network);

  // B (leaf0 + leaf1) and C (leaf2 + leaf3) queue behind A in FIFO order.
  service::JobSpec spec_b;
  spec_b.participants = pick_hosts(topo, {0, 1, 6, 7});
  spec_b.desc.data_bytes = 64 * kKiB;
  spec_b.desc.dtype = core::DType::kInt32;
  service.submit_at(5 * kPsPerUs, std::move(spec_b));

  service::JobSpec spec_c;
  spec_c.participants = pick_hosts(topo, {10, 11, 14, 15});
  spec_c.desc.data_bytes = 64 * kKiB;
  spec_c.desc.dtype = core::DType::kInt32;
  service.submit_at(10 * kPsPerUs, std::move(spec_c));

  // Saturate B's distinguishing leaf (leaf0, untouched by A and C) well
  // past A's completion: at drain time B is expensive, C is cheap.
  net.sim().schedule_at(15 * kPsPerUs, [&net] {
    heat_switch_links(net, "leaf0", {"spine0", "spine1", "spine2", "spine3"},
                      4 * kMiB);
  });
  net.sim().run();

  for (u32 job = 0; job < 3; ++job) {
    const service::JobRecord& rec = service.records()[job];
    EXPECT_EQ(rec.state, service::JobState::kDone) << "job " << job;
    EXPECT_TRUE(rec.ok) << "job " << job;
    EXPECT_TRUE(rec.in_network) << "job " << job;
  }
  EXPECT_GE(service.telemetry().admission_reorders, 1u);
  EXPECT_EQ(total_installed(net), 0u);
}

}  // namespace
}  // namespace flare
