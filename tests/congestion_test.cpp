// Congestion telemetry plane + congestion-aware dynamic tree adaptation:
// Link windowed counters, CongestionMonitor sampling determinism,
// cross-traffic injectors, congestion-aware embedding, persistent-session
// migration, the least-congested root policy, and the service-level
// congestion plane end to end.
//
// Topology used throughout: 32 hosts x radix-8 fat tree = 8 leaves (4 hosts
// each) x 4 spines, every leaf wired to every spine exactly once (no
// parallel links), so an allreduce over leaves 0+1 has FOUR equal-size
// 3-switch embeddings {spineX, leaf0, leaf1} — placement is purely a
// congestion decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "coll/communicator.hpp"
#include "coll/tree_cache.hpp"
#include "net/telemetry.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "workload/cross_traffic.hpp"

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

/// Injects `bytes` of opaque load directly onto unidirectional link `i`
/// (a stale reduce-down frame: switches and hosts drop it on arrival, but
/// the link serializes every byte — a surgical way to heat ONE link).
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

std::vector<Host*> first_hosts(const BuiltTopology& topo, u32 n) {
  return {topo.hosts.begin(), topo.hosts.begin() + n};
}

/// Wire-only filler frame for the Link micro-tests below: a minimal but
/// WELL-FORMED host message (the FLARE_VALIDATE packet-lifecycle check
/// rejects payloadless frames, and these tests only care about bytes).
NetPacket filler(u64 bytes) {
  NetPacket np;
  np.dst_node = 0;
  np.wire_bytes = bytes;
  np.msg = std::make_shared<HostMsg>();
  return np;
}

// ------------------------------------------------------------------ Link --

TEST(LinkCounters, WindowedUtilizationRecoversAfterIdle) {
  sim::Simulator sim;
  Link link(sim, 100e9, 0);
  link.set_deliver([](NetPacket&&) {});
  // 10 x 1250 B = 1000 ns busy committed at t=0.
  sim.schedule_at(0, [&] {
    for (int i = 0; i < 10; ++i) {
      link.send(filler(1250));
    }
  });
  sim.run();
  const u64 busy_at_1us = link.busy_cum_ps();
  EXPECT_EQ(busy_at_1us, 1000 * kPsPerNs);

  // A long idle phase: the LIFETIME number decays slowly and misleads,
  // the windowed number reads zero immediately.
  const SimTime idle_end = 101 * kPsPerUs;
  EXPECT_GT(link.utilization(idle_end), 0.0);
  EXPECT_EQ(Link::windowed_utilization(busy_at_1us, link.busy_cum_ps(),
                                       1 * kPsPerUs, idle_end),
            0.0);
}

TEST(LinkCounters, QueueBacklogIsVisible) {
  sim::Simulator sim;
  Link link(sim, 100e9, 0);
  link.set_deliver([](NetPacket&&) {});
  SimTime delay = 0;
  u64 queued = 0;
  sim.schedule_at(0, [&] {
    NetPacket a = filler(125000);  // 10 us of serialization
    link.send(std::move(a));
    delay = link.queue_delay_ps(sim.now());
    queued = link.queued_bytes(sim.now());
  });
  sim.run();
  EXPECT_EQ(delay, 10 * kPsPerUs);
  EXPECT_EQ(queued, 125000u);
  // Drained: no backlog left.
  EXPECT_EQ(link.queue_delay_ps(sim.now()), 0u);
  EXPECT_EQ(link.queued_bytes(sim.now()), 0u);
}

// --------------------------------------------------------------- monitor --

TEST(CongestionMonitor, EwmaTracksCrossTraffic) {
  Network net;
  auto topo = build_fat_tree(net, four_spine_spec());
  CongestionMonitor monitor(net);
  workload::CrossTrafficSpec spec;
  spec.seed = 7;
  spec.horizon_ps = 80 * kPsPerUs;
  workload::CrossTrafficInjector injector(net, spec);
  injector.arm();
  EXPECT_GT(injector.packets_armed(), 0u);
  monitor.arm_until(spec.horizon_ps);
  net.sim().run();

  EXPECT_GE(monitor.samples(), spec.horizon_ps / monitor.options().period_ps);
  f64 max_ewma = 0.0;
  for (const LinkCongestion& lc : monitor.snapshot().links) {
    max_ewma = std::max(max_ewma, lc.ewma_utilization);
  }
  EXPECT_GT(max_ewma, 0.0);
}

TEST(CongestionMonitor, SamplingIsDeterministic) {
  auto run = [](std::vector<f64>* ewmas) {
    Network net;
    build_fat_tree(net, four_spine_spec());
    CongestionMonitor monitor(net);
    workload::CrossTrafficSpec spec;
    spec.seed = 11;
    spec.horizon_ps = 60 * kPsPerUs;
    workload::CrossTrafficInjector injector(net, spec);
    injector.arm();
    monitor.arm_until(spec.horizon_ps);
    net.sim().run();
    for (const LinkCongestion& lc : monitor.snapshot().links) {
      ewmas->push_back(lc.ewma_utilization);
    }
  };
  std::vector<f64> a, b;
  run(&a);
  run(&b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << i;  // bit-for-bit, not approximately
  }
}

TEST(CrossTraffic, SameSeedSameBytes) {
  auto run = [](u64 seed) {
    Network net;
    build_fat_tree(net, four_spine_spec());
    workload::CrossTrafficSpec spec;
    spec.seed = seed;
    spec.horizon_ps = 50 * kPsPerUs;
    workload::CrossTrafficInjector injector(net, spec);
    injector.arm();
    net.sim().run();  // the schedule is bounded: the calendar drains
    return std::pair{net.total_traffic_bytes(), net.total_packets()};
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3).first, run(4).first);
}

// ------------------------------------------------------------- embedding --

TEST(CongestionAwareEmbedding, RetryAvoidsHotSpine) {
  Network net;
  auto topo = build_fat_tree(net, four_spine_spec());
  auto participants = first_hosts(topo, 8);  // leaves 0 and 1
  CongestionMonitor monitor(net);
  monitor.sample();  // cold baseline at t=0
  heat_switch_links(net, "spine0", {"leaf0", "leaf1"}, 4 * kMiB);
  net.sim().run();  // serialize the heat; time advances
  monitor.sample();

  coll::NetworkManager manager(net);
  manager.set_link_cost([&monitor](NodeId node, u32 port) {
    return monitor.edge_cost(node, port);
  });
  core::AllreduceConfig cfg;
  cfg.id = manager.next_id();
  cfg.dtype = core::DType::kInt32;
  cfg.elems_per_packet = 256;
  coll::InstallReport report =
      manager.install_with_retry(participants, cfg, 2.4e12);
  ASSERT_TRUE(report);
  EXPECT_NE(report->root, topo.spines[0]->id());
  for (const coll::TreeSwitchEntry& e : report->switches) {
    EXPECT_NE(e.sw, topo.spines[0]);
  }
  // Scoring sanity: the hot spine's tree really is the expensive one.
  auto hot = manager.compute_tree(participants, topo.spines[0]->id());
  ASSERT_TRUE(hot.has_value());
  EXPECT_GT(hot->cost, report->cost);
  manager.uninstall(*report, cfg.id);
}

// ------------------------------------------------------------- migration --

TEST(Migration, PersistentSessionMovesOffHotTree) {
  Network net;
  auto topo = build_fat_tree(net, four_spine_spec());
  CongestionMonitor monitor(net);

  coll::CommunicatorConfig ccfg;
  ccfg.monitor = &monitor;
  coll::Communicator comm(net, first_hosts(topo, 8), std::move(ccfg));
  coll::CollectiveOptions desc;
  desc.algorithm = coll::Algorithm::kFlareDense;
  desc.data_bytes = 64 * kKiB;
  desc.dtype = core::DType::kInt32;
  desc.migrate_above = 0.2;

  coll::PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok());
  const auto res1 = pc.run();
  EXPECT_TRUE(res1.ok);
  EXPECT_EQ(res1.migrations, 0u);
  const NodeId old_root = pc.tree().root;

  // Heat the installed root's tree links: a 10 MiB backlog each way means
  // staying put costs ~800 us of queueing per direction.  The heat is
  // untagged (trace 0), i.e. FOREIGN to the session — exactly what the
  // edge_congestion_excluding trigger reacts to.
  std::string root_name;
  for (Switch* s : topo.spines) {
    if (s->id() == old_root) root_name = s->name();
  }
  ASSERT_FALSE(root_name.empty()) << "tree rooted off-spine?";
  heat_switch_links(net, root_name, {"leaf0", "leaf1"}, 10 * kMiB);

  // The foreign-heat trigger needs no slow iteration to convince it: the
  // next iteration boundary samples the monitor, sees the backlog on the
  // tree's edges, and migrates BEFORE paying the regression.
  const auto res2 = pc.run();
  EXPECT_TRUE(res2.ok);
  EXPECT_EQ(res2.max_abs_err, 0.0);
  EXPECT_EQ(res2.migrations, 1u);
  EXPECT_EQ(pc.migrations(), 1u);
  EXPECT_NE(pc.tree().root, old_root);
  // Off the backlogged links, iteration 2 stays in iteration 1's time
  // class instead of queueing behind ~800 us of foreign heat.
  EXPECT_LT(res2.completion_seconds, 2 * res1.completion_seconds);

  // No occupancy leak: exactly one 3-switch tree installed, and nothing
  // after release.
  u32 installed = 0;
  for (Switch* s : net.switches()) installed += s->installed_reduces();
  EXPECT_EQ(installed, 3u);
  pc.release();
  for (Switch* s : net.switches()) EXPECT_EQ(s->installed_reduces(), 0u);
}

TEST(Migration, HysteresisHoldsOnCoolFabric) {
  Network net;
  auto topo = build_fat_tree(net, four_spine_spec());
  CongestionMonitor monitor(net);
  coll::CommunicatorConfig ccfg;
  ccfg.monitor = &monitor;
  coll::Communicator comm(net, first_hosts(topo, 8), std::move(ccfg));
  coll::CollectiveOptions desc;
  desc.algorithm = coll::Algorithm::kFlareDense;
  desc.data_bytes = 64 * kKiB;
  desc.dtype = core::DType::kInt32;
  desc.migrate_above = 0.2;
  coll::PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok());
  const NodeId root = pc.tree().root;
  for (int i = 0; i < 4; ++i) {
    const auto res = pc.run();
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.migrations, 0u);
  }
  EXPECT_EQ(pc.tree().root, root);  // nothing hot: the tree never moves
  EXPECT_EQ(pc.migrations(), 0u);
}

TEST(Migration, SelfHeatIsExcludedForeignHeatTriggers) {
  Network net;
  auto topo = build_fat_tree(net, four_spine_spec());
  CongestionMonitor monitor(net);
  coll::CommunicatorConfig ccfg;
  ccfg.monitor = &monitor;
  coll::Communicator comm(net, first_hosts(topo, 8), std::move(ccfg));
  coll::CollectiveOptions desc;
  desc.algorithm = coll::Algorithm::kFlareDense;
  desc.data_bytes = 256 * kKiB;  // big enough to keep its own links busy
  desc.dtype = core::DType::kInt32;
  // A bound the session's OWN traffic comfortably exceeds on its tree
  // links when iterations run back to back.
  desc.migrate_above = 0.05;
  coll::PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok());
  const NodeId root = pc.tree().root;

  for (int i = 0; i < 4; ++i) {
    const auto res = pc.run();
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.migrations, 0u) << "self-heat alone must never migrate";
  }
  EXPECT_EQ(pc.tree().root, root);
  EXPECT_EQ(pc.migrations(), 0u);
  // Prove the old TOTAL-EWMA signal would have fired: the tree's worst
  // edge is well above the bound — it is all the session's own heat, and
  // the self-exclusion is the only thing holding migration back.
  monitor.sample();
  EXPECT_GT(coll::tree_max_congestion_excluding(monitor, pc.tree(), 0),
            desc.migrate_above);

  // Now add FOREIGN (untagged) heat on the installed root's tree links:
  // the excluding trigger fires at the next iteration boundary.
  std::string root_name;
  for (Switch* s : topo.spines) {
    if (s->id() == root) root_name = s->name();
  }
  ASSERT_FALSE(root_name.empty());
  heat_switch_links(net, root_name, {"leaf0", "leaf1"}, 10 * kMiB);
  net.sim().run();  // let the foreign bytes serialize into the EWMA window
  const auto res = pc.run();
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.migrations, 1u);
  EXPECT_NE(pc.tree().root, root);
  pc.release();
  for (Switch* s : net.switches()) EXPECT_EQ(s->installed_reduces(), 0u);
}

/// Foreign heat on a participant's access link only: every embedding
/// crosses that link, so no tree can shed the heat.  The session considers
/// a migration (the trace records it), skips the root sweep on its access
/// floor, and keeps its tree.
TEST(Migration, AccessLinkHeatIsConsideredButNeverMigrates) {
  Network net;
  auto topo = build_fat_tree(net, four_spine_spec());
  CongestionMonitor monitor(net);
  obs::Tracer tracer;
  net.set_tracer(&tracer);
  coll::CommunicatorConfig ccfg;
  ccfg.monitor = &monitor;
  coll::Communicator comm(net, first_hosts(topo, 8), std::move(ccfg));
  coll::CollectiveOptions desc;
  desc.algorithm = coll::Algorithm::kFlareDense;
  desc.data_bytes = 64 * kKiB;
  desc.dtype = core::DType::kInt32;
  desc.migrate_above = 0.2;
  coll::PersistentCollective pc = comm.persistent(desc);
  ASSERT_TRUE(pc.ok());
  ASSERT_TRUE(pc.run().ok);
  const NodeId root = pc.tree().root;
  const std::vector<coll::TreeSwitchEntry> switches = pc.tree().switches;
  EXPECT_EQ(tracer.to_json().find("migrate-considered"), std::string::npos);

  heat_link(net, link_by_name(net, "h0->leaf0"), 10 * kMiB);
  heat_link(net, link_by_name(net, "leaf0->h0"), 10 * kMiB);
  const auto res = pc.run();
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.migrations, 0u);
  EXPECT_EQ(pc.migrations(), 0u);
  EXPECT_NE(tracer.to_json().find("migrate-considered"), std::string::npos);
  EXPECT_EQ(pc.tree().root, root);
  ASSERT_EQ(pc.tree().switches.size(), switches.size());
  for (std::size_t i = 0; i < switches.size(); ++i) {
    EXPECT_EQ(pc.tree().switches[i].sw, switches[i].sw);
    EXPECT_EQ(pc.tree().switches[i].child_ports, switches[i].child_ports);
  }
  pc.release();
  for (Switch* s : net.switches()) EXPECT_EQ(s->installed_reduces(), 0u);
}

// ----------------------------------------------------------- root policy --

/// With a monitor, least-congested admission is the ranked-tree path: the
/// admitted tree is ranked_trees' front (cheapest under the monitor's link
/// costs), and the TreeCache is never consulted.
TEST(RootPolicy, LeastCongestedAdmitsCheapestRankedTree) {
  Network net;
  auto topo = build_fat_tree(net, four_spine_spec());
  CongestionMonitor monitor(net);
  service::ServiceOptions opt;
  opt.root_policy = service::RootPolicy::kLeastCongested;
  opt.monitor = &monitor;
  service::AllreduceService service(net, opt);
  monitor.sample();
  heat_switch_links(net, "spine2", {"leaf0", "leaf1", "leaf2"}, 8 * kMiB);
  net.sim().run();

  service::JobSpec spec;
  spec.participants = first_hosts(topo, 8);
  spec.desc.data_bytes = 16 * kKiB;
  spec.desc.dtype = core::DType::kInt32;
  const std::vector<Host*> participants = spec.participants;
  const u32 job = service.submit(std::move(spec));
  const service::JobRecord& rec = service.records()[job];
  ASSERT_TRUE(rec.in_network);

  // Same monitor snapshot, same instant: the admission round's ranking.
  const std::vector<coll::ReductionTree> ranked =
      service.manager().ranked_trees(participants);
  ASSERT_FALSE(ranked.empty());
  const coll::ReductionTree& want = ranked.front();
  EXPECT_EQ(rec.tree_root, want.root);
  std::vector<Switch*> want_switches;
  for (const coll::TreeSwitchEntry& e : want.switches) {
    want_switches.push_back(e.sw);
  }
  std::vector<Switch*> installed;
  for (Switch* s : net.switches()) {
    if (s->installed_reduces() > 0) installed.push_back(s);
  }
  std::sort(want_switches.begin(), want_switches.end());
  std::sort(installed.begin(), installed.end());
  EXPECT_EQ(installed, want_switches);
  // The hot spine is the expensive choice: the admitted tree avoids it.
  EXPECT_EQ(std::count(installed.begin(), installed.end(), topo.spines[2]),
            0);
  EXPECT_EQ(service.tree_cache().hits() + service.tree_cache().misses(), 0u);
  EXPECT_FALSE(rec.tree_cache_hit);

  net.sim().run();
  EXPECT_EQ(rec.state, service::JobState::kDone);
  EXPECT_TRUE(rec.exact);

  // Without a monitor the policy has no signal and orders like
  // least-loaded.
  EXPECT_EQ(service::candidate_roots(service::RootPolicy::kLeastCongested,
                                     net),
            service::candidate_roots(service::RootPolicy::kLeastLoaded, net));
  EXPECT_EQ(service::root_policy_name(service::RootPolicy::kLeastCongested),
            "least-congested");
}

/// Every other policy keeps the root-order path and its TreeCache, monitor
/// or not: a repeated group is served from the cache.
TEST(RootPolicy, LeastLoadedWithMonitorReusesCachedTree) {
  Network net;
  auto topo = build_fat_tree(net, four_spine_spec());
  CongestionMonitor monitor(net);
  service::ServiceOptions opt;
  opt.root_policy = service::RootPolicy::kLeastLoaded;
  opt.monitor = &monitor;
  service::AllreduceService service(net, opt);

  service::JobSpec spec;
  spec.participants = first_hosts(topo, 8);
  spec.desc.data_bytes = 16 * kKiB;
  spec.desc.dtype = core::DType::kInt32;
  const u32 first = service.submit(spec);
  net.sim().run();
  const u32 second = service.submit(spec);
  net.sim().run();

  EXPECT_FALSE(service.records()[first].tree_cache_hit);
  EXPECT_TRUE(service.records()[second].tree_cache_hit);
  EXPECT_GE(service.tree_cache().hits(), 1u);
  EXPECT_EQ(service.telemetry().completed(), 2u);
  for (const service::JobRecord& rec : service.records()) {
    EXPECT_TRUE(rec.exact);
  }
}

// --------------------------------------------------------------- service --

TEST(ServiceCongestion, AdmissionAvoidsHotSpineAndJobMigrates) {
  Network net;
  auto topo = build_fat_tree(net, four_spine_spec());
  CongestionMonitor monitor(net);

  service::ServiceOptions opt;
  opt.root_policy = service::RootPolicy::kLeastCongested;
  opt.monitor = &monitor;
  opt.migrate_above = 0.2;
  service::AllreduceService service(net, opt);

  // spine0 is hot BEFORE the job arrives: admission must avoid it.
  monitor.sample();
  heat_switch_links(net, "spine0", {"leaf0", "leaf1"}, 8 * kMiB);
  net.sim().run();

  service::JobSpec spec;
  spec.participants = first_hosts(topo, 8);
  spec.desc.data_bytes = 64 * kKiB;
  spec.desc.dtype = core::DType::kInt32;
  spec.iterations = 6;
  const u32 job = service.submit(std::move(spec));
  const service::JobRecord& rec = service.records()[job];
  ASSERT_TRUE(rec.in_network);
  EXPECT_NE(rec.tree_root, topo.spines[0]->id());
  const NodeId admitted_root = rec.tree_root;

  // Mid-job the admitted root runs hot: the session must migrate off it.
  std::string root_name;
  for (Switch* s : topo.spines) {
    if (s->id() == admitted_root) root_name = s->name();
  }
  ASSERT_FALSE(root_name.empty());
  net.sim().schedule_after(10 * kPsPerUs, [&net, root_name] {
    heat_switch_links(net, root_name, {"leaf0", "leaf1"}, 20 * kMiB);
  });
  net.sim().run();

  EXPECT_EQ(rec.state, service::JobState::kDone);
  EXPECT_TRUE(rec.ok);
  EXPECT_TRUE(rec.exact);
  EXPECT_EQ(rec.iterations_done, 6u);
  EXPECT_GE(rec.migrations, 1u);
  EXPECT_GE(service.telemetry().migrations, 1u);
  EXPECT_EQ(service.telemetry().completed(), 1u);
  for (Switch* s : net.switches()) EXPECT_EQ(s->installed_reduces(), 0u);
}

TEST(ServiceCongestion, MultiIterationRingJobCompletes) {
  Network net;
  auto topo = build_fat_tree(net, four_spine_spec());
  service::AllreduceService service(net, {});
  service::JobSpec spec;
  spec.participants = first_hosts(topo, 4);
  spec.desc.data_bytes = 16 * kKiB;
  spec.desc.dtype = core::DType::kInt32;
  spec.desc.algorithm = coll::Algorithm::kHostRing;
  spec.iterations = 3;
  const u32 job = service.submit(std::move(spec));
  net.sim().run();
  const service::JobRecord& rec = service.records()[job];
  EXPECT_EQ(rec.state, service::JobState::kDone);
  EXPECT_TRUE(rec.ok);
  EXPECT_EQ(rec.iterations_done, 3u);
  EXPECT_FALSE(rec.in_network);
  EXPECT_EQ(service.telemetry().host_requested, 1u);
}

}  // namespace
}  // namespace flare
