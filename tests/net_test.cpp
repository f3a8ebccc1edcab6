// Network simulator: link serialization/latency/FIFO, traffic accounting,
// routing (single switch + fat tree, ECMP), host messaging, switch
// reduction roles (calibrated server, up-aggregation, down-multicast),
// and fat-tree structural invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "net/network.hpp"

namespace flare::net {
namespace {

NetPacket make_msg(u32 src, u32 dst, NodeId dst_node, u64 bytes,
                   u64 flow = 0) {
  auto msg = std::make_shared<HostMsg>();
  msg->src_host = src;
  msg->dst_host = dst;
  NetPacket np;
  np.kind = PacketKind::kHostMsg;
  np.dst_node = dst_node;
  np.wire_bytes = bytes;
  np.flow = flow;
  np.msg = std::move(msg);
  return np;
}

TEST(Link, SerializationPlusLatency) {
  sim::Simulator sim;
  Link link(sim, 100e9, 500 * kPsPerNs);  // 100 Gbps, 500 ns
  SimTime arrived = 0;
  link.set_deliver([&](NetPacket&&) { arrived = sim.now(); });
  NetPacket p = make_msg(0, 1, 0, 1250);  // 100 ns at 100 Gbps
  sim.schedule_at(0, [&] { link.send(std::move(p)); });
  sim.run();
  EXPECT_EQ(arrived, 100 * kPsPerNs + 500 * kPsPerNs);
  EXPECT_EQ(link.traffic().bytes, 1250u);
  EXPECT_EQ(link.traffic().packets, 1u);
}

TEST(Link, BackToBackPacketsQueueFifo) {
  sim::Simulator sim;
  Link link(sim, 100e9, 0);
  std::vector<SimTime> arrivals;
  link.set_deliver([&](NetPacket&&) { arrivals.push_back(sim.now()); });
  sim.schedule_at(0, [&] {
    for (int i = 0; i < 3; ++i) {
      link.send(make_msg(0, 1, 0, 1250));
    }
  });
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 100 * kPsPerNs);
  EXPECT_EQ(arrivals[1], 200 * kPsPerNs);
  EXPECT_EQ(arrivals[2], 300 * kPsPerNs);
}

TEST(Link, QueuedBytesIsExactAtHighBandwidth) {
  // ISSUE 8 regression: queued_bytes used to convert the backlog through
  // f64 (delay x bps / 8e12).  At 400 Gbps the product passes 2^53 for any
  // backlog beyond ~20 us, and the rounded product can truncate to a
  // different byte count than the exact integer quotient.  Build large
  // backlogs and check the link against u128 arithmetic; also prove the
  // old formula actually disagrees somewhere in this range (i.e. this
  // test would have caught the bug).
  sim::Simulator sim;
  const f64 bw = 400e9;
  Link link(sim, bw, 0);
  link.set_deliver([](NetPacket&&) {});
  u32 f64_was_lossy = 0;
  sim.schedule_at(0, [&] {
    for (int i = 0; i < 400; ++i) {
      link.send(make_msg(0, 1, 0, 7 * kMiB + 13));  // ~21 GiB total backlog
      const SimTime delay = link.queue_delay_ps(0);
      using u128 = unsigned __int128;
      const u64 exact = static_cast<u64>(
          static_cast<u128>(delay) * 400'000'000'000ull /
          (8 * static_cast<u128>(kPsPerSecond)));
      EXPECT_EQ(link.queued_bytes(0), exact) << "delay=" << delay;
      const u64 via_f64 = static_cast<u64>(static_cast<f64>(delay) * bw /
                                           8.0 / kPsPerSecond);
      if (via_f64 != exact) f64_was_lossy += 1;
    }
    sim.stop();  // the backlog itself is irrelevant; don't simulate it out
  });
  sim.run();
  EXPECT_GT(f64_was_lossy, 0u)
      << "sweep never hit a lossy conversion; widen it";
}

TEST(Link, BurstKeepsOneDeliveryEventArmed) {
  // Batched serialization: a burst parks on the link's pending queue with
  // ONE armed calendar event (for the queue front), not one per packet.
  sim::Simulator sim;
  Link link(sim, 100e9, 0);
  std::vector<SimTime> arrivals;
  link.set_deliver([&](NetPacket&&) { arrivals.push_back(sim.now()); });
  sim.schedule_at(0, [&] {
    for (int i = 0; i < 64; ++i) link.send(make_msg(0, 1, 0, 1250));
  });
  EXPECT_EQ(sim.pending_events(), 1u);  // the burst trigger itself
  sim.step();                           // run the burst event
  EXPECT_EQ(sim.pending_events(), 1u);  // 64 in flight, ONE armed delivery
  sim.run();
  ASSERT_EQ(arrivals.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(arrivals[static_cast<size_t>(i)],
              static_cast<SimTime>(i + 1) * 100 * kPsPerNs);
  }
}

TEST(Link, PendingRingGrowsWhileWrappedKeepsFifo) {
  // The pending queue is a ring that doubles when full.  Each burst lands
  // while about half of the packets before it are still in flight, so the
  // front has moved and the ring grows with its contents wrapped round.
  // Deliveries must keep the order and times of a plain FIFO queue, and
  // the busy-time, attribution and traffic counters must match it.
  sim::Simulator sim;
  const f64 bw = 100e9;
  const u64 latency = 300 * kPsPerNs;
  Link link(sim, bw, latency);
  std::vector<std::pair<u64, SimTime>> got;  // (flow, arrival)
  link.set_deliver(
      [&](NetPacket&& p) { got.emplace_back(p.flow, sim.now()); });

  // The FIFO model, built burst by burst; each burst is scheduled at the
  // arrival of the middle packet still in flight, plus 1 ps.
  std::vector<std::pair<u64, SimTime>> want;
  std::map<u32, u64> want_by_trace;
  u64 want_busy = 0, want_bytes = 0;
  SimTime busy_until = 0;
  u64 flow = 0;
  std::size_t delivered = 0;  // model packets arrived before the burst
  for (const u32 count : {3u, 6u, 12u, 24u, 48u, 96u}) {
    SimTime at = 0;
    if (!want.empty()) {
      const std::size_t mid = delivered + (want.size() - delivered) / 2;
      at = want[mid].second + 1;
      while (delivered < want.size() && want[delivered].second < at) {
        delivered += 1;
      }
      ASSERT_GT(delivered, 0u);
      ASSERT_LT(delivered, want.size()) << "burst must find packets queued";
    }
    std::vector<NetPacket> burst;
    for (u32 i = 0; i < count; ++i, ++flow) {
      const u64 bytes = 200 + (flow * 389) % 1300;
      const u32 trace = static_cast<u32>(flow % 3);
      const u64 ser = serialization_ps(bytes, bw);
      busy_until = std::max(at, busy_until) + ser;
      want.emplace_back(flow, busy_until + latency);
      want_by_trace[trace] += ser;
      want_busy += ser;
      want_bytes += bytes;
      NetPacket p = make_msg(0, 1, 0, bytes, flow);
      p.trace = trace;
      burst.push_back(std::move(p));
    }
    sim.schedule_at(at, [&link, burst = std::move(burst)]() mutable {
      for (NetPacket& p : burst) link.send(std::move(p));
    });
  }
  sim.run();
  EXPECT_EQ(got, want);
  EXPECT_EQ(link.busy_cum_ps(), want_busy);
  EXPECT_EQ(link.busy_by_trace(), want_by_trace);
  EXPECT_EQ(link.traffic().bytes, want_bytes);
  EXPECT_EQ(link.traffic().packets, want.size());
}

TEST(SingleSwitchTopology, HostToHostDelivery) {
  Network net;
  auto topo = build_single_switch(net, 4);
  u32 got = UINT32_MAX;
  topo.hosts[2]->set_msg_handler([&](const HostMsg& m) { got = m.src_host; });
  topo.hosts[0]->send(make_msg(0, 2, topo.hosts[2]->id(), 1000));
  net.sim().run();
  EXPECT_EQ(got, 0u);
  // host0 -> switch -> host2: two link traversals.
  EXPECT_EQ(net.total_traffic_bytes(), 2000u);
}

TEST(FatTree, StructureMatchesPaperSpec) {
  // 64 hosts, radix-8 switches: 16 leaves (4 down / 4 up), 8 spines.
  Network net;
  FatTreeSpec spec;
  auto topo = build_fat_tree(net, spec);
  EXPECT_EQ(topo.hosts.size(), 64u);
  EXPECT_EQ(topo.leaves.size(), 16u);
  EXPECT_EQ(topo.spines.size(), 8u);
  for (Switch* leaf : topo.leaves) EXPECT_EQ(leaf->num_ports(), 8u);
  for (Switch* spine : topo.spines) EXPECT_EQ(spine->num_ports(), 8u);
}

TEST(FatTree, AllPairsReachable) {
  Network net;
  FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;  // 8 leaves x 2 hosts, 4 spines
  auto topo = build_fat_tree(net, spec);
  u32 delivered = 0;
  for (Host* h : topo.hosts) {
    h->set_msg_handler([&](const HostMsg&) { delivered += 1; });
  }
  u32 sent = 0;
  for (u32 a = 0; a < topo.hosts.size(); ++a) {
    for (u32 b = 0; b < topo.hosts.size(); ++b) {
      if (a == b) continue;
      topo.hosts[a]->send(
          make_msg(a, b, topo.hosts[b]->id(), 100, a * 131 + b));
      sent += 1;
    }
  }
  net.sim().run();
  EXPECT_EQ(delivered, sent);
}

TEST(FatTree, IntraLeafStaysLocal) {
  Network net;
  FatTreeSpec spec;
  auto topo = build_fat_tree(net, spec);
  // hosts 0 and 1 share leaf0: the message must not touch any spine link.
  topo.hosts[1]->set_msg_handler([](const HostMsg&) {});
  topo.hosts[0]->send(make_msg(0, 1, topo.hosts[1]->id(), 1000));
  net.sim().run();
  EXPECT_EQ(net.total_traffic_bytes(), 2000u);  // host->leaf, leaf->host
}

TEST(FatTree, EcmpSpreadsFlows) {
  Network net;
  FatTreeSpec spec;
  auto topo = build_fat_tree(net, spec);
  // Many flows between two hosts in different leaves: distinct flow labels
  // should hash onto more than one uplink. Count distinct delivery orders
  // indirectly via total traffic (all delivered) and spine usage.
  u32 got = 0;
  Host* dst = topo.hosts[63];
  dst->set_msg_handler([&](const HostMsg&) { got += 1; });
  for (u64 flow = 0; flow < 64; ++flow) {
    topo.hosts[0]->send(make_msg(0, 63, dst->id(), 1000, flow));
  }
  net.sim().run();
  EXPECT_EQ(got, 64u);
}

TEST(FatTree, EcmpSpreadsFlowsAcrossSpines) {
  // The cross-leaf ECMP set is the leaf's full uplink fan: with 64 distinct
  // flow labels between one host pair, the flow hash must put bytes through
  // MULTIPLE spines, not funnel everything onto one (the congestion plane
  // depends on background flows spreading this way).
  Network net;
  FatTreeSpec spec;
  auto topo = build_fat_tree(net, spec);
  u32 got = 0;
  Host* dst = topo.hosts[63];
  dst->set_msg_handler([&](const HostMsg&) { got += 1; });
  for (u64 flow = 0; flow < 64; ++flow) {
    topo.hosts[0]->send(make_msg(0, 63, dst->id(), 1000, flow * 977 + 13));
  }
  net.sim().run();
  EXPECT_EQ(got, 64u);
  u32 spines_used = 0;
  for (Switch* spine : topo.spines) {
    u64 bytes = 0;
    for (u32 p = 0; p < spine->num_ports(); ++p) {
      bytes += spine->port(p).traffic().bytes;
    }
    if (bytes > 0) spines_used += 1;
  }
  EXPECT_GE(spines_used, 2u);
  // And the host's leaf spread the flows over more than one uplink: the
  // spine downlink bytes cannot all be on one spine.
  EXPECT_EQ(net.total_traffic_bytes(), 64u * 1000 * 4);  // 4 hops per msg
}

TEST(FatTree, RoutePathsAreSymmetric) {
  // The route tables must produce symmetric host<->host paths: for every
  // ordered pair, a->b and b->a cross the same number of links, so an
  // otherwise idle fabric delivers both in identical time.
  Network net;
  FatTreeSpec spec;
  spec.hosts = 16;
  spec.radix = 4;  // 8 leaves x 2 hosts, 4 spines
  auto topo = build_fat_tree(net, spec);
  SimTime arrived = 0;
  for (Host* h : topo.hosts) {
    h->set_msg_handler([&](const HostMsg&) { arrived = net.sim().now(); });
  }
  const u32 n = static_cast<u32>(topo.hosts.size());
  for (u32 a = 0; a < n; ++a) {
    for (u32 b = a + 1; b < n; ++b) {
      const SimTime t0 = net.sim().now();
      topo.hosts[a]->send(
          make_msg(a, b, topo.hosts[b]->id(), 1000, a * 131 + b));
      net.sim().run();  // drain: no queueing interference between probes
      const SimTime fwd = arrived - t0;
      const SimTime t1 = net.sim().now();
      topo.hosts[b]->send(
          make_msg(b, a, topo.hosts[a]->id(), 1000, a * 131 + b));
      net.sim().run();
      const SimTime rev = arrived - t1;
      EXPECT_EQ(fwd, rev) << "asymmetric path " << a << "<->" << b;
    }
  }
}

// ------------------------------------------------------ route-table pin --

/// FNV-1a over 64-bit words: a stable digest of routing decisions.
void mix(u64& h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
}

/// Digest of every switch's ECMP port set (in order) and salt toward every
/// destination host.
u64 route_digest(const Network& net) {
  u64 h = 0xCBF29CE484222325ull;
  for (const Switch* sw : net.switches()) {
    mix(h, sw->id());
    mix(h, sw->ecmp_salt());
    for (const Host* dst : net.hosts()) {
      const std::span<const u32> ports = sw->route_ports(dst->id());
      mix(h, ports.size());
      for (const u32 p : ports) mix(h, p);
    }
  }
  return h;
}

/// Hop distances from `src` to every node (BFS over the fabric graph).
std::vector<u32> hop_distances(const Network& net, NodeId src) {
  std::vector<u32> dist(net.num_nodes(), UINT32_MAX);
  std::vector<NodeId> frontier{src};
  dist[src] = 0;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    for (const PortPeer& pp : net.neighbors(frontier[i])) {
      if (dist[pp.peer] != UINT32_MAX) continue;
      dist[pp.peer] = dist[frontier[i]] + 1;
      frontier.push_back(pp.peer);
    }
  }
  return dist;
}

/// Walks hashed ECMP from every host to every host under a few flow labels.
/// Each walk must arrive along a shortest path, and the longest of those
/// must be the fabric's host-to-host diameter.
void expect_all_pairs_arrive(const Network& net, u32 diameter) {
  u32 longest = 0;
  for (const Host* src : net.hosts()) {
    const std::vector<u32> dist = hop_distances(net, src->id());
    for (const Host* dst : net.hosts()) {
      if (src == dst) continue;
      longest = std::max(longest, dist[dst->id()]);
      for (u64 k = 0; k < 3; ++k) {
        const u64 label = k * 0x51ED27ull + src->id() * 131 + dst->id();
        NodeId cur = net.neighbors(src->id()).front().peer;
        u32 hops = 1;
        while (cur != dst->id() && hops < diameter) {
          const auto& sw = static_cast<const Switch&>(net.node(cur));
          const std::span<const u32> ecmp = sw.route_ports(dst->id());
          ASSERT_FALSE(ecmp.empty()) << sw.name() << " has no route";
          const u32 port =
              ecmp[ecmp_index(label ^ sw.ecmp_salt(), ecmp.size())];
          NodeId next = kInvalidNode;
          for (const PortPeer& pp : net.neighbors(cur)) {
            if (pp.my_port == port) next = pp.peer;
          }
          ASSERT_NE(next, kInvalidNode);
          cur = next;
          hops += 1;
        }
        ASSERT_EQ(cur, dst->id())
            << src->name() << "->" << dst->name() << " label " << label
            << " not delivered within " << diameter << " hops";
        EXPECT_EQ(hops, dist[dst->id()])
            << src->name() << "->" << dst->name() << " took a longer path";
      }
    }
  }
  EXPECT_EQ(longest, diameter);
}

TEST(Routing, RouteTablesPinnedAndEveryHostReachesEveryHost) {
  // The digests pin every switch's port sets and salts, so a change to
  // how tables are built cannot silently move a path: the traffic-
  // engineering benches and every replay digest depend on them.
  std::vector<u64> digests;
  {
    Network net;
    build_single_switch(net, 8);
    expect_all_pairs_arrive(net, 2);
    digests.push_back(route_digest(net));
  }
  // {hosts, radix, diameter}: round-robin leaf wiring reaches every spine
  // only at radix 16 here; the smaller trees have leaf pairs that share no
  // spine (6 hops).
  const u32 two_level[][3] = {{16, 4, 6}, {64, 8, 6}, {128, 16, 4}};
  for (const auto& [hosts, radix, diameter] : two_level) {
    Network net;
    FatTreeSpec spec;
    spec.hosts = hosts;
    spec.radix = radix;
    build_fat_tree(net, spec);
    expect_all_pairs_arrive(net, diameter);
    digests.push_back(route_digest(net));
  }
  {
    Network net;
    FatTree3Spec spec;
    spec.radix = 8;
    spec.pods = 3;
    build_fat_tree_3level(net, spec);
    expect_all_pairs_arrive(net, 6);
    digests.push_back(route_digest(net));
  }
  // single switch (8), 2-level 16/4, 64/8, 128/16, 3-level radix 8 x 3 pods
  const std::vector<u64> expected = {
      0x0B5E1B2F8952CC65ull, 0xB2ED86322E9A7725ull, 0xF8C463BF5CEBD725ull,
      0xFE0B75830E024B25ull, 0xAEFE7512050C3FA5ull};
  EXPECT_EQ(digests, expected);
}

// ------------------------------------------------------- reduction plane --

core::AllreduceConfig reduce_cfg(u32 id, u32 children) {
  core::AllreduceConfig cfg;
  cfg.id = id;
  cfg.num_children = children;
  cfg.dtype = core::DType::kInt32;
  cfg.elems_per_packet = 8;
  cfg.policy = core::AggPolicy::kSingleBuffer;
  cfg.is_root = true;
  return cfg;
}

TEST(SwitchReduce, SingleSwitchAggregatesAndMulticasts) {
  Network net;
  auto topo = build_single_switch(net, 3);
  Switch* sw = topo.leaves[0];

  ReduceRole role;
  role.is_root = true;
  role.service_bps = 100e9;
  // Hosts occupy ports 0..2 on the switch.
  role.child_ports = {0, 1, 2};
  ASSERT_TRUE(sw->install_reduce(reduce_cfg(1, 3), std::move(role)));

  std::vector<u32> got(3, 0);
  std::vector<i64> sums(3, 0);
  for (u32 h = 0; h < 3; ++h) {
    topo.hosts[h]->set_reduce_handler(1, [&, h](const core::Packet& pkt) {
      got[h] += 1;
      const auto* vals = static_cast<const i32*>(core::dense_payload(pkt));
      for (u32 i = 0; i < pkt.hdr.elem_count; ++i) sums[h] += vals[i];
    });
  }
  for (u32 h = 0; h < 3; ++h) {
    std::vector<i32> data(8, static_cast<i32>(h + 1));
    core::Packet p = core::make_dense_packet(1, 0, static_cast<u16>(h),
                                             data.data(), 8,
                                             core::DType::kInt32);
    NetPacket np;
    np.kind = PacketKind::kReduceUp;
    np.allreduce_id = 1;
    np.wire_bytes = p.wire_bytes();
    np.reduce = std::make_shared<const core::Packet>(std::move(p));
    topo.hosts[h]->send(std::move(np));
  }
  net.sim().run();
  for (u32 h = 0; h < 3; ++h) {
    EXPECT_EQ(got[h], 1u) << h;
    EXPECT_EQ(sums[h], 8 * (1 + 2 + 3)) << h;
  }
  EXPECT_EQ(sw->reduce_packets_processed(), 3u);
}

// A switch caches its emissions for retransmission replay only when the
// collective arms fault recovery.  With recovery off no host ever sends a
// retransmission, so after the iteration no result may stay cached.
TEST(SwitchReduce, CachesResultsOnlyWithFaultRecovery) {
  for (const bool recovery : {false, true}) {
    Network net;
    auto topo = build_single_switch(net, 2);
    Switch* sw = topo.leaves[0];
    ReduceRole role;
    role.is_root = true;
    role.service_bps = 100e9;
    role.child_ports = {0, 1};
    core::AllreduceConfig cfg = reduce_cfg(1, 2);
    cfg.fault_recovery = recovery;
    ASSERT_TRUE(sw->install_reduce(cfg, std::move(role)));
    u32 results = 0;
    topo.hosts[0]->set_reduce_handler(
        1, [&](const core::Packet&) { results += 1; });
    for (u32 h = 0; h < 2; ++h) {
      for (u32 b = 0; b < 3; ++b) {
        std::vector<i32> data(8, static_cast<i32>(h + b));
        core::Packet p = core::make_dense_packet(
            1, b, static_cast<u16>(h), data.data(), 8, core::DType::kInt32);
        NetPacket np;
        np.kind = PacketKind::kReduceUp;
        np.allreduce_id = 1;
        np.wire_bytes = p.wire_bytes();
        np.reduce = std::make_shared<const core::Packet>(std::move(p));
        topo.hosts[h]->send(std::move(np));
      }
    }
    net.sim().run();
    EXPECT_EQ(results, 3u);
    const ReduceRole* r = sw->role(1);
    ASSERT_NE(r, nullptr);
    std::size_t cached = 0;
    for (const auto& seq : r->completed) cached += seq.size();
    EXPECT_EQ(cached, recovery ? 3u : 0u) << "recovery " << recovery;
  }
}

TEST(SwitchReduce, AdmissionControlLimitsInstalls) {
  Network net;
  auto topo = build_single_switch(net, 2, LinkSpec{}, /*max_allreduces=*/2);
  Switch* sw = topo.leaves[0];
  for (u32 id = 1; id <= 2; ++id) {
    ReduceRole role;
    role.is_root = true;
    role.service_bps = 1e12;
    role.child_ports = {0, 1};
    EXPECT_TRUE(sw->install_reduce(reduce_cfg(id, 2), std::move(role)));
  }
  ReduceRole extra;
  extra.is_root = true;
  extra.service_bps = 1e12;
  extra.child_ports = {0, 1};
  EXPECT_FALSE(sw->can_install());
  EXPECT_FALSE(sw->install_reduce(reduce_cfg(3, 2), std::move(extra)));
  sw->uninstall_reduce(1);
  EXPECT_TRUE(sw->can_install());
}

TEST(SwitchReduce, OccupancyAccessorsAndGauge) {
  Network net;
  auto topo = build_single_switch(net, 2, LinkSpec{}, /*max_allreduces=*/4);
  Switch* sw = topo.leaves[0];
  EXPECT_EQ(sw->installed_reduces(), 0u);
  EXPECT_EQ(sw->free_slots(), 4u);

  for (u32 id = 1; id <= 3; ++id) {
    ReduceRole role;
    role.is_root = true;
    role.service_bps = 1e12;
    role.child_ports = {0, 1};
    ASSERT_TRUE(sw->install_reduce(reduce_cfg(id, 2), std::move(role)));
  }
  EXPECT_EQ(sw->installed_reduces(), 3u);
  EXPECT_EQ(sw->free_slots(), 1u);
  EXPECT_EQ(sw->occupancy().current(), 3u);
  EXPECT_EQ(sw->occupancy().high_water(), 3u);

  sw->uninstall_reduce(2);
  sw->uninstall_reduce(3);
  EXPECT_EQ(sw->installed_reduces(), 1u);
  EXPECT_EQ(sw->free_slots(), 3u);
  EXPECT_EQ(sw->occupancy().current(), 1u);
  // The high-water mark survives releases.
  EXPECT_EQ(sw->occupancy().high_water(), 3u);
  // Uninstalling an unknown id is a no-op, not an underflow.
  sw->uninstall_reduce(99);
  EXPECT_EQ(sw->installed_reduces(), 1u);
}

TEST(SwitchReduce, CalibratedServerSerializesProcessing) {
  // Two packets arriving together must be serviced back to back at the
  // calibrated rate, delaying the aggregated result accordingly.
  Network net;
  LinkSpec fast;
  fast.bandwidth_bps = 1e13;  // links much faster than the server
  fast.latency_ps = 0;
  auto topo = build_single_switch(net, 2, fast);
  Switch* sw = topo.leaves[0];
  ReduceRole role;
  role.is_root = true;
  role.service_bps = 1e9;  // 1 Gbps service -> clearly visible delays
  role.child_ports = {0, 1};
  ASSERT_TRUE(sw->install_reduce(reduce_cfg(1, 2), std::move(role)));
  SimTime done = 0;
  topo.hosts[0]->set_reduce_handler(
      1,
      [&](const core::Packet&) { done = net.sim().now(); });
  for (u32 h = 0; h < 2; ++h) {
    std::vector<i32> data(8, 1);
    core::Packet p = core::make_dense_packet(1, 0, static_cast<u16>(h),
                                             data.data(), 8,
                                             core::DType::kInt32);
    NetPacket np;
    np.kind = PacketKind::kReduceUp;
    np.allreduce_id = 1;
    np.wire_bytes = p.wire_bytes();
    np.reduce = std::make_shared<const core::Packet>(std::move(p));
    topo.hosts[h]->send(std::move(np));
  }
  net.sim().run();
  // Each packet is 96 wire bytes = 768 ns of service at 1 Gbps; the result
  // cannot appear before two service times.
  EXPECT_GE(done, 2 * serialization_ps(96, 1e9));
}

}  // namespace
}  // namespace flare::net
