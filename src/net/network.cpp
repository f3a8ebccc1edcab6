#include "net/network.hpp"

#include <algorithm>

#include "net/flow.hpp"
#include "obs/trace.hpp"

namespace flare::net {

Network::Network() = default;   // FlowManager is complete here
Network::~Network() = default;

FlowManager& Network::flows() {
  if (!flows_) flows_ = std::make_unique<FlowManager>(*this);
  return *flows_;
}

void Network::sync_flows() {
  if (flows_) flows_->sync();
}

std::string_view fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
    case FaultKind::kSwitchFail: return "switch-fail";
    case FaultKind::kSwitchRestart: return "switch-restart";
    case FaultKind::kDropPackets: return "drop-packets";
    case FaultKind::kCorruptPackets: return "corrupt-packets";
  }
  return "?";
}

Host& Network::add_host(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  auto host = std::make_unique<Host>(*this, id,
                                     static_cast<u32>(hosts_.size()),
                                     std::move(name));
  Host* raw = host.get();
  nodes_.push_back(std::move(host));
  adjacency_.emplace_back();
  host_index_by_node_.push_back(raw->host_index());
  switch_by_node_.push_back(nullptr);
  hosts_.push_back(raw);
  return *raw;
}

Switch& Network::add_switch(std::string name, u32 max_allreduces) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  auto sw = std::make_unique<Switch>(*this, id, std::move(name),
                                     max_allreduces);
  Switch* raw = sw.get();
  nodes_.push_back(std::move(sw));
  adjacency_.emplace_back();
  host_index_by_node_.push_back(UINT32_MAX);
  switch_by_node_.push_back(raw);
  switches_.push_back(raw);
  return *raw;
}

void Network::connect(Node& a, Node& b, f64 bandwidth_bps, u64 latency_ps) {
  auto ab = std::make_unique<Link>(sim_, bandwidth_bps, latency_ps,
                                   a.name() + "->" + b.name());
  auto ba = std::make_unique<Link>(sim_, bandwidth_bps, latency_ps,
                                   b.name() + "->" + a.name());
  Node* pb = &b;
  Node* pa = &a;
  const u32 b_in = b.num_ports();  // symmetric port numbering on both ends
  const u32 a_in = a.num_ports();
  ab->set_deliver([pb, b_in](NetPacket&& p) { pb->receive(std::move(p), b_in); });
  ba->set_deliver([pa, a_in](NetPacket&& p) { pa->receive(std::move(p), a_in); });
  const u32 a_port = a.add_port(ab.get());
  const u32 b_port = b.add_port(ba.get());
  adjacency_[a.id()].push_back({b.id(), a_port});
  adjacency_[b.id()].push_back({a.id(), b_port});
  ab->set_reverse(ba.get());
  ba->set_reverse(ab.get());
  ab->index_ = static_cast<u32>(links_.size());
  ba->index_ = ab->index_ + 1;
  links_.push_back(std::move(ab));
  links_.push_back(std::move(ba));
}

// --------------------------------------------------------------- faults ---

void Network::set_duplex_up(u32 i, bool up) {
  FLARE_ASSERT(static_cast<std::size_t>(i) * 2 + 1 < links_.size());
  links_[2 * i]->set_up(up);
  links_[2 * i + 1]->set_up(up);
  notify_fault({up ? FaultKind::kLinkUp : FaultKind::kLinkDown,
                kInvalidNode, i, sim_.now()});
}

bool Network::port_usable(NodeId node, u32 port) const {
  // connect() appends a node's ports and adjacency entries together, so
  // adjacency position == port number.
  const std::vector<PortPeer>& adj = adjacency_.at(node);
  if (port >= adj.size()) return false;
  const Link& out = nodes_[node]->port(port);
  if (!out.up() || out.reverse() == nullptr || !out.reverse()->up()) {
    return false;
  }
  const Switch* peer = switch_at(adj[port].peer);
  return peer == nullptr || !peer->failed();
}

u64 Network::add_fault_listener(FaultListener listener) {
  const u64 token = next_listener_token_++;
  fault_listeners_.emplace_back(token, std::move(listener));
  return token;
}

void Network::remove_fault_listener(u64 token) {
  std::erase_if(fault_listeners_,
                [token](const auto& p) { return p.first == token; });
}

void Network::notify_fault(const FaultNotice& notice) {
  faults_notified_ += 1;
  if (tracer_ != nullptr) {
    // Fault instants land on the fabric row (tid 0) so chrome://tracing
    // shows the chaos schedule against every collective's spans.
    tracer_->name_thread(0, "fabric");
    tracer_->instant(0, fault_kind_name(notice.kind), notice.at, "fault");
  }
  // Copy: a listener may (de)register listeners while being notified.
  const auto listeners = fault_listeners_;
  for (const auto& [token, fn] : listeners) fn(notice);
}

u64 Network::link_dropped_packets() const {
  u64 total = 0;
  for (const auto& link : links_) total += link->packets_dropped();
  return total;
}

u64 Network::total_traffic_bytes() const {
  u64 total = 0;
  for (const auto& link : links_) total += link->traffic().bytes;
  return total;
}

u64 Network::total_packets() const {
  u64 total = 0;
  for (const auto& link : links_) total += link->traffic().packets;
  return total;
}

// ------------------------------------------------------------- builders ---

namespace {

/// Installs shortest-path host-route tables on a 1- or 2-level fabric whose
/// leaf l holds host indices [l * hosts_per_leaf, (l + 1) * hosts_per_leaf).
/// One BFS per destination leaf: hosts are single-homed dead ends, so a
/// switch's ECMP set toward a host is its set toward the host's leaf —
/// every port whose peer is one hop closer, in port order — except at that
/// leaf itself, which keys the host's own port.  Leaves therefore key
/// single hosts and every other switch keys whole leaves.  Salt 0.
void install_leaf_routes(Network& net, const std::vector<Switch*>& leaves,
                         u32 hosts_per_leaf) {
  FLARE_ASSERT(net.hosts().size() == leaves.size() * hosts_per_leaf);
  const u32 n = net.num_nodes();
  std::vector<HostRouteTable> tables(n);
  for (Switch* sw : net.switches()) {
    tables[sw->id()].group_size = hosts_per_leaf;
  }
  for (Switch* leaf : leaves) tables[leaf->id()].group_size = 1;
  std::vector<u32> dist(n);
  std::vector<NodeId> frontier;
  for (u32 l = 0; l < leaves.size(); ++l) {
    const NodeId dst = leaves[l]->id();
    std::fill(dist.begin(), dist.end(), UINT32_MAX);
    dist[dst] = 0;
    frontier.assign(1, dst);
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      for (const PortPeer& pp : net.neighbors(frontier[i])) {
        if (dist[pp.peer] != UINT32_MAX) continue;
        dist[pp.peer] = dist[frontier[i]] + 1;
        frontier.push_back(pp.peer);
      }
    }
    const u32 first_host = l * hosts_per_leaf;
    for (Switch* sw : net.switches()) {
      const NodeId id = sw->id();
      HostRouteTable& t = tables[id];
      if (id == dst) {
        for (const PortPeer& pp : net.neighbors(id)) {
          const u32 host = net.host_index_of(pp.peer);
          if (host == UINT32_MAX) continue;
          FLARE_ASSERT(host / hosts_per_leaf == l);
          const u32 at = static_cast<u32>(t.ports.size());
          t.exceptions.push_back({host, at, at + 1});
          t.ports.push_back(pp.my_port);
        }
        continue;
      }
      if (dist[id] == UINT32_MAX) continue;  // unreachable: no route
      const u32 begin = static_cast<u32>(t.ports.size());
      for (const PortPeer& pp : net.neighbors(id)) {
        if (dist[pp.peer] + 1 == dist[id]) t.ports.push_back(pp.my_port);
      }
      const u32 end = static_cast<u32>(t.ports.size());
      if (t.group_size == 1) {
        for (u32 h = first_host; h < first_host + hosts_per_leaf; ++h) {
          t.exceptions.push_back({h, begin, end});
        }
      } else {
        t.exceptions.push_back({l, begin, end});
      }
    }
  }
  for (Switch* sw : net.switches()) {
    sw->set_host_routes(std::move(tables[sw->id()]));
  }
}

}  // namespace

BuiltTopology build_single_switch(Network& net, u32 hosts,
                                  const LinkSpec& link, u32 max_allreduces) {
  BuiltTopology topo;
  Switch& sw = net.add_switch("sw0", max_allreduces);
  topo.leaves.push_back(&sw);
  for (u32 h = 0; h < hosts; ++h) {
    Host& host = net.add_host("h" + std::to_string(h));
    net.connect(host, sw, link.bandwidth_bps, link.latency_ps);
    topo.hosts.push_back(&host);
  }
  install_leaf_routes(net, topo.leaves, hosts);
  return topo;
}

BuiltTopology build_fat_tree(Network& net, const FatTreeSpec& spec) {
  FLARE_ASSERT(spec.radix >= 2 && spec.radix % 2 == 0);
  const u32 down = spec.radix / 2;
  FLARE_ASSERT_MSG(spec.hosts % down == 0,
                   "hosts must fill leaf down-ports evenly");
  const u32 n_leaf = spec.hosts / down;
  FLARE_ASSERT_MSG((n_leaf * down) % spec.radix == 0,
                   "uplinks must fill spine ports evenly");
  const u32 n_spine = n_leaf * down / spec.radix;
  FLARE_ASSERT(n_spine >= 1);

  BuiltTopology topo;
  for (u32 s = 0; s < n_spine; ++s)
    topo.spines.push_back(
        &net.add_switch("spine" + std::to_string(s), spec.max_allreduces));
  for (u32 l = 0; l < n_leaf; ++l)
    topo.leaves.push_back(
        &net.add_switch("leaf" + std::to_string(l), spec.max_allreduces));

  for (u32 l = 0; l < n_leaf; ++l) {
    for (u32 h = 0; h < down; ++h) {
      Host& host = net.add_host("h" + std::to_string(l * down + h));
      net.connect(host, *topo.leaves[l], spec.link.bandwidth_bps,
                  spec.link.latency_ps);
      topo.hosts.push_back(&host);
    }
    // Round-robin wiring (leaf l uplink j -> spine (l + j) mod n_spine)
    // keeps the leaf-spine graph connected for any radix.
    for (u32 j = 0; j < down; ++j) {
      const u32 s = (l + j) % n_spine;
      net.connect(*topo.leaves[l], *topo.spines[s], spec.link.bandwidth_bps,
                  spec.link.latency_ps);
    }
  }
  install_leaf_routes(net, topo.leaves, down);
  return topo;
}

BuiltTopology3 build_fat_tree_3level(Network& net, const FatTree3Spec& spec) {
  FLARE_ASSERT(spec.radix >= 4 && spec.radix % 2 == 0);
  const u32 half = spec.radix / 2;
  const u32 pods = spec.pods == 0 ? spec.radix : spec.pods;
  FLARE_ASSERT_MSG(pods >= 1 && pods <= spec.radix,
                   "pods must be 1..radix (core down-ports)");
  const u32 n_core = half * half;

  BuiltTopology3 topo;
  for (u32 c = 0; c < n_core; ++c) {
    topo.cores.push_back(
        &net.add_switch("core" + std::to_string(c), spec.max_allreduces));
  }

  // Port plan (fixed by wiring order, relied on by the route tables):
  //   edge:  0..half-1 hosts, half..radix-1 aggs (port half+j -> agg j)
  //   agg:   0..half-1 edges (port e -> edge e), half..radix-1 cores
  //          (port half+i -> core j*half+i for agg j)
  //   core:  port q -> pod q's agg j (core c touches agg c/half everywhere)
  std::vector<u32> up_ports(half);
  for (u32 j = 0; j < half; ++j) up_ports[j] = half + j;
  std::vector<u32> down_port_pool(half);
  for (u32 e = 0; e < half; ++e) down_port_pool[e] = e;

  for (u32 q = 0; q < pods; ++q) {
    std::vector<Switch*> aggs(half);
    std::vector<Switch*> edges(half);
    for (u32 j = 0; j < half; ++j) {
      aggs[j] = &net.add_switch("p" + std::to_string(q) + "a" +
                                    std::to_string(j),
                                spec.max_allreduces);
    }
    for (u32 e = 0; e < half; ++e) {
      edges[e] = &net.add_switch("p" + std::to_string(q) + "e" +
                                     std::to_string(e),
                                 spec.max_allreduces);
    }
    for (u32 e = 0; e < half; ++e) {
      // Hosts first: edge down-ports 0..half-1, host indices contiguous
      // per edge so the compressed tables key whole edges/pods.
      HostRouteTable et;
      et.group_size = 1;
      et.salt = edges[e]->id();
      et.up_ports = up_ports;
      et.ports = down_port_pool;
      for (u32 h = 0; h < half; ++h) {
        const u32 host_index = (q * half + e) * half + h;
        Host& host = net.add_host("h" + std::to_string(host_index));
        net.connect(host, *edges[e], spec.link.bandwidth_bps,
                    spec.link.latency_ps);
        topo.hosts.push_back(&host);
        et.exceptions.push_back({host_index, h, h + 1});
      }
      for (u32 j = 0; j < half; ++j) {
        net.connect(*edges[e], *aggs[j], spec.link.bandwidth_bps,
                    spec.link.latency_ps);
      }
      edges[e]->set_host_routes(std::move(et));
      topo.edges.push_back(edges[e]);
    }
    for (u32 j = 0; j < half; ++j) {
      HostRouteTable at;
      at.group_size = half;  // one group = one edge's hosts
      at.salt = aggs[j]->id();
      at.up_ports = up_ports;
      at.ports = down_port_pool;
      for (u32 e = 0; e < half; ++e) {
        at.exceptions.push_back({q * half + e, e, e + 1});
      }
      for (u32 i = 0; i < half; ++i) {
        net.connect(*aggs[j], *topo.cores[j * half + i],
                    spec.link.bandwidth_bps, spec.link.latency_ps);
      }
      aggs[j]->set_host_routes(std::move(at));
      topo.aggs.push_back(aggs[j]);
    }
  }

  // Cores route down only: group = pod, port = pod (wired in pod order).
  std::vector<u32> pod_ports(pods);
  for (u32 q = 0; q < pods; ++q) pod_ports[q] = q;
  for (Switch* core : topo.cores) {
    HostRouteTable ct;
    ct.group_size = half * half;  // one group = one pod's hosts
    ct.salt = core->id();
    ct.ports = pod_ports;
    for (u32 q = 0; q < pods; ++q) ct.exceptions.push_back({q, q, q + 1});
    core->set_host_routes(std::move(ct));
  }
  return topo;
}

}  // namespace flare::net
