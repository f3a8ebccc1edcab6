#include "coll/manager.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <set>
#include <unordered_set>

#include "coll/tree_cache.hpp"
#include "common/assert.hpp"
#include "net/telemetry.hpp"

namespace flare::coll {

bool tree_alive(const net::Network& net, const ReductionTree& tree) {
  for (const TreeSwitchEntry& e : tree.switches) {
    if (e.sw->failed()) return false;
    if (e.sw->id() != tree.root &&
        !net.port_usable(e.sw->id(), e.parent_port)) {
      return false;
    }
    for (const u32 p : e.child_ports) {
      if (!net.port_usable(e.sw->id(), p)) return false;
    }
  }
  return !tree.switches.empty();
}

std::optional<ReductionTree> NetworkManager::compute_tree(
    const std::vector<net::Host*>& participants, net::NodeId root) {
  const u32 n = net_.num_nodes();
  FLARE_ASSERT(!participants.empty());
  // The root is caller-supplied (CommunicatorConfig::roots): reject hosts
  // and out-of-range ids before anything indexes by it.  Fault awareness:
  // a failed root can host nothing, and the search must not route the
  // tree across failed switches or down links (port_usable below covers
  // both the duplex link state and peer liveness).
  const net::Switch* root_sw = net_.switch_at(root);
  if (root_sw == nullptr || root_sw->failed()) return std::nullopt;

  // Shortest paths over switches only (hosts hang off their single access
  // switch): plain BFS under unit hop costs, Dijkstra when a link-cost
  // provider is set — congested edges become long and the tree routes
  // around them.  `dist` counts hops either way (it is the tree DEPTH,
  // which sizes the aggregation pipeline); `cost` carries the provider
  // metric the predecessor choice minimizes.
  std::vector<u32> dist(n, std::numeric_limits<u32>::max());
  std::vector<f64> cost(n, std::numeric_limits<f64>::infinity());
  std::vector<net::NodeId> pred(n, net::kInvalidNode);
  std::vector<u32> pred_port(n, UINT32_MAX);  // port on THIS node -> parent
  dist[root] = 0;
  cost[root] = 0.0;

  if (!link_cost_) {
    std::deque<net::NodeId> frontier{root};
    while (!frontier.empty()) {
      const net::NodeId cur = frontier.front();
      frontier.pop_front();
      for (const net::PortPeer& pp : net_.neighbors(cur)) {
        if (net_.switch_at(pp.peer) == nullptr) continue;  // skip hosts
        if (dist[pp.peer] != std::numeric_limits<u32>::max()) continue;
        if (!net_.port_usable(cur, pp.my_port)) continue;  // dead edge/peer
        dist[pp.peer] = dist[cur] + 1;
        cost[pp.peer] = cost[cur] + 1.0;
        pred[pp.peer] = cur;
        // Find the peer's port toward cur.
        for (const net::PortPeer& back : net_.neighbors(pp.peer)) {
          if (back.peer == cur) {
            pred_port[pp.peer] = back.my_port;
            break;
          }
        }
        frontier.push_back(pp.peer);
      }
    }
  } else {
    // Dijkstra with a deterministic (cost, node-id) order; ties keep the
    // first predecessor found, so equal-cost fabrics embed identically on
    // every run.
    std::set<std::pair<f64, net::NodeId>> frontier{{0.0, root}};
    while (!frontier.empty()) {
      const auto [ccost, cur] = *frontier.begin();
      frontier.erase(frontier.begin());
      if (ccost > cost[cur]) continue;  // stale entry
      for (const net::PortPeer& pp : net_.neighbors(cur)) {
        if (net_.switch_at(pp.peer) == nullptr) continue;  // skip hosts
        if (!net_.port_usable(cur, pp.my_port)) continue;
        const f64 ncost = cost[cur] + link_cost_(cur, pp.my_port);
        if (ncost >= cost[pp.peer]) continue;
        frontier.erase({cost[pp.peer], pp.peer});
        cost[pp.peer] = ncost;
        dist[pp.peer] = dist[cur] + 1;
        pred[pp.peer] = cur;
        for (const net::PortPeer& back : net_.neighbors(pp.peer)) {
          if (back.peer == cur) {
            pred_port[pp.peer] = back.my_port;
            break;
          }
        }
        frontier.insert({ncost, pp.peer});
      }
    }
  }

  // Each participant attaches to its single access switch.
  std::vector<std::vector<net::Host*>> hosts_of(n);
  for (net::Host* host : participants) {
    const auto& adj = net_.neighbors(host->id());
    FLARE_ASSERT_MSG(adj.size() == 1, "hosts must be single-homed");
    const net::NodeId leaf = adj[0].peer;
    if (dist[leaf] == std::numeric_limits<u32>::max()) return std::nullopt;
    // The access link must carry traffic both ways for the host to join.
    if (!net_.port_usable(host->id(), adj[0].my_port)) return std::nullopt;
    hosts_of[leaf].push_back(host);
  }

  // A switch is needed if it has participant hosts below it in the BFS tree.
  std::vector<bool> needed(n, false);
  for (net::NodeId id = 0; id < n; ++id) {
    if (hosts_of[id].empty()) continue;
    net::NodeId cur = id;
    while (cur != net::kInvalidNode && !needed[cur]) {
      needed[cur] = true;
      cur = pred[cur];
    }
  }
  if (!needed[root]) return std::nullopt;

  // Emit entries in BFS order (root first) and wire up children.
  ReductionTree tree;
  tree.root = root;
  std::vector<net::NodeId> order;
  {
    std::deque<net::NodeId> q{root};
    while (!q.empty()) {
      const net::NodeId cur = q.front();
      q.pop_front();
      if (!needed[cur]) continue;
      order.push_back(cur);
      // Children switches = needed switches whose BFS predecessor is cur.
      // Parallel links (common in small fat trees) would enumerate a child
      // several times — deduplicate.
      std::unordered_set<net::NodeId> seen;
      for (const net::PortPeer& pp : net_.neighbors(cur)) {
        if (net_.switch_at(pp.peer) != nullptr && pred[pp.peer] == cur &&
            needed[pp.peer] && seen.insert(pp.peer).second) {
          q.push_back(pp.peer);
        }
      }
    }
  }

  tree.host_child_index.assign(net_.hosts().size(), 0);
  tree.switches.resize(order.size());
  for (u32 i = 0; i < order.size(); ++i) {
    const net::NodeId id = order[i];
    TreeSwitchEntry& e = tree.switches[i];
    e.sw = net_.switch_at(id);
    e.depth = dist[id];
    tree.max_depth = std::max(tree.max_depth, e.depth);
    if (id != root) e.parent_port = pred_port[id];

    // Children: participant hosts first, then needed child switches.
    u16 next_index = 0;
    for (net::Host* host : hosts_of[id]) {
      for (const net::PortPeer& pp : net_.neighbors(id)) {
        if (pp.peer == host->id()) {
          e.child_ports.push_back(pp.my_port);
          break;
        }
      }
      tree.host_child_index[host->host_index()] = next_index++;
    }
    std::unordered_set<net::NodeId> seen_children;
    for (const net::PortPeer& pp : net_.neighbors(id)) {
      if (net_.switch_at(pp.peer) != nullptr && pred[pp.peer] == id &&
          needed[pp.peer] && seen_children.insert(pp.peer).second) {
        e.child_ports.push_back(pp.my_port);
        // The child switch will learn its index below (after all entries
        // exist).
        next_index++;
      }
    }
    e.num_children = next_index;
  }
  // Second pass: assign each non-root switch its child index at the parent.
  for (u32 i = 1; i < order.size(); ++i) {
    const net::NodeId id = order[i];
    const net::NodeId parent = pred[id];
    // Index = number of host children + position among switch children
    // (same dedup rule as the child_ports construction above).
    u16 idx = static_cast<u16>(hosts_of[parent].size());
    std::unordered_set<net::NodeId> seen_children;
    bool found = false;
    for (const net::PortPeer& pp : net_.neighbors(parent)) {
      if (net_.switch_at(pp.peer) == nullptr || pred[pp.peer] != parent ||
          !needed[pp.peer] || !seen_children.insert(pp.peer).second) {
        continue;
      }
      if (pp.peer == id) {
        found = true;
        break;
      }
      ++idx;
    }
    FLARE_ASSERT(found);
    tree.switches[i].child_index_at_parent = idx;
  }
  tree.cost = tree_cost(tree);
  return tree;
}

f64 NetworkManager::tree_cost(const ReductionTree& tree) const {
  // Every tree edge exactly once: each switch's child links (hosts and
  // child switches — the parent links are the same edges seen from below).
  f64 total = 0.0;
  for (const TreeSwitchEntry& e : tree.switches) {
    for (const u32 p : e.child_ports) total += edge_cost(e.sw->id(), p);
  }
  return total;
}

f64 tree_max_congestion(const net::CongestionMonitor& monitor,
                        const ReductionTree& tree) {
  f64 worst = 0.0;
  for (const TreeSwitchEntry& e : tree.switches) {
    for (const u32 p : e.child_ports) {
      worst = std::max(worst, monitor.edge_congestion(e.sw->id(), p));
    }
  }
  return worst;
}

f64 tree_max_congestion_excluding(const net::CongestionMonitor& monitor,
                                  const ReductionTree& tree, u32 trace) {
  f64 worst = 0.0;
  for (const TreeSwitchEntry& e : tree.switches) {
    for (const u32 p : e.child_ports) {
      worst = std::max(
          worst, monitor.edge_congestion_excluding(e.sw->id(), p, trace));
    }
  }
  return worst;
}

bool NetworkManager::install(const ReductionTree& tree,
                             core::AllreduceConfig cfg,
                             f64 switch_service_bps) {
  // Admission precheck: reject before touching any switch.  A partial
  // install would bump occupancy gauges whose high-water marks cannot be
  // rolled back, corrupting the peak-occupancy telemetry.
  for (const TreeSwitchEntry& e : tree.switches) {
    if (!e.sw->can_install()) return false;
  }
  std::vector<net::Switch*> installed;
  for (const TreeSwitchEntry& e : tree.switches) {
    core::AllreduceConfig sw_cfg = cfg;
    sw_cfg.num_children = e.num_children;
    sw_cfg.is_root = (e.sw->id() == tree.root);
    if (cfg.sparse) {
      // Densification along the tree: hash at the leaves/interior, array at
      // the root (Section 7).
      sw_cfg.hash_storage = !sw_cfg.is_root;
    }
    net::ReduceRole role;
    role.is_root = sw_cfg.is_root;
    role.parent_port = e.parent_port;
    role.child_index_at_parent = e.child_index_at_parent;
    role.child_ports = e.child_ports;
    role.service_bps = switch_service_bps;
    if (!e.sw->install_reduce(sw_cfg, std::move(role))) {
      for (net::Switch* sw : installed) sw->uninstall_reduce(cfg.id);
      return false;
    }
    installed.push_back(e.sw);
  }
  return true;
}

void NetworkManager::uninstall(const ReductionTree& tree, u32 allreduce_id) {
  for (const TreeSwitchEntry& e : tree.switches)
    e.sw->uninstall_reduce(allreduce_id);
#if FLARE_VALIDATE_ENABLED
  // Op-release audit: after an uninstall no switch of the tree may still
  // hold a role for the id (a survivor would pin a slot and a stale
  // engine for the install's lifetime — invisible until admission jams).
  for (const TreeSwitchEntry& e : tree.switches) {
    if (e.sw->role(allreduce_id) != nullptr) {
      validate::fail("op-release",
                     "switch '" + e.sw->name() + "' still holds a role " +
                         "for allreduce " + std::to_string(allreduce_id) +
                         " after uninstall");
    }
  }
#endif
  if (on_release_) on_release_(allreduce_id);
}

InstallReport NetworkManager::install_with_roots(
    const std::vector<net::Host*>& participants, core::AllreduceConfig cfg,
    f64 switch_service_bps, const std::vector<net::NodeId>& roots,
    TreeCache* cache) {
  InstallReport report;
  for (const net::NodeId root : roots) {
    report.attempts += 1;
    bool hit = false;
    std::optional<ReductionTree> tree =
        cache != nullptr
            ? cache->get_or_compute(*this, participants, root, &hit)
            : compute_tree(participants, root);
    if (!tree) continue;
    if (!report.any_feasible) {
      report.any_feasible = std::all_of(
          tree->switches.begin(), tree->switches.end(),
          [](const TreeSwitchEntry& e) { return e.sw->max_allreduces() > 0; });
    }
    if (install(*tree, cfg, switch_service_bps)) {
      report.cache_hit = hit;
      report.tree = std::move(tree);
      return report;
    }
  }
  return report;
}

InstallReport NetworkManager::install_with_retry(
    const std::vector<net::Host*>& participants, core::AllreduceConfig cfg,
    f64 switch_service_bps) {
  InstallReport report;
  // Prefer the embedding that uses the fewest switches (and, among those,
  // the shallowest): less switch memory consumed and fewer hops.  Under a
  // link-cost provider the preference inverts to CHEAPEST first — a
  // slightly larger tree over idle links beats a compact one through a
  // congested spine (Canary's placement result) — with size/depth/root as
  // deterministic tie-breaks.
  std::vector<ReductionTree> candidates;
  for (net::Switch* candidate : net_.switches()) {
    auto tree = compute_tree(participants, candidate->id());
    if (tree) candidates.push_back(std::move(*tree));
  }
  if (link_cost_) {
    std::sort(candidates.begin(), candidates.end(),
              [](const ReductionTree& a, const ReductionTree& b) {
                if (a.cost != b.cost) return a.cost < b.cost;
                if (a.switches.size() != b.switches.size())
                  return a.switches.size() < b.switches.size();
                if (a.max_depth != b.max_depth)
                  return a.max_depth < b.max_depth;
                return a.root < b.root;
              });
  } else {
    std::sort(candidates.begin(), candidates.end(),
              [](const ReductionTree& a, const ReductionTree& b) {
                if (a.switches.size() != b.switches.size())
                  return a.switches.size() < b.switches.size();
                return a.max_depth < b.max_depth;
              });
  }
  for (ReductionTree& tree : candidates) {
    report.attempts += 1;
    if (!report.any_feasible) {
      report.any_feasible = std::all_of(
          tree.switches.begin(), tree.switches.end(),
          [](const TreeSwitchEntry& e) { return e.sw->max_allreduces() > 0; });
    }
    if (install(tree, cfg, switch_service_bps)) {
      report.tree = std::move(tree);
      return report;
    }
  }
  return report;
}

}  // namespace flare::coll
