#include "coll/manager.hpp"

#include <algorithm>
#include <bit>

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

// ----------------------------------------------------- embedding query ---
//
// Every embedding query runs the same stages.  freeze_edges brings the
// fabric view up to date — the usable switch-to-switch ports, rebuilt only
// when the fabric changed — and reads the link-cost provider once per
// usable port; attach does the same for the participants' access links.
// Then, per root, span runs the shortest paths over the frozen edges until
// every participant leaf is settled and marks the switches with
// participants below them, and score or build walks the tree in BFS order.
// A sweep over every root therefore evaluates each link cost once, not
// once per root.

void NetworkManager::build_view(std::vector<Edge>& edges,
                                std::vector<u32>& begin) {
  const u32 n = net_.num_nodes();
  edges.clear();
  begin.resize(n + 1);
  for (net::NodeId id = 0; id < n; ++id) {
    begin[id] = static_cast<u32>(edges.size());
    const net::Switch* sw = net_.switch_at(id);
    // Hosts hang off their single access switch and carry no tree edges;
    // a failed switch can be neither root nor reached.
    if (sw == nullptr || sw->failed()) continue;
    const u64 mark = ++epoch_;  // dedups parallel links toward a peer
    for (const net::PortPeer& pp : net_.neighbors(id)) {
      if (net_.switch_at(pp.peer) == nullptr) continue;
      // port_usable covers the duplex link state and peer liveness.
      if (!net_.port_usable(id, pp.my_port)) continue;
      const bool first = reached_[pp.peer] != mark;
      reached_[pp.peer] = mark;
      edges.push_back({pp.peer, pp.my_port, first});
    }
  }
  begin[n] = static_cast<u32>(edges.size());
}

void NetworkManager::freeze_edges() {
  const u32 n = net_.num_nodes();
  if (reached_.size() != n) {
    dist_.assign(n, 0);
    cost_.assign(n, 0.0);
    pred_.assign(n, net::kInvalidNode);
    reached_.assign(n, 0);
    needed_.assign(n, 0);
    child_index_.assign(n, 0);
    access_head_.assign(n, 0);
    access_tail_.assign(n, 0);
    access_stamp_.assign(n, 0);
    heap_pos_.assign(n, 0);
  }
  const FabricKey key{net_.faults_notified(), n, net_.num_links()};
  if (key != view_key_) {
    build_view(edges_, edge_begin_);
    view_key_ = key;
  } else if (validate::enabled()) {
    // Fabric-view audit: a reused view must equal a fresh build — a port
    // whose usability changed without a fault notice would otherwise
    // keep routing trees over a dead link.
    std::vector<Edge> edges;
    std::vector<u32> begin;
    build_view(edges, begin);
    if (edges != edges_ || begin != edge_begin_) {
      validate::fail("fabric-view",
                     "cached switch edges differ from the live fabric with "
                     "no fault notice in between");
      edges_ = std::move(edges);
      edge_begin_ = std::move(begin);
    }
  }
  edge_cost_.resize(edges_.size());
  for (net::NodeId id = 0; id < n; ++id) {
    for (u32 k = edge_begin_[id]; k < edge_begin_[id + 1]; ++k) {
      edge_cost_[k] = edge_cost(id, edges_[k].port);
    }
  }
}

bool NetworkManager::attach(const std::vector<net::Host*>& participants) {
  FLARE_ASSERT(!participants.empty());
  access_epoch_ = ++epoch_;
  leaves_ = 0;
  access_.resize(participants.size());
  for (u32 i = 0; i < participants.size(); ++i) {
    const net::Host* host = participants[i];
    const auto& adj = net_.neighbors(host->id());
    FLARE_ASSERT_MSG(adj.size() == 1, "hosts must be single-homed");
    // The access link must carry traffic both ways for the host to join.
    if (!net_.port_usable(host->id(), adj[0].my_port)) return false;
    Access& a = access_[i];
    a.leaf = adj[0].peer;
    a.host_index = host->host_index();
    a.next = UINT32_MAX;
    for (const net::PortPeer& pp : net_.neighbors(a.leaf)) {
      if (pp.peer == host->id()) {
        a.port = pp.my_port;
        break;
      }
    }
    a.cost = edge_cost(a.leaf, a.port);
    // Per-leaf lists in participant order: the leaf's host children.
    if (access_stamp_[a.leaf] != access_epoch_) {
      access_stamp_[a.leaf] = access_epoch_;
      access_head_[a.leaf] = i;
      ++leaves_;
    } else {
      access_[access_tail_[a.leaf]].next = i;
    }
    access_tail_[a.leaf] = i;
  }
  return true;
}

namespace {

/// span's decrease-key binary min-heap of node ids keyed (cost[v], v),
/// over the manager's scratch vectors.  pos[v] is v's index in the heap
/// while v is queued and UINT32_MAX once popped (settled).
class NodeHeap {
 public:
  NodeHeap(std::vector<net::NodeId>& heap, std::vector<u32>& pos,
           const std::vector<f64>& cost)
      : heap_(heap), pos_(pos), cost_(cost) {
    heap_.clear();
  }

  bool empty() const { return heap_.empty(); }
  bool queued(net::NodeId v) const { return pos_[v] != UINT32_MAX; }

  void push(net::NodeId v) {
    heap_.push_back(v);
    sift_up(static_cast<u32>(heap_.size() - 1));
  }

  /// Restores order after cost[v] fell; v must be queued.
  void decreased(net::NodeId v) { sift_up(pos_[v]); }

  net::NodeId pop() {
    const net::NodeId top = heap_.front();
    pos_[top] = UINT32_MAX;
    const net::NodeId last = heap_.back();
    heap_.pop_back();
    const u32 size = static_cast<u32>(heap_.size());
    if (size == 0) return top;
    u32 i = 0;
    for (u32 child = 1; child < size; child = 2 * i + 1) {
      if (child + 1 < size && less(heap_[child + 1], heap_[child])) ++child;
      if (!less(heap_[child], last)) break;
      place(heap_[child], i);
      i = child;
    }
    place(last, i);
    return top;
  }

 private:
  bool less(net::NodeId a, net::NodeId b) const {
    return cost_[a] < cost_[b] || (cost_[a] == cost_[b] && a < b);
  }
  void place(net::NodeId v, u32 i) {
    heap_[i] = v;
    pos_[v] = i;
  }
  void sift_up(u32 i) {
    const net::NodeId v = heap_[i];
    while (i > 0) {
      const u32 parent = (i - 1) / 2;
      if (!less(v, heap_[parent])) break;
      place(heap_[parent], i);
      i = parent;
    }
    place(v, i);
  }

  std::vector<net::NodeId>& heap_;
  std::vector<u32>& pos_;
  const std::vector<f64>& cost_;
};

}  // namespace

bool NetworkManager::span(net::NodeId root) {
  // Shortest paths from `root` over the frozen switch edges: plain BFS
  // under unit hop costs, Dijkstra when a link-cost provider is set —
  // congested edges become long and the tree routes around them.  `dist_`
  // counts hops either way (it is the tree DEPTH, which sizes the
  // aggregation pipeline); `cost_` carries the provider metric the
  // predecessor choice minimizes.
  //
  // The search stops early, once every distinct participant leaf is
  // settled (Dijkstra) or discovered (BFS).  A settled switch's cost and
  // predecessor are final, and so are those of every switch on its path
  // to the root, so the tree — built from those paths alone — is the one
  // the full search would give.
  const u64 epoch = ++epoch_;
  reached_[root] = epoch;
  dist_[root] = 0;
  cost_[root] = 0.0;
  pred_[root] = net::kInvalidNode;
  const auto reach = [&](net::NodeId v, net::NodeId from, f64 c) {
    reached_[v] = epoch;
    dist_[v] = dist_[from] + 1;
    cost_[v] = c;
    pred_[v] = from;
  };
  // True once `v` was the last participant leaf still outstanding.
  u32 leaves_left = leaves_;
  const auto last_leaf = [&](net::NodeId v) {
    return access_stamp_[v] == access_epoch_ && --leaves_left == 0;
  };
  if (!link_cost_) {
    order_.assign(1, root);
    bool done = last_leaf(root);
    for (std::size_t head = 0; !done && head < order_.size(); ++head) {
      const net::NodeId cur = order_[head];
      for (u32 k = edge_begin_[cur]; k < edge_begin_[cur + 1]; ++k) {
        const net::NodeId peer = edges_[k].peer;
        if (reached_[peer] == epoch) continue;
        reach(peer, cur, cost_[cur] + 1.0);
        order_.push_back(peer);
        if (last_leaf(peer)) {
          done = true;
          break;
        }
      }
    }
  } else {
    // Dijkstra on a decrease-key binary heap keyed (cost, node id), each
    // switch queued at most once.  Costs are >= 1 and improvements
    // strict, so switches settle in (cost, id) order and ties keep the
    // first predecessor found: equal-cost fabrics embed identically on
    // every run.
    NodeHeap heap(heap_, heap_pos_, cost_);
    heap.push(root);
    while (!heap.empty()) {
      const net::NodeId cur = heap.pop();
      if (last_leaf(cur)) break;
      for (u32 k = edge_begin_[cur]; k < edge_begin_[cur + 1]; ++k) {
        const net::NodeId peer = edges_[k].peer;
        const f64 ncost = cost_[cur] + edge_cost_[k];
        if (reached_[peer] != epoch) {
          reach(peer, cur, ncost);
          heap.push(peer);
        } else if (ncost < cost_[peer]) {
          FLARE_ASSERT_MSG(heap.queued(peer), "link costs must be positive");
          reach(peer, cur, ncost);
          heap.decreased(peer);
        }
      }
    }
  }

  // A switch is needed if it has participant hosts below it in the
  // shortest-path tree.
  for (const Access& a : access_) {
    if (reached_[a.leaf] != epoch) return false;  // participant unreachable
    for (net::NodeId cur = a.leaf;
         cur != net::kInvalidNode && needed_[cur] != epoch; cur = pred_[cur]) {
      needed_[cur] = epoch;
    }
  }
  return needed_[root] == epoch;
}

// score and build walk the same tree: needed switches in BFS order from
// the root; at each, the participant hosts in participant order, then the
// needed child switches (pred == cur) through the first usable port toward
// each, in port order.  Summing edge costs in exactly that order makes a
// score bit-equal to the built tree's tree_cost.

bool NetworkManager::is_child(const Edge& e, net::NodeId cur) const {
  return e.first && needed_[e.peer] == epoch_ && pred_[e.peer] == cur;
}

f64 NetworkManager::score(net::NodeId root) {
  f64 total = 0.0;
  order_.assign(1, root);
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const net::NodeId cur = order_[head];
    if (access_stamp_[cur] == access_epoch_) {
      for (u32 i = access_head_[cur]; i != UINT32_MAX; i = access_[i].next) {
        total += access_[i].cost;
      }
    }
    for (u32 k = edge_begin_[cur]; k < edge_begin_[cur + 1]; ++k) {
      const Edge& e = edges_[k];
      if (is_child(e, cur)) {
        total += edge_cost_[k];
        order_.push_back(e.peer);
      }
    }
  }
  return total;
}

ReductionTree NetworkManager::build(net::NodeId root) {
  ReductionTree tree;
  tree.root = root;
  tree.host_child_index.assign(net_.hosts().size(), 0);
  order_.assign(1, root);
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const net::NodeId cur = order_[head];
    const u32 begin = edge_begin_[cur];
    const u32 end = edge_begin_[cur + 1];
    TreeSwitchEntry& e = tree.switches.emplace_back();
    e.sw = net_.switch_at(cur);
    e.depth = dist_[cur];
    tree.max_depth = std::max(tree.max_depth, e.depth);
    if (cur != root) {
      e.child_index_at_parent = child_index_[cur];
      for (u32 k = begin; k < end; ++k) {
        if (edges_[k].peer == pred_[cur]) {
          e.parent_port = edges_[k].port;
          break;
        }
      }
    }
    u16 next_index = 0;
    if (access_stamp_[cur] == access_epoch_) {
      for (u32 i = access_head_[cur]; i != UINT32_MAX; i = access_[i].next) {
        e.child_ports.push_back(access_[i].port);
        tree.host_child_index[access_[i].host_index] = next_index++;
      }
    }
    for (u32 k = begin; k < end; ++k) {
      const Edge& c = edges_[k];
      if (is_child(c, cur)) {
        e.child_ports.push_back(c.port);
        child_index_[c.peer] = next_index++;
        order_.push_back(c.peer);
      }
    }
    e.num_children = next_index;
  }
  tree.cost = tree_cost(tree);
  return tree;
}

std::optional<ReductionTree> NetworkManager::embed(net::NodeId root) {
  // The root is caller-supplied (CommunicatorConfig::roots): reject hosts,
  // out-of-range ids and failed switches before anything indexes by it.
  const net::Switch* root_sw = net_.switch_at(root);
  if (root_sw == nullptr || root_sw->failed() || !span(root)) {
    return std::nullopt;
  }
  return build(root);
}

std::optional<ReductionTree> NetworkManager::compute_tree(
    const std::vector<net::Host*>& participants, net::NodeId root) {
  freeze_edges();
  if (!attach(participants)) return std::nullopt;
  return embed(root);
}

std::optional<ReductionTree> NetworkManager::cheapest_tree(
    const std::vector<net::Host*>& participants) {
  freeze_edges();
  if (!attach(participants)) return std::nullopt;
  net::NodeId best = net::kInvalidNode;
  f64 best_cost = 0.0;
#if FLARE_VALIDATE_ENABLED
  std::vector<std::pair<net::NodeId, f64>> scores;
#endif
  for (const net::Switch* sw : net_.switches()) {
    if (sw->failed() || !span(sw->id())) continue;
    const f64 c = score(sw->id());
#if FLARE_VALIDATE_ENABLED
    scores.emplace_back(sw->id(), c);
#endif
    if (best == net::kInvalidNode || c < best_cost) {  // first root wins ties
      best = sw->id();
      best_cost = c;
    }
  }
  std::optional<ReductionTree> tree;
  if (best != net::kInvalidNode) tree = embed(best);
#if FLARE_VALIDATE_ENABLED
  // Root-sweep audit: rebuild every root's tree through compute_tree.
  // Each cost-only score must equal that tree's cost bit for bit, and the
  // per-root strict-< loop must pick the sweep's winner.
  std::optional<ReductionTree> ref_best;
  std::size_t k = 0;
  for (const net::Switch* sw : net_.switches()) {
    std::optional<ReductionTree> ref = compute_tree(participants, sw->id());
    if (!ref) continue;
    const bool same = k < scores.size() && scores[k].first == sw->id() &&
                      std::bit_cast<u64>(scores[k].second) ==
                          std::bit_cast<u64>(ref->cost);
    if (!same) {
      validate::fail("root-sweep",
                     "switch '" + sw->name() +
                         "': sweep score differs from its built tree's cost");
    }
    ++k;
    if (!ref_best || ref->cost < ref_best->cost) ref_best = std::move(ref);
  }
  if (k != scores.size() ||
      (ref_best ? ref_best->root : net::kInvalidNode) != best) {
    validate::fail("root-sweep", "sweep and per-root loop pick different roots");
  }
#endif
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

bool NetworkManager::attempt_install(InstallReport& report,
                                     ReductionTree* tree,
                                     const core::AllreduceConfig& cfg,
                                     f64 switch_service_bps) {
  report.attempts += 1;
  if (tree == nullptr) return false;
  if (!report.any_feasible) {
    report.any_feasible = std::all_of(
        tree->switches.begin(), tree->switches.end(),
        [](const TreeSwitchEntry& e) { return e.sw->max_allreduces() > 0; });
  }
  if (!install(*tree, cfg, switch_service_bps)) return false;
  report.tree = std::move(*tree);
  return true;
}

InstallReport NetworkManager::install_with_roots(
    const std::vector<net::Host*>& participants, core::AllreduceConfig cfg,
    f64 switch_service_bps, const std::vector<net::NodeId>& roots,
    TreeCache* cache) {
  InstallReport report;
  for (const net::NodeId root : roots) {
    bool hit = false;
    std::optional<ReductionTree> tree =
        cache != nullptr
            ? cache->get_or_compute(*this, participants, root, &hit)
            : compute_tree(participants, root);
    if (attempt_install(report, tree ? &*tree : nullptr, cfg,
                        switch_service_bps)) {
      report.cache_hit = hit;
      return report;
    }
  }
  return report;
}

InstallReport NetworkManager::install_with_retry(
    const std::vector<net::Host*>& participants, core::AllreduceConfig cfg,
    f64 switch_service_bps) {
  InstallReport report;
  for (ReductionTree& tree : ranked_trees(participants)) {
    if (attempt_install(report, &tree, cfg, switch_service_bps)) break;
  }
  return report;
}

std::vector<ReductionTree> NetworkManager::ranked_trees(
    const std::vector<net::Host*>& participants) {
  std::vector<ReductionTree> candidates;
  freeze_edges();
  if (!attach(participants)) return candidates;
  for (const net::Switch* sw : net_.switches()) {
    std::optional<ReductionTree> tree = embed(sw->id());
    if (tree) candidates.push_back(std::move(*tree));
  }
  // Prefer the embedding that uses the fewest switches (and, among those,
  // the shallowest): less switch memory consumed and fewer hops.  Under a
  // link-cost provider the preference inverts to CHEAPEST first — a
  // slightly larger tree over idle links beats a compact one through a
  // congested spine (Canary's placement result) — with size/depth/root as
  // deterministic tie-breaks.
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
  return candidates;
}

}  // namespace flare::coll
