// The network manager (Section 4): given the participants of an allreduce,
// computes a reduction tree embedded in the physical topology, and installs
// the aggregation handlers + per-switch tree roles through the control
// plane.  Memory is statically partitioned: each switch accepts at most
// `max_allreduces` concurrent reductions; installation fails (and rolls
// back) when any switch on the tree is full, in which case the caller can
// retry with a different root or fall back to host-based allreduce —
// exactly the paper's admission policy.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "net/network.hpp"

namespace flare::net {
class CongestionMonitor;  // net/telemetry.hpp
}

namespace flare::coll {

struct TreeSwitchEntry {
  net::Switch* sw = nullptr;
  u32 depth = 0;                  ///< 0 at the root
  u32 parent_port = UINT32_MAX;   ///< port toward tree parent (non-root)
  u16 child_index_at_parent = 0;
  std::vector<u32> child_ports;   ///< ports to tree children (hosts+switches)
  u32 num_children = 0;
};

struct ReductionTree {
  net::NodeId root = net::kInvalidNode;
  std::vector<TreeSwitchEntry> switches;     ///< root first (BFS order)
  std::vector<u16> host_child_index;         ///< by host_index
  u32 max_depth = 0;
  /// Total embedding cost under the link-cost provider compute_tree ran
  /// with: the sum of every tree edge's cost (parent links + child links,
  /// including host access links).  Edge count when no provider (unit hop
  /// costs).  Congestion-aware placement and migration compare this.
  f64 cost = 0.0;
};

/// Outcome of an admission round (replaces the out-pointer parameters the
/// install entry points used to take).  Smart-pointer style accessors keep
/// `if (!report)` / `report->switches` call sites reading naturally.
struct InstallReport {
  std::optional<ReductionTree> tree;  ///< installed tree on success
  u32 attempts = 0;                   ///< install attempts across roots
  bool cache_hit = false;             ///< embedding reused from a TreeCache
  /// Whether at least one candidate root produced a tree every switch of
  /// which has a non-zero memory partition — false means the job can NEVER
  /// run in-network with these roots, not just not right now.
  bool any_feasible = false;

  bool has_value() const { return tree.has_value(); }
  explicit operator bool() const { return has_value(); }
  ReductionTree& operator*() { return *tree; }
  const ReductionTree& operator*() const { return *tree; }
  ReductionTree* operator->() { return &*tree; }
  const ReductionTree* operator->() const { return &*tree; }
};

/// True when every element of an installed (or cached) tree can still carry
/// traffic: no tree switch has failed and every tree edge — parent links
/// and child links, including the host access links — is up in both
/// directions.  The recovery machinery uses this both to validate cached
/// embeddings and to decide that a running collective's tree is dead.
bool tree_alive(const net::Network& net, const ReductionTree& tree);

/// Worst monitor EWMA utilization across every edge of `tree` (each
/// switch's child links, both directions — host access links included),
/// with collective `trace`'s own traffic subtracted per edge
/// (CongestionMonitor::edge_congestion_excluding; trace 0 subtracts
/// nothing).  THE persistent-session migration trigger: a session running
/// alone on a hot-looking tree reads ~0 — only foreign heat registers —
/// which is what let the completion-time regression gate retire.
f64 tree_max_congestion_excluding(const net::CongestionMonitor& monitor,
                                  const ReductionTree& tree, u32 trace);

class NetworkManager {
 public:
  explicit NetworkManager(net::Network& net) : net_(net) {}

  net::Network& network() { return net_; }

  /// Fresh collective identifier, unique across every manager sharing the
  /// network (the counter lives on net::Network).
  u32 next_id() { return net_.alloc_collective_id(); }

  /// Pluggable embedding edge-cost provider: the cost (>= 1, where 1 is an
  /// idle hop) of crossing the duplex link behind `port` of `node`.  Null
  /// (the default) keeps unit hop costs — plain shortest-hop BFS.  Wire a
  /// CongestionMonitor's edge_cost here and compute_tree routes trees
  /// around congested links, while install_with_retry prefers the
  /// cheapest (least-congested) embedding over the smallest.
  ///
  /// What a query reads, and when:
  ///   * structure — which switch-to-switch ports are usable, and which is
  ///     the first toward each peer — once per fabric change.  The
  ///     manager keeps it until Network::faults_notified() or the node or
  ///     link count moves; every link up/down and switch fail/restart
  ///     notifies (FLARE_VALIDATE's fabric-view audit rebuilds it on every
  ///     reuse and compares);
  ///   * costs — the provider, once per usable port and per participant
  ///     access link — once per query, reused for every root.  So the
  ///     provider must be a pure function of (node, port) for the length
  ///     of one query (FLARE_VALIDATE's root-sweep audit checks this).
  using LinkCostFn = std::function<f64(net::NodeId node, u32 port)>;
  void set_link_cost(LinkCostFn cost) { link_cost_ = std::move(cost); }

  /// Re-scores an existing tree under the CURRENT provider (a tree's
  /// stored cost reflects the congestion at compute time; migration
  /// decisions need today's number).
  f64 tree_cost(const ReductionTree& tree) const;

  /// The reduction tree rooted at `root` spanning `participants`: each
  /// switch joins through its shortest path to the root (hop count without
  /// a provider, provider cost with one), over usable ports only; parent
  /// and child ports are the first usable port toward the peer.  Returns
  /// nullopt if the root is not a live switch or some participant is
  /// unreachable from it.
  std::optional<ReductionTree> compute_tree(
      const std::vector<net::Host*>& participants, net::NodeId root);

  /// The cheapest tree over every live switch as root: the compute_tree
  /// result with the lowest `cost`, strict `<`, so the first root in
  /// net.switches() order wins ties.  One root sweep: link costs are read
  /// once per query, each root is scored without building its tree, and
  /// only the winner is built.  nullopt when no root spans.
  std::optional<ReductionTree> cheapest_tree(
      const std::vector<net::Host*>& participants);

  /// Every spanning root's compute_tree result in install_with_retry's
  /// preference order (see there).
  std::vector<ReductionTree> ranked_trees(
      const std::vector<net::Host*>& participants);

  /// Installs `cfg` on every tree switch.  For sparse allreduces the root
  /// switch uses array storage and the others hash storage (Section 7,
  /// "densification").  Rolls back on admission failure and returns false.
  bool install(const ReductionTree& tree, core::AllreduceConfig cfg,
               f64 switch_service_bps);

  void uninstall(const ReductionTree& tree, u32 allreduce_id);

  /// install over ranked_trees, retrying every switch as root until one
  /// admission succeeds.  Without a provider the smallest (then
  /// shallowest) embedding goes first; with one the cheapest, then
  /// smallest, shallowest and lowest root id.
  InstallReport install_with_retry(
      const std::vector<net::Host*>& participants, core::AllreduceConfig cfg,
      f64 switch_service_bps);

  /// Like install_with_retry but tries roots in the CALLER's order (the
  /// service layer's root-selection policy decides), optionally reusing
  /// embeddings from `cache`.  The report's tree is empty if every
  /// candidate was rejected by admission.
  InstallReport install_with_roots(
      const std::vector<net::Host*>& participants, core::AllreduceConfig cfg,
      f64 switch_service_bps, const std::vector<net::NodeId>& roots,
      class TreeCache* cache = nullptr);

  /// Invoked after every uninstall() with the released allreduce id — the
  /// service layer hooks this to re-try queued admissions when switch
  /// slots free up.
  using ReleaseListener = std::function<void(u32 allreduce_id)>;
  void set_release_listener(ReleaseListener listener) {
    on_release_ = std::move(listener);
  }

 private:
  f64 edge_cost(net::NodeId node, u32 port) const {
    return link_cost_ ? link_cost_(node, port) : 1.0;
  }

  /// One attempt of an install loop: counts it in `report`, folds the
  /// tree's feasibility into report.any_feasible, then installs.  A null
  /// `tree` (the root does not span) counts and fails.  On success the
  /// tree moves into report.tree.
  bool attempt_install(InstallReport& report, ReductionTree* tree,
                       const core::AllreduceConfig& cfg,
                       f64 switch_service_bps);

  /// One usable switch-to-switch port of the cached fabric view.
  struct Edge {
    net::NodeId peer = net::kInvalidNode;
    u32 port = 0;
    bool first = false;  ///< first usable port toward `peer`
    bool operator==(const Edge&) const = default;
  };
  /// The fabric state a view was built for: port usability changes only
  /// through fault notices, and growth shows in the counts.
  struct FabricKey {
    u64 faults = UINT64_MAX;  ///< no view built yet
    u32 nodes = 0;
    u32 links = 0;
    bool operator==(const FabricKey&) const = default;
  };
  /// A participant's access link, seen from its switch.
  struct Access {
    net::NodeId leaf = net::kInvalidNode;
    u32 port = 0;  ///< leaf's port toward the host
    u32 host_index = 0;
    u32 next = UINT32_MAX;  ///< next participant on the same leaf
    f64 cost = 0.0;
  };

  // One embedding query (manager.cpp): freeze the edge costs over the
  // cached fabric view, attach the participants, then per root span
  // (shortest paths, needed switches) and score or build.
  void freeze_edges();
  void build_view(std::vector<Edge>& edges, std::vector<u32>& begin);
  bool attach(const std::vector<net::Host*>& participants);
  bool span(net::NodeId root);
  f64 score(net::NodeId root);
  ReductionTree build(net::NodeId root);
  std::optional<ReductionTree> embed(net::NodeId root);
  /// Whether `e`, an edge of `cur`, leads to a tree child of `cur` under
  /// the last span: a needed switch whose predecessor is `cur`, through
  /// the first usable port toward it (parallel links count once).
  bool is_child(const Edge& e, net::NodeId cur) const;

  net::Network& net_;
  ReleaseListener on_release_;
  LinkCostFn link_cost_;

  // The fabric view: usable switch edges in CSR form, kept across
  // queries while view_key_ matches the network.
  FabricKey view_key_;
  std::vector<Edge> edges_;
  std::vector<u32> edge_begin_;  ///< per node; edge_begin_[n] ends it

  // Query scratch, reused across calls.  Per-node arrays are indexed by
  // NodeId; an entry is valid when its stamp equals the epoch that wrote
  // it (epochs never repeat), so nothing is cleared between roots.
  std::vector<f64> edge_cost_;  ///< per edge, read once per query
  std::vector<Access> access_;
  std::vector<u32> access_head_;
  std::vector<u32> access_tail_;
  std::vector<u64> access_stamp_;
  u64 access_epoch_ = 0;
  u32 leaves_ = 0;  ///< distinct participant leaves of the query
  std::vector<u32> dist_;
  std::vector<f64> cost_;
  std::vector<net::NodeId> pred_;
  std::vector<u64> reached_;
  std::vector<u64> needed_;
  std::vector<u16> child_index_;
  u64 epoch_ = 0;
  std::vector<net::NodeId> heap_;  ///< span's Dijkstra queue
  std::vector<u32> heap_pos_;
  std::vector<net::NodeId> order_;
};

}  // namespace flare::coll
