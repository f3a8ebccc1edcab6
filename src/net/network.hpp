// The network simulator container: owns the event calendar (picoseconds),
// nodes and links, and indexes them (NodeId -> Switch, Link -> index).  The
// topology builders install every switch's host-route table: a single
// switch (Sections 6.4/7.1 microbenchmarks), the 2-level fat tree of 8-port
// 100 Gbps switches connecting 64 nodes (Figure 15), and the 3-level fat
// tree of the 10k-host scale plane.
#pragma once

#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "net/node.hpp"

namespace flare::obs {
class Tracer;
}  // namespace flare::obs

namespace flare::net {

class FlowManager;

struct PortPeer {
  NodeId peer = kInvalidNode;
  u32 my_port = 0;
};

// ---------------------------------------------------------------- faults ---

/// Topology-level fault classes the fabric can notify about.  Packet drops
/// and corruptions are deliberately NOT notified: they are silent data loss
/// that only the host-side timeout machinery can observe — exactly the
/// distinction between fail-stop and fail-silent faults.
enum class FaultKind : u8 {
  kLinkDown = 0,
  kLinkUp,
  kSwitchFail,     ///< crash-stop: installed reduce state is LOST
  kSwitchRestart,  ///< comes back with empty reduce tables
  kDropPackets,    ///< silent: next N packets on a link vanish
  kCorruptPackets, ///< silent: next N packets fail CRC at the receiver
};

std::string_view fault_kind_name(FaultKind k);

/// One failure notification from the fabric's control plane.
struct FaultNotice {
  FaultKind kind = FaultKind::kLinkDown;
  NodeId node = kInvalidNode;    ///< for switch faults
  u32 duplex_link = UINT32_MAX;  ///< for link faults (duplex index)
  SimTime at = 0;
};

using FaultListener = std::function<void(const FaultNotice&)>;

class Network {
 public:
  // Both out of line: FlowManager is incomplete here, and the
  // unique_ptr<FlowManager> member needs it complete wherever its deleter
  // is instantiated (destructor AND constructor unwind paths).
  Network();
  ~Network();

  sim::Simulator& sim() { return sim_; }

  Host& add_host(std::string name);
  Switch& add_switch(std::string name, u32 max_allreduces = 8);

  /// Creates a full-duplex link (two unidirectional Links) between a and b.
  void connect(Node& a, Node& b, f64 bandwidth_bps, u64 latency_ps);

  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }
  const std::vector<PortPeer>& neighbors(NodeId id) const {
    return adjacency_.at(id);
  }
  u32 num_nodes() const { return static_cast<u32>(nodes_.size()); }
  const std::vector<Host*>& hosts() const { return hosts_; }
  const std::vector<Switch*>& switches() const { return switches_; }
  /// Host index (into hosts()) of node `id`; UINT32_MAX for switches.
  /// The compressed host-route tables key on this (see Switch).
  u32 host_index_of(NodeId id) const {
    return id < host_index_by_node_.size() ? host_index_by_node_[id]
                                           : UINT32_MAX;
  }
  /// The switch with node id `id`; nullptr for hosts and unknown ids.
  Switch* switch_at(NodeId id) {
    return id < switch_by_node_.size() ? switch_by_node_[id] : nullptr;
  }
  const Switch* switch_at(NodeId id) const {
    return id < switch_by_node_.size() ? switch_by_node_[id] : nullptr;
  }

  // --- flow plane (net/flow.hpp) ---
  /// The fluid bulk-transfer plane, created lazily on first use — packet-
  /// only simulations never pay for it.
  FlowManager& flows();
  bool has_flows() const { return flows_ != nullptr; }
  /// Settles flow accrual up to now(); no-op when no flows were ever
  /// started.  Telemetry and metrics exporters call this before reading
  /// link counters so EWMAs see flow load exactly like packet load.
  void sync_flows();

  /// Total bytes serialized over all links (both directions).
  u64 total_traffic_bytes() const;
  u64 total_packets() const;

  /// Network-wide collective-id allocator: every control plane sharing this
  /// fabric (NetworkManagers, Communicators, the service layer) draws from
  /// one counter, so concurrent sessions can never install colliding
  /// allreduce ids on a shared switch.
  u32 alloc_collective_id() { return next_collective_id_++; }

  /// Attribution trace-id allocator, deliberately SEPARATE from the
  /// collective-id counter: trace ids stay stable across fresh-id
  /// reinstalls/migrations (the session keeps one trace for its lifetime),
  /// and keeping the counters apart leaves existing id/ECMP sequences —
  /// and every deterministic test built on them — unperturbed.  0 is
  /// reserved for untagged traffic.
  u32 alloc_trace_id() { return next_trace_id_++; }

  // --- observability -----------------------------------------------------
  /// Optional span/instant sink.  When set, the fabric emits instant events
  /// for fault notifications (tid 0 = the fabric row); collective and
  /// service layers pull the same tracer through here.  Not owned.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  // --- fault plane -------------------------------------------------------
  /// Unidirectional link count / access (two per connect() call).
  u32 num_links() const { return static_cast<u32>(links_.size()); }
  Link& link(u32 i) { return *links_.at(i); }
  const Link& link(u32 i) const { return *links_.at(i); }
  /// Full-duplex link count (connect() calls); duplex index i maps to the
  /// unidirectional pair (2i, 2i+1).
  u32 num_duplex_links() const { return static_cast<u32>(links_.size() / 2); }
  /// Takes both directions of duplex link `i` down/up and notifies.
  void set_duplex_up(u32 i, bool up);
  /// True when the duplex link behind `port` of `node` is up in both
  /// directions AND the peer is not a failed switch — i.e. the port can
  /// carry traffic right now.
  bool port_usable(NodeId node, u32 port) const;

  /// Registers a failure observer; returns a token for removal.  Listeners
  /// run synchronously inside the notifying event — heavy reactions should
  /// reschedule themselves.
  u64 add_fault_listener(FaultListener listener);
  void remove_fault_listener(u64 token);
  void notify_fault(const FaultNotice& notice);

#if FLARE_VALIDATE_ENABLED
  /// FLARE_VALIDATE fabric-wide audit: attribution conservation on every
  /// link plus occupancy consistency on every switch.  The collective and
  /// service layers run this at op release / job completion; tests may
  /// call it at any quiescent point.
  void validate_audit() const {
    for (const auto& link : links_) link->validate_attribution();
    for (const Switch* sw : switches_) sw->validate_occupancy();
  }
  /// Validator-test backdoor: flips duplex link `i` WITHOUT a fault
  /// notice, deliberately staling every cached fabric view so
  /// tests/validate_test.cpp can prove the fabric-view audit fires.
  void debug_set_duplex_up_silently(u32 i, bool up) {
    links_.at(2 * i)->set_up(up);
    links_.at(2 * i + 1)->set_up(up);
  }
#endif

  // --- fault accounting --------------------------------------------------
  void count_corrupt_drop() { corrupt_dropped_ += 1; }
  void count_stale_reduce_drop() { stale_reduce_dropped_ += 1; }
  void count_failed_switch_drop() { failed_switch_dropped_ += 1; }
  void count_unroutable_drop() { unroutable_dropped_ += 1; }
  /// Packets silently lost on links (down links + armed drops).
  u64 link_dropped_packets() const;
  u64 corrupt_dropped_packets() const { return corrupt_dropped_; }
  u64 stale_reduce_dropped_packets() const { return stale_reduce_dropped_; }
  u64 failed_switch_dropped_packets() const { return failed_switch_dropped_; }
  u64 unroutable_dropped_packets() const { return unroutable_dropped_; }
  u64 faults_notified() const { return faults_notified_; }

 private:
  sim::Simulator sim_;
  u32 next_collective_id_ = 1;
  u32 next_trace_id_ = 1;
  obs::Tracer* tracer_ = nullptr;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::vector<PortPeer>> adjacency_;
  std::vector<Host*> hosts_;
  std::vector<Switch*> switches_;
  std::vector<u32> host_index_by_node_;  ///< UINT32_MAX for switches
  std::vector<Switch*> switch_by_node_;  ///< nullptr for hosts
  std::vector<std::pair<u64, FaultListener>> fault_listeners_;
  u64 next_listener_token_ = 1;
  u64 faults_notified_ = 0;
  u64 corrupt_dropped_ = 0;
  u64 stale_reduce_dropped_ = 0;
  u64 failed_switch_dropped_ = 0;
  u64 unroutable_dropped_ = 0;
  /// Declared last so it is destroyed first: ~FlowManager deregisters its
  /// fault listener from fault_listeners_.
  std::unique_ptr<FlowManager> flows_;
};

// ------------------------------------------------------------- builders ---

struct LinkSpec {
  f64 bandwidth_bps = 100e9;  ///< 100 Gbps, the paper's Figure 15 links
  u64 latency_ps = 500 * kPsPerNs;
};

struct BuiltTopology {
  std::vector<Host*> hosts;
  std::vector<Switch*> leaves;
  std::vector<Switch*> spines;  ///< empty for the single-switch topology
};

/// `hosts` hosts attached to one switch (unsalted ECMP).
BuiltTopology build_single_switch(Network& net, u32 hosts,
                                  const LinkSpec& link = {},
                                  u32 max_allreduces = 8);

struct FatTreeSpec {
  u32 hosts = 64;
  u32 radix = 8;  ///< ports per switch; radix/2 down + radix/2 up at leaves
  LinkSpec link{};
  u32 max_allreduces = 8;
};

/// 2-level fat tree: hosts/(radix/2) leaves, each with radix/2 uplinks
/// wired round-robin to hosts/radix spines (full bisection).  Every
/// switch's table holds its shortest-path ECMP sets toward each leaf;
/// hashing is unsalted, which the traffic-engineering benches predict.
BuiltTopology build_fat_tree(Network& net, const FatTreeSpec& spec);

/// 3-level (core/agg/edge) fat tree of `radix`-port switches — the 10k-host
/// scale topology.  `pods` pods (default radix, the full k-ary tree), each
/// with radix/2 edge and radix/2 agg switches; (radix/2)^2 cores; hosts =
/// pods * (radix/2)^2.  radix=40, pods=26 gives 10400 hosts from 1440
/// switches.
struct FatTree3Spec {
  u32 radix = 8;  ///< even; ports per switch
  u32 pods = 0;   ///< 0 = radix (the full fat tree); else 1..radix
  LinkSpec link{};
  u32 max_allreduces = 8;
};

struct BuiltTopology3 {
  std::vector<Host*> hosts;
  std::vector<Switch*> edges;
  std::vector<Switch*> aggs;
  std::vector<Switch*> cores;
};

/// Builds the 3-level tree with its host-route tables written from the
/// wiring plan (no search): per-switch route state is a default up-port
/// ECMP set plus per-subtree exceptions — megabytes, not gigabytes, at 10k
/// hosts.  Multi-stage deterministic ECMP: each table's salt is its switch
/// id, so the flow label hashes a port independently at the edge and agg
/// stage.
BuiltTopology3 build_fat_tree_3level(Network& net, const FatTree3Spec& spec);

}  // namespace flare::net
