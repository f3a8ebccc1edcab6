// Network nodes: hosts and switches.
//
// Switches forward host messages by host-route tables (ECMP over
// equal-cost ports by salted flow hash) and intercept Flare reduction traffic:
// up-packets pass through a calibrated aggregation server (service rate
// matched to the PsPIN unit's measured bandwidth — exactly how the paper
// tuned its extended SST) and into a core::AllreduceEngine; results are
// forwarded to the tree parent or multicast down to the tree children.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/validate.hpp"
#include "core/allreduce_engine.hpp"
#include "net/link.hpp"

namespace flare::net {

class Network;

class Node {
 public:
  Node(Network& net, NodeId id, std::string name)
      : net_(net), id_(id), name_(std::move(name)) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  u32 num_ports() const { return static_cast<u32>(ports_.size()); }

  /// Registers an outgoing link as the next port; returns the port index.
  u32 add_port(Link* out) {
    ports_.push_back(out);
    return static_cast<u32>(ports_.size() - 1);
  }
  Link& port(u32 i) { return *ports_.at(i); }
  const Link& port(u32 i) const { return *ports_.at(i); }

  virtual void receive(NetPacket&& pkt, u32 in_port) = 0;

 protected:
  Network& net_;
  NodeId id_;
  std::string name_;
  std::vector<Link*> ports_;
};

// ---------------------------------------------------------------------------

class Host final : public Node {
 public:
  using MsgHandler = std::function<void(const HostMsg&)>;
  using ReduceHandler = std::function<void(const core::Packet&)>;

  Host(Network& net, NodeId id, u32 host_index, std::string name)
      : Node(net, id, std::move(name)), host_index_(host_index) {}

  u32 host_index() const { return host_index_; }
  /// Catch-all handler for host messages no proto handler claims.
  void set_msg_handler(MsgHandler h) { on_msg_ = std::move(h); }
  /// Registers a handler for one wire protocol id, so independent
  /// host-based collectives (each with its own proto) can overlap on one
  /// host without clobbering each other's dispatch.
  void set_proto_handler(u32 proto, MsgHandler h) {
    on_proto_[proto] = std::move(h);
  }
  void clear_proto_handler(u32 proto) { on_proto_.erase(proto); }
  /// Registers the consumer of down-multicast results for one allreduce id
  /// (a host can participate in several concurrent allreduces, Section 4).
  void set_reduce_handler(u32 allreduce_id, ReduceHandler h) {
    on_reduce_[allreduce_id] = std::move(h);
  }
  void clear_reduce_handler(u32 allreduce_id) {
    on_reduce_.erase(allreduce_id);
  }

  /// Sends through the NIC (port 0); the link serializes at NIC rate.
  void send(NetPacket&& pkt) { port(0).send(std::move(pkt)); }

  void receive(NetPacket&& pkt, u32 in_port) override;

 private:
  u32 host_index_;
  MsgHandler on_msg_;
  std::unordered_map<u32, MsgHandler> on_proto_;
  std::unordered_map<u32, ReduceHandler> on_reduce_;
};

// ---------------------------------------------------------------------------

/// Reduction-tree role of one switch for one installed allreduce.
struct ReduceRole {
  std::unique_ptr<core::AllreduceEngine> engine;
  bool is_root = false;
  u32 parent_port = UINT32_MAX;      ///< toward the tree root
  u16 child_index_at_parent = 0;     ///< our index among the parent's children
  std::vector<u32> child_ports;      ///< down-multicast targets
  /// Calibrated aggregation service rate (bits/s of up-traffic processed).
  f64 service_bps = 0.0;
  SimTime server_busy_until = 0;
  /// The packets this switch emitted for each block this iteration, in
  /// order, indexed by block id (dense per collective).  A host-timeout
  /// retransmission arriving for a completed block re-emits them instead
  /// of re-aggregating — the recovery path for lost switch-to-switch
  /// aggregates and lost down-multicasts.  A dense block emits one result
  /// packet; a sparse block's output spans several shard and spill
  /// packets.  A sequence is complete, and re-emittable, once it ends with
  /// a last-shard packet (dense results always carry the flag); receivers
  /// deduplicate replays by (child, shard_seq), so replaying the whole
  /// sequence is idempotent.  Filled only when the collective arms fault
  /// recovery, since nothing can request a replay otherwise; cleared by
  /// reset_reduce() between iterations.
  std::vector<std::vector<core::PacketPtr>> completed;
};

/// A switch's destination routing, keyed by host index (the topology
/// builders install one on every switch).  Instead of an O(nodes) table,
/// it holds one DEFAULT ECMP set plus exceptions for groups of hosts.
/// Destination host indices are divided by `group_size` first, so a whole
/// leaf (or pod) of contiguous hosts shares a single entry: a leaf or edge
/// switch keys individual hosts (group_size 1), a spine keys leaves, an agg
/// keys edges (group_size radix/2), a core keys pods (group_size
/// (radix/2)^2).  Destinations that are not hosts use the default set.
struct HostRouteTable {
  u32 group_size = 1;  ///< contiguous host indices sharing one decision
  /// ECMP hash salt, XORed into the flow label before ecmp_index.  Zero on
  /// the 1- and 2-level fabrics, whose unsalted paths the traffic-
  /// engineering benches predict; the switch id on the 3-level tree, so
  /// the edge and agg stages hash INDEPENDENTLY instead of polarizing
  /// every label onto the diagonal cores.  The flow plane applies the same
  /// salt.
  u64 salt = 0;
  std::vector<u32> up_ports;  ///< default ECMP set (toward the upper tier)
  struct Exception {
    u32 group = 0;   ///< dst host index / group_size
    u32 begin = 0;   ///< range into `ports`
    u32 end = 0;
  };
  std::vector<Exception> exceptions;  ///< sorted by group
  std::vector<u32> ports;             ///< concatenated exception port sets
};

class Switch final : public Node, public core::EngineHost {
 public:
  Switch(Network& net, NodeId id, std::string name, u32 max_allreduces = 8);
  ~Switch() override;

  // --- forwarding plane ---
  void set_host_routes(HostRouteTable table) {
    host_routes_ = std::move(table);
  }
  /// The ECMP port set toward `dst`.  Shared by forward_host_msg and the
  /// flow plane's path walk, so both planes hash identical sets.
  std::span<const u32> route_ports(NodeId dst) const;
  /// The installed table's ECMP hash salt (HostRouteTable::salt).
  u64 ecmp_salt() const { return host_routes_.salt; }
  void receive(NetPacket&& pkt, u32 in_port) override;

  // --- fault plane ---
  /// Crash-stop failure: every installed reduction role (engines, cached
  /// results, in-service work) is LOST and all traffic is dropped until
  /// restart().  Notifies the network's fault listeners.
  void fail();
  /// Restarts a failed switch: forwarding tables persist, reduce state
  /// starts empty — the control plane must reinstall.
  void restart();
  bool failed() const { return failed_; }

  // --- control plane (driven by the coll::NetworkManager) ---
  bool can_install() const {
    return !failed_ && roles_.size() < max_allreduces_;
  }
  u32 max_allreduces() const { return max_allreduces_; }
  /// Installs a reduction role; returns false if slots are exhausted.
  bool install_reduce(const core::AllreduceConfig& cfg, ReduceRole&& role);
  void uninstall_reduce(u32 allreduce_id);
  /// Clears the installed engine's per-iteration state WITHOUT releasing
  /// the switch slot — persistent collectives re-run against the installed
  /// tree (install-once / run-many).  Returns false if the id is unknown.
  bool reset_reduce(u32 allreduce_id);
  const ReduceRole* role(u32 allreduce_id) const;
  const core::EngineStats* engine_stats(u32 allreduce_id) const;

  // --- occupancy telemetry (Section 4: statically partitioned memory) ---
  /// Reductions currently installed on this switch.
  u32 installed_reduces() const { return static_cast<u32>(roles_.size()); }
  /// Remaining admission slots.
  u32 free_slots() const { return max_allreduces_ - installed_reduces(); }
  /// Occupancy over simulated time: current level, high-water mark, and
  /// time-weighted mean — the control plane's contention signal.
  const Gauge& occupancy() const { return occupancy_; }
  /// Working-memory bytes currently acquired across every installed
  /// engine's pool.  The sparse leak check: once an iteration completes,
  /// every hash/array store was returned and this reads zero even while
  /// the installs themselves stay resident (persistent sessions).
  u64 engine_pool_in_use() const {
    u64 total = 0;
    for (const RoleSlot& slot : roles_) {
      total += slot.role.engine->pool().in_use();
    }
    return total;
  }

  // --- EngineHost (picosecond clock; engines run with a zero cost model,
  //     timing comes from the calibrated server) ---
  sim::Simulator& simulator() override;
  const core::CostModel& costs() override { return zero_costs_; }
  void emit(core::Packet&& pkt, SimTime when) override;
  /// The calibrated server, not the engine, paces the switch.
  void handler_done(u32 /*handler*/, SimTime /*end*/) override {}

  u64 reduce_packets_processed() const { return reduce_packets_; }

#if FLARE_VALIDATE_ENABLED
  /// FLARE_VALIDATE occupancy audit: the gauge the control plane reads
  /// for admission must track the role table exactly.  Run after every
  /// install/uninstall and on demand by fabric-wide audits.
  void validate_occupancy() const {
    if (occupancy_.current() != roles_.size()) {
      validate::fail("switch-occupancy",
                     "switch '" + name_ + "': occupancy gauge reads " +
                         std::to_string(occupancy_.current()) + " but " +
                         std::to_string(roles_.size()) +
                         " roles are installed");
    }
  }
  /// Validator-test backdoor: bumps the occupancy gauge WITHOUT
  /// installing a role — the leaked-slot bug class — so
  /// tests/validate_test.cpp can prove the audit fires.
  void debug_leak_occupancy();
#endif

 private:
  /// One installed role.  A switch holds at most max_allreduces_ of them
  /// (default 8), so a linear scan of this small array finds a role
  /// faster than hashing its id.
  struct RoleSlot {
    u32 id = 0;
    ReduceRole role;
  };
  ReduceRole* find_role(u32 allreduce_id) {
    for (RoleSlot& slot : roles_) {
      if (slot.id == allreduce_id) return &slot.role;
    }
    return nullptr;
  }

  void forward_host_msg(NetPacket&& pkt);
  void on_reduce_up(NetPacket&& pkt);
  void on_reduce_down(NetPacket&& pkt);
  /// Replays a completed block's cached emission sequence in order
  /// (retransmission hit).
  void reemit_completed(u32 allreduce_id, u32 block_id);

  bool failed_ = false;
  u32 max_allreduces_;
  HostRouteTable host_routes_;
  std::vector<RoleSlot> roles_;
  Gauge occupancy_;
  core::CostModel zero_costs_;
  u64 reduce_packets_ = 0;
};

}  // namespace flare::net
