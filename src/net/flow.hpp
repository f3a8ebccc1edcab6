// Flow-level (non-packet) link modeling for bulk transfers — the scale
// plane's answer to per-packet cross-traffic cost at 10k hosts.
//
// A Flow is a src->dst host transfer of `bytes` that occupies a
// deterministic bandwidth share on every link of its path instead of
// emitting one calendar event per packet.  Shares come from max-min
// fair-share water-filling, recomputed ONLY at flow start / finish /
// reroute instants; between recompute instants every rate is constant, so
// the whole fluid system is advanced in closed form (advance_to) and the
// calendar carries exactly one pending event — the earliest finish —
// guarded by an epoch counter so stale finish events are no-ops.
//
// The congestion a flow builds is REAL for the packet plane:
//
//   * busy_cum_ps and the per-trace attribution bucket accrue the exact
//     serialization time the flow's bits would have cost
//     (Link::add_flow_busy adds the identical amount to both, so the
//     FLARE_VALIDATE conservation audit holds by construction), which
//     means CongestionMonitor EWMAs — fed by diffing busy_cum_ps — see
//     flow load exactly like packet load (Network::sync_flows() settles
//     accrual before every sample);
//   * each link's aggregate flow rate throttles packet serialization
//     (Link::send serializes at the remaining bandwidth), so packet-level
//     collectives sharing a link with background flows genuinely slow
//     down.
//
// Paths use the SAME deterministic ECMP as packet forwarding
// (Switch::route_ports + ecmp_index on the salted flow label, with the
// identical live-subset re-hash on dark ports), so a given seeded workload
// heats the same links whether it runs in packet or flow mode — the parity
// property
// bench_scale_10k gates on.  Fault notices trigger re-pathing; a flow with
// no usable path stalls at rate zero (it does not hold the calendar open)
// and is re-pathed on the next fault notice.
#pragma once

#include <functional>
#include <vector>

#include "common/units.hpp"
#include "net/network.hpp"

namespace flare::net {

struct FlowSpec {
  u32 src_host = 0;      ///< index into Network::hosts()
  u32 dst_host = 0;
  u64 bytes = 0;         ///< wire bytes to transfer
  u64 flow_label = 0;    ///< ECMP hash input (same role as NetPacket::flow)
  u32 trace = 0;         ///< attribution trace id (0 = untagged)
  f64 rate_cap_bps = 0;  ///< application pacing limit; 0 = link-limited
  /// Invoked (synchronously, inside the finish event) when the last bit
  /// is delivered.  Optional.
  std::function<void(SimTime)> on_complete;
};

/// Owns every active flow on one Network (created lazily by
/// Network::flows()).  All mutation happens at event times through a
/// deterministic total order — flows by ascending id, links by ascending
/// index — so runs replay bit for bit.
class FlowManager {
 public:
  explicit FlowManager(Network& net);
  ~FlowManager();
  FlowManager(const FlowManager&) = delete;
  FlowManager& operator=(const FlowManager&) = delete;

  /// Starts a flow at the current simulated time; returns its id.
  u64 start_flow(FlowSpec spec);
  /// Schedules a flow start at absolute time `at` (>= now).  The calendar
  /// event captures this manager: it must outlive the horizon (it does —
  /// the Network owns it).
  void start_flow_at(SimTime at, FlowSpec spec);

  /// Settles fluid accrual up to the current simulated time.  Called by
  /// CongestionMonitor::sample() and the metrics bridge before reading
  /// link counters; idempotent at a fixed time.
  void sync();

  u64 flows_started() const { return flows_started_; }
  u64 flows_finished() const { return flows_finished_; }
  u64 flows_active() const { return flows_.size(); }
  /// Active flows currently without a usable path (rate 0; re-pathed on
  /// the next fault notice).
  u64 flows_stalled() const;
  /// Path changes applied by fault notices (including stalls/revivals).
  u64 reroutes() const { return reroutes_; }
  /// Fair-share recomputation instants so far (the event-count currency
  /// the flow model saves: compare against packets for the same bytes).
  u64 recomputes() const { return recomputes_; }

 private:
  struct ActiveFlow {
    u64 id = 0;
    FlowSpec spec;
    f64 remaining_bits = 0;
    f64 rate_bps = 0;            ///< current fair share (0 while stalled)
    f64 byte_carry = 0;          ///< fractional bytes not yet booked
    std::vector<u32> path;       ///< unidirectional link indices; empty = stalled
    std::vector<f64> busy_carry; ///< fractional busy ps per path link
  };

  void advance_to(SimTime now);
  void recompute();
  void arm_next();
  void on_timer();
  void on_fault();
  std::vector<u32> compute_path(const FlowSpec& spec) const;

  Network& net_;
  std::vector<ActiveFlow> flows_;  ///< ascending id (insertion order)
  u64 next_flow_id_ = 1;
  u64 epoch_ = 0;                  ///< cancels stale finish events
  SimTime last_advance_ = 0;
  u64 flows_started_ = 0;
  u64 flows_finished_ = 0;
  u64 reroutes_ = 0;
  u64 recomputes_ = 0;
  u64 fault_listener_token_ = 0;
  /// Links that carried a nonzero aggregate flow rate after the last
  /// recompute (their Link::flow_rate_bps must be reset when they empty).
  std::vector<u32> loaded_links_;
  /// recompute() scratch: link index -> dense slot for the current
  /// water-filling round.  Member so its capacity persists across the
  /// tens of thousands of recomputes a big run performs.
  std::vector<u32> slot_of_link_;
};

}  // namespace flare::net
