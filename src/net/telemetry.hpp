// Fabric-wide congestion telemetry plane (Canary, PAPERS.md: congestion-
// aware in-network allreduce needs a congestion SIGNAL before it can place
// or move trees).
//
// The CongestionMonitor periodically snapshots every link's windowed
// utilization (diffing Link::busy_cum_ps() across the sampling window — the
// lifetime counter misleads after idle phases) and serialization backlog,
// folding them into a per-link EWMA.  Sampling runs on the event calendar,
// so a given topology + traffic + sampling schedule replays bit for bit;
// there is no wall-clock anywhere in the plane.
//
// Consumers:
//   * coll::NetworkManager — link-cost provider for congestion-aware tree
//     embedding (cost() / edge_cost());
//   * coll::Communicator persistent sessions — migration trigger
//     (edge_congestion() over the installed tree's links);
//   * service::AllreduceService — admission backpressure
//     (mean_congestion()).
//
// Two sampling styles, both deterministic:
//   * arm_until(t) schedules period-spaced samples on the calendar (the
//     calendar drains once the horizon passes — a monitor never keeps the
//     simulation alive forever);
//   * sample() takes one snapshot NOW — control planes call it at natural
//     decision points (iteration boundaries, admission rounds).
#pragma once

#include <map>
#include <vector>

#include "net/network.hpp"

namespace flare::net {

/// One link's congestion state in the latest snapshot.
struct LinkCongestion {
  f64 inst_utilization = 0.0;  ///< over the last sampling window
  f64 ewma_utilization = 0.0;  ///< EWMA of the windowed utilizations
  u64 queued_bytes = 0;        ///< serialization backlog at sample time
  SimTime queue_delay_ps = 0;  ///< backlog expressed as wait time
};

struct CongestionSnapshot {
  SimTime at = 0;  ///< sample time
  u64 epoch = 0;   ///< samples taken so far (staleness tracking)
  std::vector<LinkCongestion> links;  ///< by unidirectional link index
};

/// CongestionMonitor::edge_cost() = 1 (the hop)
///     + kUtilizationWeight * ewma + kQueueWeight * queue_delay / period.
/// The co-placement search (place/optimizer.cpp) prices its frozen loads
/// with the same utilization weight, so it routes candidate trees the way
/// the live embedder does.
constexpr f64 kUtilizationWeight = 8.0;
constexpr f64 kQueueWeight = 2.0;

struct CongestionMonitorOptions {
  /// Sampling period for arm_until(); also normalizes the queue-delay term
  /// of edge_cost().
  SimTime period_ps = 5 * kPsPerUs;
  /// Weight of the newest window in the EWMA (1.0 = windowed only).
  f64 ewma_alpha = 0.3;
  /// EWMA level at which a link counts as hot for the tracer's
  /// congestion-crossing instants (emitted only when the network has a
  /// tracer attached; no effect on any control decision).
  f64 hot_threshold = 0.5;
};

class CongestionMonitor {
 public:
  explicit CongestionMonitor(Network& net,
                             CongestionMonitorOptions opt = {});
  CongestionMonitor(const CongestionMonitor&) = delete;
  CongestionMonitor& operator=(const CongestionMonitor&) = delete;

  /// Takes one snapshot at the current simulated time.  Re-sampling at the
  /// same instant refreshes queue occupancy but leaves the EWMA untouched
  /// (a zero-length window has no utilization).
  void sample();

  /// Schedules period-spaced samples from now up to and including `until`.
  /// The events capture `this`: the monitor must outlive the horizon.
  void arm_until(SimTime until);

  const CongestionSnapshot& snapshot() const { return snap_; }
  u64 samples() const { return snap_.epoch; }
  const CongestionMonitorOptions& options() const { return opt_; }
  Network& network() { return net_; }

  /// Congestion of the duplex link behind `port` of `node`: the worse
  /// EWMA utilization of the two directions (tree traffic crosses both —
  /// contributions up, multicast down).
  f64 edge_congestion(NodeId node, u32 port) const;

  /// edge_congestion() with the named collective's OWN contribution
  /// subtracted: per direction, clamp(ewma_total - ewma_trace, >= 0), then
  /// the worse direction.  The per-trace EWMAs update with the same window
  /// schedule, seeding, and alpha as the totals, and link attribution
  /// conserves busy time exactly, so a link heated ONLY by `trace` reads
  /// ~0 here — the migration trigger that replaced the completion-time
  /// regression gate sees FOREIGN heat alone.  trace 0 excludes nothing
  /// measurable (untagged traffic is by definition foreign).
  f64 edge_congestion_excluding(NodeId node, u32 port, u32 trace) const;

  /// EWMA utilization attributed to `trace` on unidirectional link `i`
  /// (0 when the trace never serialized there).  Test/bridge hook.
  f64 link_trace_ewma(u32 i, u32 trace) const;

  /// Embedding cost of crossing that duplex link (>= 1.0, the hop cost;
  /// grows with EWMA utilization and queueing).  Plug into
  /// coll::NetworkManager::set_link_cost for congestion-aware placement.
  f64 edge_cost(NodeId node, u32 port) const;

  /// Fabric-wide mean EWMA utilization over every unidirectional link in
  /// the latest snapshot (0 before the first sample).  The service layer's
  /// admission-backpressure signal: one number saying "how hot is the
  /// fabric as a whole", as opposed to the per-edge views above.
  f64 mean_congestion() const;

 private:
  /// Per-(link, trace) EWMA state, updated on the same windows as the
  /// totals.  std::map keyed by trace id: deterministic iteration, and the
  /// trace population per link is small (the collectives crossing it).
  struct TraceState {
    f64 ewma = 0.0;
    u64 busy_at_last = 0;
  };

  const LinkCongestion* stats_for(NodeId node, u32 port, bool reverse) const;
  const Link* link_for(NodeId node, u32 port, bool reverse) const;

  Network& net_;
  CongestionMonitorOptions opt_;
  CongestionSnapshot snap_;
  UtilizationWindow window_;  ///< sample-to-sample window, per link
  std::vector<std::map<u32, TraceState>> by_trace_;  ///< by link index
  std::vector<bool> hot_;  ///< above hot_threshold at last sample
  SimTime armed_until_ = 0;  ///< furthest scheduled sample (idempotent arm)
};

}  // namespace flare::net
