#include "net/telemetry.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace flare::net {

CongestionMonitor::CongestionMonitor(Network& net,
                                     CongestionMonitorOptions opt)
    : net_(net), opt_(opt) {
  FLARE_ASSERT_MSG(opt_.period_ps > 0, "sampling period must be positive");
  const u32 n = net_.num_links();
  snap_.links.resize(n);
  window_.resize(n);
  by_trace_.resize(n);
  hot_.assign(n, false);
}

void CongestionMonitor::sample() {
  FLARE_ASSERT_MSG(net_.num_links() == snap_.links.size(),
                   "links added after the monitor was built");
  // Settle fluid flow accrual first, so the windowed diffs below see flow
  // load exactly like packet load (no-op without an active flow plane).
  net_.sync_flows();
  const SimTime now = net_.sim().now();
  const bool fresh_window = window_.fresh(now);
  // EWMA update; the first window, [0, now], seeds it.
  const auto blend = [this](f64 inst, f64 ewma) {
    if (!window_.sampled()) return inst;
    return opt_.ewma_alpha * inst + (1.0 - opt_.ewma_alpha) * ewma;
  };
  for (u32 i = 0; i < snap_.links.size(); ++i) {
    const Link& link = net_.link(i);
#if FLARE_VALIDATE_ENABLED
    // The per-trace EWMAs below are only a sound foreign-heat signal
    // while attribution conserves busy time exactly; audit per sample.
    link.validate_attribution();
#endif
    LinkCongestion& lc = snap_.links[i];
    if (fresh_window) {
      lc.inst_utilization = window_.advance_link(i, link.busy_cum_ps(), now);
      lc.ewma_utilization = blend(lc.inst_utilization, lc.ewma_utilization);
      // Per-trace EWMAs on the SAME window schedule, seeding recipe, and
      // alpha as the total above.  Attribution conserves busy time exactly
      // (sum of buckets == busy_cum), and the EWMA update is linear, so in
      // exact arithmetic sum-over-traces(ewma) == total ewma — which is
      // what makes total - self a sound foreign-heat signal.  A trace id
      // that never reappears keeps decaying its old state toward zero only
      // implicitly (no new busy -> windowed form reads 0), which is the
      // same behaviour the total exhibits for an idle link.
      std::map<u32, TraceState>& per = by_trace_[i];
      for (const auto& [trace, busy_t] : link.busy_by_trace()) {
        TraceState& st = per[trace];
        st.ewma = blend(window_.advance(st.busy_at_last, busy_t, now), st.ewma);
      }
      // Congestion-threshold crossing instants for the tracer (tid 0):
      // chrome://tracing shows when each link went hot/cool against the
      // collectives' spans.  Pure observation — nothing consumes hot_.
      if (obs::Tracer* tr = net_.tracer()) {
        const bool hot = lc.ewma_utilization > opt_.hot_threshold;
        if (hot != hot_[i]) {
          tr->name_thread(0, "fabric");
          tr->instant(0, hot ? "congestion-hot" : "congestion-cool", now,
                      "congestion",
                      "{\"link\":\"" + link.name() + "\"}");
          hot_[i] = hot;
        }
      }
    }
    lc.queue_delay_ps = link.queue_delay_ps(now);
    lc.queued_bytes = link.queued_bytes(now);
  }
  if (fresh_window) window_.close(now);
  snap_.at = now;
  snap_.epoch += 1;
}

void CongestionMonitor::arm_until(SimTime until) {
  sim::Simulator& sim = net_.sim();
  SimTime at = std::max(sim.now(), armed_until_);
  // First new sample one period past whatever is already scheduled.
  for (at += opt_.period_ps; at <= until; at += opt_.period_ps) {
    sim.schedule_at(at, [this] { sample(); });
    armed_until_ = at;
  }
}

const LinkCongestion* CongestionMonitor::stats_for(NodeId node, u32 port,
                                                   bool reverse) const {
  const Link* link = link_for(node, port, reverse);
  if (link == nullptr || link->index() >= snap_.links.size()) return nullptr;
  return &snap_.links[link->index()];
}

const Link* CongestionMonitor::link_for(NodeId node, u32 port,
                                        bool reverse) const {
  const Node& n = net_.node(node);
  if (port >= n.num_ports()) return nullptr;
  const Link* link = &n.port(port);
  return reverse ? link->reverse() : link;
}

f64 CongestionMonitor::link_trace_ewma(u32 i, u32 trace) const {
  if (i >= by_trace_.size()) return 0.0;
  const auto ts = by_trace_[i].find(trace);
  return ts == by_trace_[i].end() ? 0.0 : ts->second.ewma;
}

f64 CongestionMonitor::edge_congestion_excluding(NodeId node, u32 port,
                                                 u32 trace) const {
  f64 worst = 0.0;
  for (const bool reverse : {false, true}) {
    const LinkCongestion* lc = stats_for(node, port, reverse);
    if (lc == nullptr) continue;
    // stats_for found the link, so link_for is non-null here.
    const f64 self =
        link_trace_ewma(link_for(node, port, reverse)->index(), trace);
    // Clamp: exact in theory (attribution conserves), but FP rounding can
    // leave total - self epsilon-negative on a purely-self link.
    worst = std::max(worst, std::max(0.0, lc->ewma_utilization - self));
  }
  return worst;
}

f64 CongestionMonitor::edge_congestion(NodeId node, u32 port) const {
  f64 worst = 0.0;
  if (const LinkCongestion* out = stats_for(node, port, false)) {
    worst = std::max(worst, out->ewma_utilization);
  }
  if (const LinkCongestion* in = stats_for(node, port, true)) {
    worst = std::max(worst, in->ewma_utilization);
  }
  return worst;
}

f64 CongestionMonitor::edge_cost(NodeId node, u32 port) const {
  f64 queue_ps = 0.0;
  if (const LinkCongestion* out = stats_for(node, port, false)) {
    queue_ps = std::max(queue_ps, static_cast<f64>(out->queue_delay_ps));
  }
  if (const LinkCongestion* in = stats_for(node, port, true)) {
    queue_ps = std::max(queue_ps, static_cast<f64>(in->queue_delay_ps));
  }
  return 1.0 + kUtilizationWeight * edge_congestion(node, port) +
         kQueueWeight * queue_ps / static_cast<f64>(opt_.period_ps);
}

f64 CongestionMonitor::mean_congestion() const {
  if (snap_.links.empty()) return 0.0;
  f64 sum = 0.0;
  for (const LinkCongestion& lc : snap_.links) sum += lc.ewma_utilization;
  return sum / static_cast<f64>(snap_.links.size());
}

}  // namespace flare::net
