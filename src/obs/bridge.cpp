#include "obs/bridge.hpp"

#include <memory>
#include <string>

namespace flare::obs {

namespace {

std::string link_label(const net::Link& link, u32 i) {
  return link.name().empty() ? "link" + std::to_string(i) : link.name();
}

}  // namespace

void register_network_metrics(MetricsRegistry& reg, net::Network& net) {
  // Collect-to-collect window for the monitor-less utilization gauge,
  // owned by the collector closure (shared_ptr: std::function must stay
  // copyable).
  auto window = std::make_shared<net::UtilizationWindow>();
  reg.add_collector([&net, window](MetricsRegistry& r) {
    // Settle fluid flow accrual before reading any busy counter (no-op
    // without an active flow plane).
    net.sync_flows();
    const SimTime now = net.sim().now();
    window->resize(net.num_links());
    // Advance the utilization window only when time moved: two collects at
    // the same instant re-serve the previous window instead of a bogus 0.
    const bool fresh = window->fresh(now);
    for (u32 i = 0; i < net.num_links(); ++i) {
      net::Link& link = net.link(i);
#if FLARE_VALIDATE_ENABLED
      // Exporters divide by the conservation identity (per-trace sums ==
      // busy total); audit it on the same schedule they read it.
      link.validate_attribution();
#endif
      const Labels l{{"link", link_label(link, i)}};
      r.counter("flare_link_busy_ps_total",
                "Cumulative serialization picoseconds per link", l)
          .counter = link.busy_cum_ps();
      r.counter("flare_link_dropped_packets_total",
                "Packets silently dropped on the link (down link or armed "
                "drop)",
                l)
          .counter = link.packets_dropped();
      r.counter("flare_link_corrupted_packets_total",
                "Packets corrupted in flight (discarded at the receiver)", l)
          .counter = link.packets_corrupted();
      for (const auto& [trace, ps] : link.busy_by_trace()) {
        r.counter("flare_link_busy_ps_by_collective",
                  "Busy picoseconds attributed per collective trace id "
                  "(trace 0 = untagged); sums exactly to "
                  "flare_link_busy_ps_total",
                  {{"link", link_label(link, i)},
                   {"trace", std::to_string(trace)}})
            .counter = ps;
      }
      if (fresh) {
        const f64 util = window->advance_link(i, link.busy_cum_ps(), now);
        r.gauge("flare_link_windowed_utilization",
                "Link utilization over the window between the last two "
                "collects (lifetime utilization on the first); no "
                "CongestionMonitor needed",
                l)
            .set(util);
      }
      // On-demand backlog gauges: evaluated inside collect(), so they
      // always read the calendar's CURRENT time.
      r.callback_gauge(
          "flare_link_queue_depth_ps",
          "Serialization backlog in picoseconds a packet offered now would "
          "wait",
          l, [&net, i] {
            return static_cast<f64>(
                net.link(i).queue_delay_ps(net.sim().now()));
          });
      r.callback_gauge(
          "flare_link_queued_bytes",
          "Bytes accepted but not yet serialized on the link", l,
          [&net, i] {
            return static_cast<f64>(net.link(i).queued_bytes(net.sim().now()));
          });
    }
    if (fresh) window->close(now);

    r.counter("flare_net_traffic_bytes_total",
              "Bytes serialized over all links, both directions")
        .counter = net.total_traffic_bytes();
    r.counter("flare_net_packets_total", "Packets serialized over all links")
        .counter = net.total_packets();
    r.counter("flare_net_faults_notified_total",
              "Fabric fault notices delivered to listeners")
        .counter = net.faults_notified();
    const char* kHelp = "Packets dropped network-wide, by cause";
    r.counter("flare_net_drops_total", kHelp, {{"kind", "link"}}).counter =
        net.link_dropped_packets();
    r.counter("flare_net_drops_total", kHelp, {{"kind", "corrupt"}}).counter =
        net.corrupt_dropped_packets();
    r.counter("flare_net_drops_total", kHelp, {{"kind", "stale_reduce"}})
        .counter = net.stale_reduce_dropped_packets();
    r.counter("flare_net_drops_total", kHelp, {{"kind", "failed_switch"}})
        .counter = net.failed_switch_dropped_packets();
    r.counter("flare_net_drops_total", kHelp, {{"kind", "unroutable"}})
        .counter = net.unroutable_dropped_packets();

    for (net::Switch* sw : net.switches()) {
      const Labels l{{"switch", sw->name()}};
      r.gauge("flare_switch_installed_reduces",
              "Reduction sessions currently installed on the switch", l)
          .set(static_cast<f64>(sw->installed_reduces()));
      r.gauge("flare_switch_pool_in_use",
              "Aggregation-pool slots in use across the switch's engines", l)
          .set(static_cast<f64>(sw->engine_pool_in_use()));
      r.gauge("flare_switch_occupancy_peak",
              "High-water mark of concurrent reductions on the switch", l)
          .set(static_cast<f64>(sw->occupancy().high_water()));
    }
  });
}

namespace {

void set_event(MetricsRegistry& reg, const char* event, u64 value) {
  reg.counter("flare_service_events_total",
              "AllreduceService lifecycle tallies, by event",
              {{"event", event}})
      .counter = value;
}

void set_latency(MetricsRegistry& reg, const char* kind,
                 const RunningStats& s) {
  const char* kHelp =
      "Service latency statistics in seconds, by kind and statistic";
  const auto stat = [&](const char* name, f64 v) {
    reg.gauge("flare_service_latency_seconds", kHelp,
              {{"kind", kind}, {"stat", name}})
        .set(v);
  };
  stat("mean", s.mean());
  stat("min", s.min());
  stat("max", s.max());
  reg.counter("flare_service_latency_samples_total",
              "Jobs contributing to each latency statistic",
              {{"kind", kind}})
      .counter = s.count();
}

}  // namespace

void export_service_telemetry(MetricsRegistry& reg,
                              const service::ServiceTelemetry& t) {
  set_event(reg, "submitted", t.submitted);
  set_event(reg, "in_network", t.in_network);
  set_event(reg, "host_requested", t.host_requested);
  set_event(reg, "timeout_fallback", t.timeout_fallbacks);
  set_event(reg, "overflow_fallback", t.overflow_fallbacks);
  set_event(reg, "inadmissible_fallback", t.inadmissible_fallbacks);
  set_event(reg, "rejected", t.rejected);
  set_event(reg, "timed_out", t.timed_out);
  set_event(reg, "queue_overflow", t.queue_overflows);
  set_event(reg, "inadmissible", t.inadmissible);
  set_event(reg, "admission_attempt", t.admission_attempts);
  set_event(reg, "requeue_retry", t.requeue_retries);
  set_event(reg, "fault_seen", t.faults_seen);
  set_event(reg, "retransmit", t.retransmits);
  set_event(reg, "job_recovered", t.jobs_recovered);
  set_event(reg, "fault_fallback", t.fault_fallbacks);
  set_event(reg, "migration", t.migrations);
  set_event(reg, "planned_migration", t.planned_migrations);
  set_event(reg, "admission_reorder", t.admission_reorders);
  set_event(reg, "congestion_deferral", t.congestion_deferrals);
  export_placement_telemetry(reg, t);
  reg.gauge("flare_service_peak_queue_len",
            "High-water mark of the admission wait queue")
      .set(static_cast<f64>(t.peak_queue_len));
  set_latency(reg, "queue_delay", t.queue_delay_s);
  set_latency(reg, "in_network_service", t.in_network_service_s);
  set_latency(reg, "fallback_service", t.fallback_service_s);
}

void export_placement_telemetry(MetricsRegistry& reg,
                                const service::ServiceTelemetry& t) {
  reg.counter("flare_place_rounds_total",
              "Co-placement optimizer rounds executed")
      .counter = t.place.rounds;
  const char* kMoves = "Co-placement plan moves, by outcome";
  const auto moves = [&](const char* outcome, u64 v) {
    reg.counter("flare_place_moves_total", kMoves, {{"outcome", outcome}})
        .counter = v;
  };
  moves("proposed", t.place.moves_proposed);
  moves("rejected", t.place.moves_rejected);
  moves("planned", t.place.moves_planned);
  // Applied moves are counted where they happen — at the jobs' iteration
  // boundaries — and flow back through CollectiveResult.
  moves("applied", t.planned_migrations);
  const char* kCost =
      "Fabric objective around the last staged plan, by phase "
      "(predicted vs realized grades the optimizer's cost model)";
  const auto cost = [&](const char* phase, f64 v) {
    reg.gauge("flare_place_cost", kCost, {{"phase", phase}}).set(v);
  };
  cost("before", t.place.last_cost_before);
  cost("predicted", t.place.last_cost_predicted);
  cost("realized", t.place.last_cost_realized);
}

void accumulate_result(MetricsRegistry& reg,
                       const coll::CollectiveResult& r) {
  reg.counter("flare_collective_completions_total",
              "Finished collectives, by serving data plane and outcome",
              {{"plane", r.in_network ? "in_network" : "host"},
               {"ok", r.ok ? "true" : "false"}})
      .inc();
  const char* kHelp = "Cumulative per-collective tallies, by kind";
  reg.counter("flare_collective_tallies_total", kHelp, {{"kind", "blocks"}})
      .inc(r.blocks);
  reg.counter("flare_collective_tallies_total", kHelp,
              {{"kind", "retransmits"}})
      .inc(r.retransmits);
  reg.counter("flare_collective_tallies_total", kHelp,
              {{"kind", "recoveries"}})
      .inc(r.recoveries);
  reg.counter("flare_collective_tallies_total", kHelp,
              {{"kind", "migrations"}})
      .inc(r.migrations);
  reg.counter("flare_collective_tallies_total", kHelp,
              {{"kind", "extra_packets"}})
      .inc(r.extra_packets);
  if (r.fell_back) {
    reg.counter("flare_collective_tallies_total", kHelp,
                {{"kind", "fault_fallbacks"}})
        .inc();
  }
  reg.histogram("flare_collective_completion_seconds",
                "Completion time of finished collectives (slowest host)",
                {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0})
      .observe(r.completion_seconds);
}

}  // namespace flare::obs
