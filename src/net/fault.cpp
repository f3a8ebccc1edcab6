#include "net/fault.hpp"

#include <algorithm>
#include <cstdio>

#include "common/rng.hpp"

namespace flare::net {

namespace {

SimTime pick_time(Rng& rng, SimTime horizon) {
  return horizon == 0 ? 0 : rng.uniform_u64(horizon);
}

SimTime pick_outage(Rng& rng, const FaultPlanSpec& spec) {
  const SimTime lo = spec.min_outage_ps;
  const SimTime hi = std::max(spec.max_outage_ps, lo + 1);
  return lo + rng.uniform_u64(hi - lo);
}

}  // namespace

FaultPlan FaultPlan::random(const Network& net, u64 seed,
                            const FaultPlanSpec& spec) {
  Rng rng(seed ^ 0xFA017C0DEull);
  FaultPlan plan;

  // Duplex links eligible for flaps: optionally exclude host access links.
  // The topology builders always call connect(host, switch, ...), so the
  // forward direction of a host link is named "h<i>->...".
  std::vector<u32> flap_candidates;
  for (u32 i = 0; i < net.num_duplex_links(); ++i) {
    const std::string& name = net.link(2 * i).name();
    const bool host_link = !name.empty() && name[0] == 'h';
    if (spec.include_host_links || !host_link) flap_candidates.push_back(i);
  }

  for (u32 f = 0; f < spec.link_flaps && !flap_candidates.empty(); ++f) {
    const u32 link = flap_candidates[rng.uniform_u64(flap_candidates.size())];
    const SimTime down = pick_time(rng, spec.horizon_ps);
    const SimTime up = down + pick_outage(rng, spec);
    plan.events.push_back({down, FaultKind::kLinkDown, link, 1});
    plan.events.push_back({up, FaultKind::kLinkUp, link, 1});
  }

  const auto& switches = net.switches();
  for (u32 f = 0; f < spec.switch_failures && !switches.empty(); ++f) {
    const Switch* sw = switches[rng.uniform_u64(switches.size())];
    const SimTime fail = pick_time(rng, spec.horizon_ps);
    const SimTime restart = fail + pick_outage(rng, spec);
    plan.events.push_back({fail, FaultKind::kSwitchFail, sw->id(), 1});
    plan.events.push_back({restart, FaultKind::kSwitchRestart, sw->id(), 1});
  }

  for (u32 b = 0; b < spec.drop_bursts && net.num_links() > 0; ++b) {
    const u32 link = static_cast<u32>(rng.uniform_u64(net.num_links()));
    const u32 n = 1 + static_cast<u32>(
                          rng.uniform_u64(std::max(1u, spec.max_burst_packets)));
    plan.events.push_back(
        {pick_time(rng, spec.horizon_ps), FaultKind::kDropPackets, link, n});
  }
  for (u32 b = 0; b < spec.corrupt_bursts && net.num_links() > 0; ++b) {
    const u32 link = static_cast<u32>(rng.uniform_u64(net.num_links()));
    const u32 n = 1 + static_cast<u32>(
                          rng.uniform_u64(std::max(1u, spec.max_burst_packets)));
    plan.events.push_back({pick_time(rng, spec.horizon_ps),
                           FaultKind::kCorruptPackets, link, n});
  }

  // stable_sort: same-time events keep generation order, so a plan is a
  // pure function of (topology, seed) even across standard libraries.
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

std::string FaultPlan::summary(const Network& net) const {
  std::string out;
  char line[160];
  for (const FaultEvent& ev : events) {
    const char* target_name = "?";
    switch (ev.kind) {
      case FaultKind::kSwitchFail:
      case FaultKind::kSwitchRestart:
        target_name = net.node(ev.target).name().c_str();
        break;
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp:
        target_name = net.link(2 * ev.target).name().c_str();
        break;
      case FaultKind::kDropPackets:
      case FaultKind::kCorruptPackets:
        target_name = net.link(ev.target).name().c_str();
        break;
    }
    std::snprintf(line, sizeof(line), "%12llu ps  %-15s %s x%u\n",
                  static_cast<unsigned long long>(ev.at),
                  std::string(fault_kind_name(ev.kind)).c_str(), target_name,
                  ev.count);
    out += line;
  }
  return out;
}

void FaultInjector::arm(const FaultPlan& plan) {
  for (const FaultEvent& ev : plan.events) {
    events_armed_ += 1;
    // Capture the Network, not the injector: armed events outlive any
    // scoping of the FaultInjector object itself.
    net_.sim().schedule_at(ev.at, [net = &net_, ev] { apply(*net, ev); });
  }
}

void FaultInjector::apply(Network& net, const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kLinkDown:
      net.set_duplex_up(ev.target, false);
      break;
    case FaultKind::kLinkUp:
      net.set_duplex_up(ev.target, true);
      break;
    case FaultKind::kSwitchFail: {
      Switch* sw = net.switch_at(ev.target);
      FLARE_ASSERT_MSG(sw != nullptr, "fault plan targets a non-switch node");
      sw->fail();
      break;
    }
    case FaultKind::kSwitchRestart: {
      Switch* sw = net.switch_at(ev.target);
      FLARE_ASSERT_MSG(sw != nullptr, "fault plan targets a non-switch node");
      sw->restart();
      break;
    }
    case FaultKind::kDropPackets:
      net.link(ev.target).drop_next(ev.count);
      break;
    case FaultKind::kCorruptPackets:
      net.link(ev.target).corrupt_next(ev.count);
      break;
  }
}

}  // namespace flare::net
