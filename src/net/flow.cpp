#include "net/flow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

namespace flare::net {

FlowManager::FlowManager(Network& net) : net_(net) {
  fault_listener_token_ =
      net_.add_fault_listener([this](const FaultNotice& n) {
        switch (n.kind) {
          case FaultKind::kLinkDown:
          case FaultKind::kLinkUp:
          case FaultKind::kSwitchFail:
          case FaultKind::kSwitchRestart:
            on_fault();
            break;
          case FaultKind::kDropPackets:
          case FaultKind::kCorruptPackets:
            break;  // silent per-packet faults do not change topology
        }
      });
}

FlowManager::~FlowManager() {
  net_.remove_fault_listener(fault_listener_token_);
}

std::vector<u32> FlowManager::compute_path(const FlowSpec& spec) const {
  const std::vector<Host*>& hosts = net_.hosts();
  FLARE_ASSERT(spec.src_host < hosts.size() && spec.dst_host < hosts.size());
  FLARE_ASSERT_MSG(spec.src_host != spec.dst_host, "flow to self");
  const NodeId dst_id = hosts[spec.dst_host]->id();
  std::vector<u32> path;
  NodeId cur = hosts[spec.src_host]->id();
  u32 out_port = 0;  // the host NIC
  // Mirror of Switch::forward_host_msg: hash the flow label over the ECMP
  // set, re-hash over the surviving subset when the preferred port is
  // dark.  Same labels -> same links as the packet plane.
  for (u32 hop = 0; hop < 64; ++hop) {
    if (!net_.port_usable(cur, out_port)) return {};
    path.push_back(net_.node(cur).port(out_port).index());
    NodeId peer = kInvalidNode;
    for (const PortPeer& pp : net_.neighbors(cur)) {
      if (pp.my_port == out_port) {
        peer = pp.peer;
        break;
      }
    }
    FLARE_ASSERT(peer != kInvalidNode);
    if (peer == dst_id) return path;
    const Switch* sw = net_.switch_at(peer);
    if (sw == nullptr) return {};  // a host that is not the destination
    const std::span<const u32> ecmp = sw->route_ports(dst_id);
    if (ecmp.empty()) return {};
    const u64 label = spec.flow_label ^ sw->ecmp_salt();
    const u32 preferred = ecmp[ecmp_index(label, ecmp.size())];
    if (net_.port_usable(peer, preferred)) {
      out_port = preferred;
    } else {
      std::vector<u32> live;
      live.reserve(ecmp.size());
      for (const u32 p : ecmp) {
        if (p != preferred && net_.port_usable(peer, p)) live.push_back(p);
      }
      if (live.empty()) return {};
      out_port = live[ecmp_index(label, live.size())];
    }
    cur = peer;
  }
  return {};  // hop limit exceeded: treat as unroutable
}

void FlowManager::advance_to(SimTime now) {
  if (now <= last_advance_) return;
  const f64 dt_ps = static_cast<f64>(now - last_advance_);
  last_advance_ = now;
  for (ActiveFlow& f : flows_) {
    if (f.rate_bps <= 0.0 || f.path.empty()) continue;
    f64 bits = f.rate_bps * dt_ps / kPsPerSecond;
    if (bits > f.remaining_bits) bits = f.remaining_bits;
    if (bits <= 0.0) continue;
    f.remaining_bits -= bits;
    const f64 bytes_f = f.byte_carry + bits / 8.0;
    const u64 bytes = static_cast<u64>(bytes_f);
    f.byte_carry = bytes_f - static_cast<f64>(bytes);
    for (std::size_t i = 0; i < f.path.size(); ++i) {
      Link& l = net_.link(f.path[i]);
      // Busy accrual = the serialization time these bits would have cost
      // at line rate; the fractional remainder carries to the next
      // interval so a flow's lifetime busy total is exact to the last ps.
      const f64 busy_f =
          f.busy_carry[i] + bits / l.bandwidth_bps() * kPsPerSecond;
      const u64 busy = static_cast<u64>(busy_f);
      f.busy_carry[i] = busy_f - static_cast<f64>(busy);
      l.add_flow_busy(busy, bytes, f.spec.trace);
    }
  }
}

void FlowManager::recompute() {
  recomputes_ += 1;
  // Links the previous allocation loaded must stop throttling packets
  // before the new allocation is applied.
  for (const u32 li : loaded_links_) net_.link(li).set_flow_rate_bps(0.0);
  loaded_links_.clear();

  std::vector<ActiveFlow*> act;
  act.reserve(flows_.size());
  for (ActiveFlow& f : flows_) {
    if (!f.path.empty()) act.push_back(&f);
  }
  if (act.empty()) return;

  // Deterministic max-min water-filling: links by ascending index, flows
  // by ascending id.  Each round freezes either every cap-limited flow
  // whose cap is below the current global fair share, or every flow
  // crossing a bottleneck link — so the loop terminates in <= |flows|
  // rounds.
  std::vector<u32> links;
  for (const ActiveFlow* f : act) {
    links.insert(links.end(), f->path.begin(), f->path.end());
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  // Dense link-index -> slot scratch, reused across recomputes (grows to
  // num_links once and stays; only touched entries are written).  At 10k
  // hosts recompute runs tens of thousands of times over thousands of
  // concurrent flows — a per-call hash map dominated the whole bench.
  if (slot_of_link_.size() < net_.num_links()) {
    slot_of_link_.resize(net_.num_links(), 0);
  }
  std::vector<u32>& pos = slot_of_link_;
  std::vector<f64> remaining(links.size());
  std::vector<u32> count(links.size(), 0);
  for (u32 i = 0; i < static_cast<u32>(links.size()); ++i) {
    pos[links[i]] = i;
    remaining[i] = net_.link(links[i]).bandwidth_bps();
  }
  for (ActiveFlow* f : act) {
    f->rate_bps = -1.0;  // undecided
    for (const u32 li : f->path) count[pos[li]] += 1;
  }

  std::size_t unfrozen = act.size();
  while (unfrozen > 0) {
    f64 fair = std::numeric_limits<f64>::max();
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (count[i] > 0) {
        fair = std::min(fair, std::max(remaining[i], 0.0) /
                                  static_cast<f64>(count[i]));
      }
    }
    bool froze_cap = false;
    for (ActiveFlow* f : act) {
      if (f->rate_bps >= 0.0) continue;
      if (f->spec.rate_cap_bps > 0.0 && f->spec.rate_cap_bps <= fair) {
        f->rate_bps = f->spec.rate_cap_bps;
        for (const u32 li : f->path) {
          const u32 i = pos[li];
          remaining[i] -= f->rate_bps;
          count[i] -= 1;
        }
        unfrozen -= 1;
        froze_cap = true;
      }
    }
    if (froze_cap) continue;
    const f64 eps = fair * 1e-9;
    bool froze = false;
    for (ActiveFlow* f : act) {
      if (f->rate_bps >= 0.0) continue;
      bool bottlenecked = false;
      for (const u32 li : f->path) {
        const u32 i = pos[li];
        if (count[i] > 0 && std::max(remaining[i], 0.0) /
                                    static_cast<f64>(count[i]) <=
                                fair + eps) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      f->rate_bps = fair;
      for (const u32 li : f->path) {
        const u32 i = pos[li];
        remaining[i] -= fair;
        count[i] -= 1;
      }
      unfrozen -= 1;
      froze = true;
    }
    FLARE_ASSERT_MSG(froze, "max-min water-filling failed to converge");
  }

  // Apply the aggregate rates so the packet plane serializes at the
  // remaining bandwidth.
  std::vector<f64> load(links.size(), 0.0);
  for (const ActiveFlow* f : act) {
    for (const u32 li : f->path) load[pos[li]] += f->rate_bps;
  }
  for (std::size_t i = 0; i < links.size(); ++i) {
    Link& l = net_.link(links[i]);
#if FLARE_VALIDATE_ENABLED
    if (load[i] > l.bandwidth_bps() * (1.0 + 1e-6)) {
      validate::fail("flow-share",
                     "link '" + l.name() + "': flow shares sum to " +
                         std::to_string(load[i]) + " bps, above capacity " +
                         std::to_string(l.bandwidth_bps()));
    }
#endif
    l.set_flow_rate_bps(load[i]);
  }
  loaded_links_ = std::move(links);
}

void FlowManager::arm_next() {
  epoch_ += 1;
  const SimTime now = net_.sim().now();
  SimTime best = 0;
  bool have = false;
  for (const ActiveFlow& f : flows_) {
    if (f.path.empty() || f.rate_bps <= 0.0) continue;
    const f64 ps = f.remaining_bits <= 0.0
                       ? 0.0
                       : f.remaining_bits * kPsPerSecond / f.rate_bps;
    const SimTime t = now + static_cast<SimTime>(std::ceil(ps));
    if (!have || t < best) {
      best = t;
      have = true;
    }
  }
  if (!have) return;  // nothing running: no event held on the calendar
  net_.sim().schedule_at(best, [this, e = epoch_] {
    if (e != epoch_) return;  // superseded by a later recompute
    on_timer();
  });
}

void FlowManager::on_timer() {
  advance_to(net_.sim().now());
  std::vector<std::function<void(SimTime)>> callbacks;
  bool finished_any = false;
  std::erase_if(flows_, [&](ActiveFlow& f) {
    // Half a bit of slack absorbs the f64 rounding of the armed finish
    // time; anything that close is delivered.
    if (f.path.empty() || f.remaining_bits > 0.5) return false;
    flows_finished_ += 1;
    finished_any = true;
    if (f.spec.on_complete) callbacks.push_back(std::move(f.spec.on_complete));
    return true;
  });
  if (finished_any) recompute();
  arm_next();
  const SimTime now = net_.sim().now();
  // Completion callbacks run last: they may start new flows, which
  // re-enter recompute()/arm_next() themselves.
  for (auto& cb : callbacks) cb(now);
}

void FlowManager::on_fault() {
  advance_to(net_.sim().now());
  bool changed = false;
  for (ActiveFlow& f : flows_) {
    std::vector<u32> np = compute_path(f.spec);
    if (np != f.path) {
      f.path = std::move(np);
      f.busy_carry.assign(f.path.size(), 0.0);
      f.rate_bps = 0.0;  // stalled until recompute assigns a share
      reroutes_ += 1;
      changed = true;
    }
  }
  if (changed) {
    recompute();
    arm_next();
  }
}

u64 FlowManager::start_flow(FlowSpec spec) {
  advance_to(net_.sim().now());
  ActiveFlow f;
  f.id = next_flow_id_++;
  f.remaining_bits = static_cast<f64>(spec.bytes) * 8.0;
  f.spec = std::move(spec);
  f.path = compute_path(f.spec);
  f.busy_carry.assign(f.path.size(), 0.0);
  const u64 id = f.id;
  flows_.push_back(std::move(f));
  flows_started_ += 1;
  recompute();
  arm_next();
  return id;
}

void FlowManager::start_flow_at(SimTime at, FlowSpec spec) {
  net_.sim().schedule_at(at, [this, s = std::move(spec)]() mutable {
    start_flow(std::move(s));
  });
}

void FlowManager::sync() { advance_to(net_.sim().now()); }

u64 FlowManager::flows_stalled() const {
  u64 n = 0;
  for (const ActiveFlow& f : flows_) {
    if (f.path.empty()) n += 1;
  }
  return n;
}

}  // namespace flare::net
