#include "coll/op.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/staggered.hpp"
#include "net/node.hpp"
#include "net/telemetry.hpp"
#include "obs/trace.hpp"

namespace flare::coll::detail {

namespace {

/// tree_max_congestion_excluding over just the participants' access edges
/// (leaf, host port), which every tree spanning them crosses: no such
/// tree reads cooler than this.
f64 access_max_congestion_excluding(const net::CongestionMonitor& monitor,
                                    const net::Network& net,
                                    const std::vector<net::Host*>& participants,
                                    u32 trace) {
  f64 worst = 0.0;
  for (const net::Host* host : participants) {
    // The same (leaf, port) pair NetworkManager::attach finds.
    const net::NodeId leaf = net.neighbors(host->id())[0].peer;
    for (const net::PortPeer& pp : net.neighbors(leaf)) {
      if (pp.peer == host->id()) {
        const f64 heat =
            monitor.edge_congestion_excluding(leaf, pp.my_port, trace);
        worst = std::max(worst, heat);
        break;
      }
    }
  }
  return worst;
}

}  // namespace

// ============================================================ lifecycle ===

OpBase::OpBase(net::Network& net, const std::vector<net::Host*>& participants,
               const CollectiveOptions& desc, u32 trace, const char* span)
    : net_(net),
      participants_(participants),
      desc_(desc),
      trace_(trace),
      timeout_ps_(desc.retransmit_timeout_ps),
      span_(span) {}

void OpBase::begin_iteration(std::shared_ptr<OpState> state) {
  FLARE_ASSERT_MSG(state_ == nullptr,
                   "previous iteration of this collective still running");
  state_ = std::move(state);
  complete_ = false;
  finished_ = false;
  retransmits_ = 0;
  start_ps_ = net_.sim().now();
  base_traffic_ = net_.total_traffic_bytes();
  finish_ps_.assign(participants_.size(), 0);
  hosts_done_ = 0;
  if (obs::Tracer* tr = net_.tracer()) {
    tr->name_thread(trace_, "coll-" + std::to_string(trace_));
    tr->begin(trace_, span_, start_ps_, "iteration");
    span_open_ = true;
  }
}

void OpBase::trace_iteration_end() {
  obs::Tracer* tr = net_.tracer();
  if (tr == nullptr || !span_open_) return;
  tr->end(trace_, net_.sim().now());
  span_open_ = false;
}

void OpBase::host_done(u32 h) {
  finish_ps_[h] = net_.sim().now();
  hosts_done_ += 1;
  if (hosts_done_ < finish_ps_.size() || finished_) return;
  finished_ = true;
  net_.sim().schedule_after(0, [this] { finalize(); });
}

void OpBase::finalize() {
  CollectiveResult res;
  f64 worst = 0.0, sum = 0.0;
  for (const SimTime t : finish_ps_) {
    worst = std::max(worst, static_cast<f64>(t - start_ps_));
    sum += static_cast<f64>(t - start_ps_);
  }
  res.completion_seconds = worst / kPsPerSecond;
  res.mean_host_seconds =
      sum / static_cast<f64>(finish_ps_.size()) / kPsPerSecond;
  res.total_traffic_bytes = net_.total_traffic_bytes() - base_traffic_;
  res.retransmits = retransmits_;
  fill_result(res);
  trace_iteration_end();
  settle(res, /*gave_up=*/false);
  publish(std::move(res));  // may destroy *this — nothing after
}

void OpBase::arm_watchdog() {
  if (timeout_ps_ == 0 || watchdog_armed_) return;
  watchdog_armed_ = true;
  std::weak_ptr<char> w = alive_;
  net_.sim().schedule_after(timeout_ps_, [this, w] {
    if (w.expired()) return;
    watchdog_armed_ = false;
    on_watchdog();
  });
}

void OpBase::give_up() {
  if (obs::Tracer* tr = net_.tracer()) {
    tr->instant(trace_, "give-up", net_.sim().now(), "recovery");
  }
  trace_iteration_end();
  CollectiveResult res;  // ok == false
  res.retransmits = retransmits_;
  settle(res, /*gave_up=*/true);
  publish(std::move(res));  // may destroy *this — nothing after
}

void OpBase::publish(CollectiveResult&& res) {
  finished_ = true;
  complete_ = true;
  auto st = std::move(state_);
  st->result = std::move(res);
  st->done = true;
  auto cb = std::move(st->on_complete);
  if (cb) cb(st->result);  // 'this' may be destroyed here
}

// ========================================================= tree chassis ===

TreeOpBase::TreeOpBase(net::Network& net, NetworkManager& manager,
                       const std::vector<net::Host*>& participants,
                       const CollectiveOptions& desc,
                       core::AllreduceConfig cfg, ReductionTree tree,
                       bool sparse, u32 blocks, net::CongestionMonitor* monitor)
    : OpBase(net, participants, desc, cfg.trace, "iteration"),
      manager_(manager),
      cfg_(cfg),
      tree_(std::move(tree)),
      nb_(blocks),
      sparse_(sparse),
      window_(desc.order == core::SendOrder::kStaggered
                  ? std::max(desc.window_blocks, blocks)
                  : std::max(1u, desc.window_blocks)),
      max_retry_(desc.max_retransmits),
      monitor_(monitor) {}

TreeOpBase::~TreeOpBase() {
  // Abandoned mid-flight (communicator destroyed): release switch slots
  // and host handlers so the fabric is reusable.
  release_install();
  if (listening_) net_.remove_fault_listener(fault_listener_);
}

void TreeOpBase::release_install() {
  if (!installed_) return;
  for (net::Host* host : participants_) {
    host->clear_reduce_handler(cfg_.id);
  }
  manager_.uninstall(tree_, cfg_.id);
  installed_ = false;
}

void TreeOpBase::begin(u32 iteration, std::shared_ptr<OpState> state) {
  iteration_ = iteration;
  recoveries_ = 0;
  recover_waits_ = 0;
  stalls_ = 0;
  done_at_restart_ = kNoRestart;
  migrations_iter_ = 0;
  planned_iter_ = 0;
  if (!first_begin_) {
    refresh_persistent_install();
    // Congestion adaptation happens at the iteration boundary, after the
    // fault-driven refresh: a healthy tree on hot links is still the
    // wrong tree.  An optimizer-planned move (service co-placement round)
    // applies first and suppresses the reactive check this boundary — two
    // controllers re-embedding the same session in one instant would
    // fight over the fresh id.
    if (!apply_planned_migration()) maybe_migrate();
  }
  first_begin_ = false;
  begin_iteration(std::move(state));
  if (fallback_active()) {
    // Earlier iterations lost the fabric for good: run on the host-side
    // fallback data plane.
    start_fallback_iteration();
    return;
  }
  stage(iteration);
  const u32 P = static_cast<u32>(participants_.size());
  // Reset in place: a host's schedule depends only on (h, P, nb_, order),
  // fixed for the op's lifetime, and `blocks` keeps its storage.
  runs_.resize(P);
  for (u32 h = 0; h < P; ++h) {
    HostRun& hr = runs_[h];
    hr.host = participants_[h];
    if (hr.schedule.empty()) {
      hr.schedule = core::send_schedule(h, P, nb_, desc_.order);
    }
    hr.next = 0;
    hr.outstanding = 0;
    hr.blocks_done = 0;
    hr.blocks.assign(nb_, Block{});
    wire(h);
  }
  for (u32 h = 0; h < P; ++h) try_send(h);
  subscribe_faults();
  arm_watchdog();
}

// ------------------------------------------------------ block machinery ---

void TreeOpBase::wire(u32 h) {
  runs_[h].host->set_reduce_handler(
      cfg_.id, [this, h](const core::Packet& pkt) { on_down(h, pkt); });
}

void TreeOpBase::send_up(u32 h, core::Packet&& pkt) {
  net::NetPacket np;
  np.kind = net::PacketKind::kReduceUp;
  np.allreduce_id = cfg_.id;
  np.trace = trace_;
  np.wire_bytes = pkt.wire_bytes();
  np.reduce = core::make_pooled_packet(std::move(pkt));
  runs_[h].host->send(std::move(np));
}

void TreeOpBase::try_send(u32 h) {
  HostRun& hr = runs_[h];
  while (hr.next < hr.schedule.size()) {
    const u32 b = hr.schedule[hr.next];
    Block& blk = hr.blocks[b];
    // After a recovery restart the schedule replays from the top: blocks
    // this host already holds results for are re-contributed (the fresh
    // engines need every child's input) but consume no window slot and
    // await no multicast.
    if (!blk.done && hr.outstanding >= window_) break;
    hr.next += 1;
    if (!blk.done) {
      hr.outstanding += 1;
      blk.pending = true;
      blk.sent_ps = net_.sim().now();
    }
    send_block(h, b, 0);
  }
}

void TreeOpBase::on_down(u32 h, const core::Packet& pkt) {
  HostRun& me = runs_[h];
  const u32 b = pkt.hdr.block_id;
  FLARE_ASSERT(b < nb_);
  if (me.blocks[b].done) return;  // duplicated multicast replica
  if (!on_block_packet(h, pkt)) return;
  me.blocks[b].done = true;
  me.blocks_done += 1;
  me.outstanding -= 1;
  try_send(h);
  if (me.blocks_done == nb_) host_done(h);
}

u64 TreeOpBase::blocks_done() const {
  u64 done = 0;
  for (const HostRun& hr : runs_) done += hr.blocks_done;
  return done;
}

void TreeOpBase::restart_iteration() {
  done_at_restart_ = blocks_done();
  on_restart();
  for (u32 h = 0; h < runs_.size(); ++h) {
    HostRun& hr = runs_[h];
    wire(h);
    hr.next = 0;
    hr.outstanding = 0;
    for (Block& blk : hr.blocks) {
      blk.pending = false;
      blk.retries = 0;
    }
  }
  for (u32 h = 0; h < runs_.size(); ++h) try_send(h);
  arm_watchdog();
}

bool TreeOpBase::scan_timeouts() {
  const SimTime now = net_.sim().now();
  bool escalate = false;
  for (u32 h = 0; h < runs_.size(); ++h) {
    for (u32 b = 0; b < nb_; ++b) {
      Block& blk = runs_[h].blocks[b];
      if (!blk.pending || blk.done) continue;
      // Exponential backoff: each retry doubles the wait.  Without it a
      // full-message resend (serialization time > timeout) can outlast
      // the timer, triggering a self-sustaining retransmission storm
      // that congests the access links faster than they drain.
      // Restarts that completed no block stretch it further (stalls_).
      const u32 shift = std::min<u32>(blk.retries, 6) + stalls_;
      if (now - blk.sent_ps < (timeout_ps_ << shift)) continue;
      if (blk.retries >= max_retry_) {
        escalate = true;  // retransmission is not healing this block
        continue;
      }
      blk.retries += 1;
      retransmits_ += 1;
      blk.sent_ps = now;
      if (obs::Tracer* tr = net_.tracer()) {
        tr->instant(trace_, "retransmit", now, "recovery");
      }
      // Sparse: every shard is re-sent; the switch trackers deduplicate
      // by (child, shard_seq), and a switch that already completed the
      // block replays its cached result off the retransmitted packet.
      send_block(h, b, core::kFlagRetransmit);
    }
  }
  return escalate;
}

void TreeOpBase::settle(CollectiveResult& res, bool gave_up) {
  if (gave_up) {
    release_install();
  } else {
    res.blocks = nb_;
    res.in_network = true;
    for (const TreeSwitchEntry& e : tree_.switches) {
      const net::ReduceRole* role = e.sw->role(cfg_.id);
      if (role != nullptr && role->engine != nullptr) {
        res.switch_working_mem_hwm = std::max(
            res.switch_working_mem_hwm, role->engine->pool().high_water());
      }
    }
  }
  res.recoveries = recoveries_;
  res.migrations = migrations_iter_;
  res.planned_migrations = planned_iter_;
}

// ------------------------------------------------------ fault recovery ----

void TreeOpBase::subscribe_faults() {
  if (listening_ || timeout_ps_ == 0) return;
  std::weak_ptr<char> w = alive_;
  fault_listener_ =
      net_.add_fault_listener([this, w](const net::FaultNotice& notice) {
        if (w.expired()) return;
        on_fault(notice);
      });
  listening_ = true;
}

void TreeOpBase::on_fault(const net::FaultNotice&) {
  if (!iteration_active() || fallback_active()) return;
  if (installed_ && tree_alive(net_, tree_)) return;  // tree unaffected
  // React off the notifier's stack: the notice fires mid-event (possibly
  // inside a Link::send) and recovery tears switch state down.
  std::weak_ptr<char> w = alive_;
  net_.sim().schedule_after(0, [this, w] {
    if (w.expired()) return;
    if (!iteration_active() || fallback_active()) return;
    if (installed_ && tree_alive(net_, tree_)) return;
    recover(/*force=*/false);
  });
}

void TreeOpBase::on_watchdog() {
  if (!iteration_active() || fallback_active()) return;
  if (scan_timeouts()) {
    recover(/*force=*/true);
    if (!iteration_active() || fallback_active()) return;
  }
  arm_watchdog();
}

bool TreeOpBase::try_reinstall() {
  // Uninstall whatever remains of the dead tree and reinstall on the
  // surviving fabric under a fresh collective id (stale in-flight packets
  // of the old id drop harmlessly at switches and hosts).
  release_install();
  cfg_.id = manager_.next_id();
  InstallReport report = manager_.install_with_retry(
      participants_, cfg_, resolved_switch_service_bps(desc_, sparse_));
  if (!report) return false;
  tree_ = std::move(*report);
  installed_ = true;
  recoveries_ += 1;
  if (obs::Tracer* tr = net_.tracer()) {
    tr->instant(trace_, "reinstall", net_.sim().now(), "recovery");
  }
  return true;
}

void TreeOpBase::recover(bool force) {
  if (!iteration_active() || fallback_active()) return;
  if (!force && installed_ && tree_alive(net_, tree_)) return;
  // A timeout escalation right after a restart that completed no block:
  // the timeout is too short for this iteration (or the tree silently
  // drops everything).  Each such stall doubles the restarted blocks'
  // waits; past kMaxStalls the tree counts as dead.
  bool dead = false;
  if (force) {
    stalls_ = blocks_done() == done_at_restart_ ? stalls_ + 1 : 0;
    dead = stalls_ > kMaxStalls;
  }
  if (!dead && try_reinstall()) {
    recover_waits_ = 0;
    restart_iteration();
    return;
  }
  if (prepare_fallback()) {
    // Mid-iteration fallback: the host data plane reduces this iteration's
    // rotation of the inputs the op drew (make_fallback_op shares them),
    // so the published result is bit-for-bit what the in-network path
    // would have produced for exact dtypes.
    start_fallback_iteration();
    return;
  }
  // No host fallback for this kind: wait for the fabric to heal (repairs
  // also notify, this is the backstop poll).  Bounded: a fault that is
  // never repaired must surface as a FAILED result, not hang the calendar.
  // A tree that looks healthy but stalls has nothing to heal.
  if (dead || recover_waits_ >= kMaxRecoverWaits) {
    give_up();
    return;
  }
  recover_waits_ += 1;
  std::weak_ptr<char> w = alive_;
  net_.sim().schedule_after(timeout_ps_, [this, w] {
    if (w.expired()) return;
    recover(/*force=*/false);
  });
}

// ------------------------------------------------- fallback data plane ----

bool TreeOpBase::prepare_fallback() {
  std::unique_ptr<OpBase> fallback = make_fallback_op();
  if (fallback == nullptr) return false;
  release_install();
  fallback_op_ = std::move(fallback);
  if (obs::Tracer* tr = net_.tracer()) {
    tr->instant(trace_, "fallback", net_.sim().now(), "recovery");
  }
  return true;
}

void TreeOpBase::start_fallback_iteration() {
  fallback_state_ = std::make_shared<OpState>();
  std::weak_ptr<char> w = alive_;
  fallback_state_->on_complete = [this, w](const CollectiveResult&) {
    if (w.expired()) return;
    on_fallback_done();
  };
  fallback_op_->begin(iteration_, fallback_state_);
}

void TreeOpBase::on_fallback_done() {
  trace_iteration_end();
  CollectiveResult res = fallback_state_->result;
  res.fell_back = true;
  res.retransmits += retransmits_;
  res.recoveries = recoveries_;
  res.migrations = migrations_iter_;
  res.planned_migrations = planned_iter_;
  publish(std::move(res));  // may destroy *this — nothing after
}

// --------------------------------------------------- persistent upkeep ----

void TreeOpBase::refresh_persistent_install() {
  if (fallback_active()) {
    // Probe a healed fabric to leave fallback mode.
    if (timeout_ps_ > 0 && try_reinstall()) fallback_op_.reset();
    return;
  }
  bool healthy = installed_;
  if (healthy && timeout_ps_ > 0) healthy = tree_alive(net_, tree_);
  if (healthy) {
    for (const TreeSwitchEntry& e : tree_.switches) {
      if (!e.sw->reset_reduce(cfg_.id)) {
        healthy = false;  // a switch restarted and lost the engines
        break;
      }
    }
  }
  if (healthy) return;
  FLARE_ASSERT_MSG(timeout_ps_ > 0,
                   "persistent engine vanished from the switch");
  if (!try_reinstall()) {
    prepare_fallback();
    // Otherwise proceed uninstalled: sends blackhole and the watchdog
    // escalates into recover(), which retries until the fabric heals.
  }
}

// ------------------------------------------------ congestion adaptation ---

void TreeOpBase::maybe_migrate() {
  if (monitor_ == nullptr || desc_.migrate_above <= 0.0 || !installed_ ||
      fallback_active()) {
    return;
  }
  // Every iteration boundary samples the monitor and asks one question:
  // how hot is this tree from OTHER tenants' traffic?  Per-collective link
  // attribution (NetPacket::trace -> Link::busy_by_trace) lets the monitor
  // subtract the session's own contribution per edge, so the old
  // completion-time regression gate — which existed only because the raw
  // EWMA could not tell self-heat from foreign heat, and which cost one
  // slow iteration of detection latency — is gone.  A session running
  // alone reads ~0 here no matter how hard it drives its tree.
  monitor_->sample();  // fresh snapshot at the decision point
  const f64 cur_hot =
      tree_max_congestion_excluding(*monitor_, tree_, trace_);
  if (cur_hot < desc_.migrate_above) return;
  if (obs::Tracer* tr = net_.tracer()) {
    tr->instant(trace_, "migrate-considered", net_.sim().now(),
                "migration");
  }
  // Hysteresis on the WORST edge, in the same excluding view: edges every
  // candidate must cross (the participants' access links) carry the same
  // foreign heat everywhere and cancel out of a max — a migration must
  // actually shed the hottest foreign load, or the congestion is one no
  // tree can route around.  When those access edges alone already fail
  // the hysteresis, every candidate does, and the root sweep is skipped.
  const f64 bar = kMigrateImprovement * cur_hot;
  const auto passes = [&](const std::optional<ReductionTree>& t) {
    return t && tree_max_congestion_excluding(*monitor_, *t, trace_) <= bar;
  };
  const f64 access_hot =
      access_max_congestion_excluding(*monitor_, net_, participants_, trace_);
  if (access_hot > bar) {
    if (validate::enabled() && passes(manager_.cheapest_tree(participants_))) {
      validate::fail("sweep-bound",
                     "collective " + std::to_string(trace_) +
                         ": the access floor skipped a migration");
    }
    return;
  }
  const std::optional<ReductionTree> best =
      manager_.cheapest_tree(participants_);
  if (!passes(best)) return;
  migrate_to(*best, /*planned=*/false);
}

bool TreeOpBase::plan_migration(const ReductionTree& target) {
  if (!installed_ || fallback_active()) return false;
  planned_tree_ = target;
  return true;
}

bool TreeOpBase::apply_planned_migration() {
  if (!planned_tree_) return false;
  const ReductionTree target = std::move(*planned_tree_);
  planned_tree_.reset();
  if (!installed_ || fallback_active()) return false;
  // The fabric may have changed since the optimizer froze it (faults,
  // other tenants moving): a dead target is dropped and the reactive
  // check still runs this boundary; the service re-plans next round.
  if (!tree_alive(net_, target)) return false;
  migrate_to(target, /*planned=*/true);
  return true;
}

void TreeOpBase::migrate_to(const ReductionTree& target, bool planned) {
  // Break-before-make on the PR-3 fresh-id path: stale in-flight packets
  // of the old id drop harmlessly at switches and hosts.  No calendar
  // event can run between the release and the install, so at minimum the
  // OLD embedding's slots are still free for the retry below.
  std::vector<net::NodeId> old_switches;
  for (const TreeSwitchEntry& e : tree_.switches) {
    old_switches.push_back(e.sw->id());
  }
  release_install();
  cfg_.id = manager_.next_id();
  const f64 bps = resolved_switch_service_bps(desc_, sparse_);
  if (manager_.install(target, cfg_, bps)) {
    tree_ = target;
    installed_ = true;
  } else {
    // The target shares a full switch with other tenants: take the best
    // install that fits instead (cost-ordered retry).
    InstallReport rep = manager_.install_with_retry(participants_, cfg_, bps);
    if (!rep) {
      if (!prepare_fallback()) {
        FLARE_ASSERT_MSG(timeout_ps_ > 0,
                         "migration lost the tree with fault handling off");
      }
      validate_plan_apply(planned);
      return;
    }
    tree_ = std::move(*rep);
    installed_ = true;
  }
  // A migration is a tree that MOVED: when admission pushed the session
  // back onto its old embedding (the target's slots were taken), the
  // fresh-id churn is not a migration and must not count as one.
  std::vector<net::NodeId> new_switches;
  for (const TreeSwitchEntry& e : tree_.switches) {
    new_switches.push_back(e.sw->id());
  }
  if (new_switches != old_switches) {
    if (planned) {
      planned_iter_ += 1;
      planned_total_ += 1;
    } else {
      migrations_iter_ += 1;
      migrations_total_ += 1;
    }
    if (obs::Tracer* tr = net_.tracer()) {
      tr->instant(trace_, planned ? "planned-migrate" : "migrate",
                  net_.sim().now(), "migration");
    }
  }
  validate_plan_apply(planned);
}

void TreeOpBase::validate_plan_apply(bool planned) {
#if FLARE_VALIDATE_ENABLED
  if (!planned) return;
  if (debug_break_plan_apply_ && installed_ && !tree_.switches.empty()) {
    // Seeded violation: strip one role AFTER the install so the audit
    // below must detect the half-applied move (validate_test).
    tree_.switches.front().sw->uninstall_reduce(cfg_.id);
    debug_break_plan_apply_ = false;
  }
  if (installed_) {
    for (const TreeSwitchEntry& e : tree_.switches) {
      if (e.sw->role(cfg_.id) == nullptr) {
        validate::fail("plan-apply",
                       "planned move half-applied: switch '" + e.sw->name() +
                           "' holds no role for allreduce " +
                           std::to_string(cfg_.id));
      }
    }
  } else if (!fallback_active() && timeout_ps_ == 0) {
    validate::fail("plan-apply",
                   "planned move neither applied nor rolled back: op has no "
                   "install, no fallback, and fault handling is off");
  }
#else
  (void)planned;
#endif
}

// ======================================================= host chassis ====

HostOpBase::HostOpBase(net::Network& net,
                       const std::vector<net::Host*>& participants,
                       const CollectiveOptions& desc, u32 proto_base,
                       u32 trace, const char* span)
    : OpBase(net, participants, desc,
             trace != 0 ? trace : net.alloc_trace_id(), span),
      proto_(proto_base + net.alloc_collective_id()),
      P_(static_cast<u32>(participants.size())) {}

HostOpBase::~HostOpBase() { release_handlers(); }

void HostOpBase::release_handlers() {
  if (!handlers_set_) return;
  for (net::Host* host : participants_) host->clear_proto_handler(proto_);
  handlers_set_ = false;
}

bool HostOpBase::launch() {
  links_.clear();
  links_.resize(P_);
  for (u32 h = 0; h < P_; ++h) {
    links_[h].last_progress_ps = start_ps_;
    participants_[h]->set_proto_handler(
        proto_, [this](const net::HostMsg& msg) { on_msg(msg); });
  }
  handlers_set_ = true;
  if (P_ == 1) {
    host_done(0);
    return false;
  }
  arm_watchdog();
  return true;
}

void HostOpBase::send(u32 h, u32 dst, u32 tag, u64 bytes, Payload data) {
  Sent msg;
  msg.dst = dst;
  msg.bytes = bytes;
  msg.frags = std::max<u32>(
      1, static_cast<u32>((bytes + desc_.mtu_bytes - 1) / desc_.mtu_bytes));
  msg.data = std::move(data);
  transmit(h, tag, msg);
  if (timeout_ps_ > 0) links_[h].sent[tag] = std::move(msg);  // NACK replay
}

void HostOpBase::transmit(u32 h, u32 tag, const Sent& msg) {
  for (u32 f = 0; f < msg.frags; ++f) {
    auto hm = std::make_shared<net::HostMsg>();
    hm->src_host = h;
    hm->dst_host = msg.dst;  ///< job-local rank of the receiver
    hm->proto = proto_;
    hm->tag = tag;
    hm->seq = f;
    hm->seq_count = msg.frags;
    if (f + 1 == msg.frags) {
      hm->dense = msg.data.dense;
      hm->sparse = msg.data.sparse;
    }
    net::NetPacket np;
    np.kind = net::PacketKind::kHostMsg;
    np.dst_node = participants_[msg.dst]->id();
    // One flow per (op, sender): FIFO along one ECMP path.
    np.flow = (static_cast<u64>(proto_) << 16) | h;
    np.trace = trace_;
    const u64 frag_bytes = std::min<u64>(
        desc_.mtu_bytes, msg.bytes - static_cast<u64>(f) * desc_.mtu_bytes);
    np.wire_bytes = frag_bytes + core::kPacketWireOverhead;
    np.msg = std::move(hm);
    participants_[h]->send(std::move(np));
  }
}

void HostOpBase::on_msg(const net::HostMsg& msg) {
  if (finished_) return;
  const u32 h = msg.dst_host;
  FLARE_ASSERT(h < P_);
  if (msg.seq_count == 0) {  // NACK: the sender is missing `tag`
    handle_nack(h, msg.tag);
    return;
  }
  Partial& partial = links_[h].inbox[msg.tag];
  if (partial.have.empty()) partial.have.assign(msg.seq_count, false);
  if (partial.have.at(msg.seq)) return;  // replayed fragment
  partial.have[msg.seq] = true;
  partial.have_count += 1;
  if (msg.dense) partial.data.dense = msg.dense;
  if (msg.sparse) partial.data.sparse = msg.sparse;
  if (partial.have_count == static_cast<u32>(partial.have.size())) {
    advance(h);
  }
}

void HostOpBase::advance(u32 h) {
  HostLink& link = links_[h];
  while (const std::optional<Expect> want = expecting(h)) {
    const auto it = link.inbox.find(want->tag);
    if (it == link.inbox.end() || it->second.have.empty() ||
        it->second.have_count != static_cast<u32>(it->second.have.size())) {
      return;  // expected message not fully here yet
    }
    const Payload msg = std::move(it->second.data);
    link.inbox.erase(it);
    link.last_progress_ps = net_.sim().now();
    link.nacks = 0;
    consume(h, msg);
    if (!expecting(h)) host_done(h);
  }
}

void HostOpBase::handle_nack(u32 h, u32 tag) {
  const auto it = links_[h].sent.find(tag);
  // Not sent yet: this host is itself behind; the message goes out when it
  // catches up and the requester's next timeout re-NACKs if needed.
  if (it == links_[h].sent.end()) return;
  retransmits_ += 1;
  if (obs::Tracer* tr = net_.tracer()) {
    tr->instant(trace_, "retransmit", net_.sim().now(), "recovery");
  }
  transmit(h, tag, it->second);
}

void HostOpBase::send_nack(u32 h, const Expect& want) {
  auto hm = std::make_shared<net::HostMsg>();
  hm->src_host = h;
  hm->dst_host = want.peer;
  hm->proto = proto_;
  hm->tag = want.tag;
  hm->seq = 0;
  hm->seq_count = 0;  // seq_count==0 marks a NACK
  net::NetPacket np;
  np.kind = net::PacketKind::kHostMsg;
  np.dst_node = participants_[want.peer]->id();
  np.flow = (static_cast<u64>(proto_) << 16) | (0x8000ull | h);
  np.trace = trace_;
  np.wire_bytes = core::kPacketWireOverhead;
  np.msg = std::move(hm);
  participants_[h]->send(std::move(np));
}

void HostOpBase::on_watchdog() {
  if (!iteration_active()) return;
  const SimTime now = net_.sim().now();
  for (u32 h = 0; h < P_; ++h) {
    const std::optional<Expect> want = expecting(h);
    if (!want) continue;
    HostLink& link = links_[h];
    // Exponential backoff per stall (reset on progress): every NACK
    // triggers a full-message replay, so pacing them out keeps a long
    // outage from piling replays onto the healing links.
    const u32 shift = std::min<u32>(link.nacks, 6);
    if (now - link.last_progress_ps < (timeout_ps_ << shift)) continue;
    if (link.nacks >= kMaxNacks) {
      // Permanent stall (a fault that never repairs): surface a FAILED
      // result instead of NACKing the calendar forever.
      give_up();
      return;
    }
    link.nacks += 1;
    send_nack(h, *want);  // stalled: ask the sender to replay
  }
  arm_watchdog();
}

void HostOpBase::settle(CollectiveResult&, bool) { release_handlers(); }

}  // namespace flare::coll::detail
