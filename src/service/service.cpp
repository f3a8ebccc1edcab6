#include "service/service.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "obs/trace.hpp"
#include "place/optimizer.hpp"

namespace flare::service {

namespace {

/// Tracer row convention: service job rows live above every collective's
/// trace-id row (tid = kJobTidBase + job id).
constexpr u64 kJobTidBase = 1000000;
/// The placement plane gets its own tracer row, above the job rows.
constexpr u64 kPlaceTid = 2000000;

}  // namespace

// The service is pure orchestration: admission order, queueing, timeouts,
// fallback decisions and telemetry.  The data planes (in-network dense
// engines, host ring) live in coll::Communicator; each job runs as a
// persistent request (in-network) or a nonblocking ring collective on the
// shared calendar.

AllreduceService::AllreduceService(net::Network& net, ServiceOptions opt)
    : net_(net), opt_(opt), manager_(net) {
  // Slots freed by a completed job re-trigger admission for queued jobs.
  manager_.set_release_listener([this](u32) {
    if (!queue_.empty()) schedule_drain();
  });
  // Count every fabric disruption the service lives through; the per-job
  // recovery itself happens inside the Communicator data planes.
  fault_listener_ = net_.add_fault_listener(
      [this](const net::FaultNotice&) { telemetry_.faults_seen += 1; });
  if (opt_.monitor != nullptr) {
    // Congestion plane: the shared manager embeds with the monitor's costs.
    net::CongestionMonitor* monitor = opt_.monitor;
    manager_.set_link_cost([monitor](net::NodeId node, u32 port) {
      return monitor->edge_cost(node, port);
    });
  }
}

AllreduceService::~AllreduceService() {
  net_.remove_fault_listener(fault_listener_);
}

coll::CollectiveOptions AllreduceService::descriptor_for(
    const JobSpec& spec) const {
  coll::CollectiveOptions desc = spec.desc;
  // The service calibrates the fabric-wide aggregation rate centrally.
  desc.switch_service_bps = opt_.switch_service_bps;
  if (opt_.retransmit_timeout_ps > 0) {
    desc.retransmit_timeout_ps = opt_.retransmit_timeout_ps;
    desc.max_retransmits = opt_.max_retransmits;
  }
  if (opt_.monitor != nullptr && opt_.migrate_above > 0.0) {
    desc.migrate_above = opt_.migrate_above;
  }
  return desc;
}

bool AllreduceService::is_sparse(const JobSpec& spec) {
  return spec.desc.sparse.pairs != nullptr ||
         spec.desc.sparse.epoch_pairs != nullptr;
}

u32 AllreduceService::submit(JobSpec spec) {
  FLARE_ASSERT_MSG(!spec.participants.empty(),
                   "job needs at least one participant");
  const u32 job = static_cast<u32>(records_.size());
  JobRecord rec;
  rec.job_id = job;
  rec.arrival_ps = net_.sim().now();
  rec.participants = static_cast<u32>(spec.participants.size());
  rec.data_bytes = spec.desc.data_bytes;
  records_.push_back(rec);
  specs_.push_back(std::move(spec));
  telemetry_.submitted += 1;
  if (obs::Tracer* tr = net_.tracer()) {
    tr->name_thread(kJobTidBase + job, "job-" + std::to_string(job));
    tr->begin(kJobTidBase + job, "job", net_.sim().now(), "service");
  }

  if (specs_[job].desc.algorithm == coll::Algorithm::kHostRing ||
      specs_[job].desc.algorithm == coll::Algorithm::kSparcml) {
    // The tenant explicitly requested a host data plane: no admission,
    // and not a fallback (runs even with fallback_to_host disabled).
    start_host_plane(job, RingReason::kRequested);
    return job;
  }

  if (!congestion_gate_open()) {
    // Monitor-driven admission backpressure: don't place new work onto a
    // saturated fabric — QUEUE (never reject) and re-check once the EWMA
    // windows have turned.  The queue timeout still bounds the wait.
    telemetry_.congestion_deferrals += 1;
    if (queue_.size() >= opt_.max_queue) {
      telemetry_.queue_overflows += 1;
      start_fallback_or_reject(job, RingReason::kOverflow);
    } else {
      enqueue(job);
      schedule_congestion_recheck();
    }
    return job;
  }

  bool feasible = false;
  if (try_admit(job, &feasible)) return job;
  if (!feasible) {
    // Every root was tried and every reachable tree crosses a switch with a
    // zero memory partition: this job can NEVER run in-network.  Queueing
    // it would deadlock the FIFO (nothing will ever release a slot for it).
    telemetry_.inadmissible += 1;
    start_fallback_or_reject(job, RingReason::kInadmissible);
  } else if (queue_.size() >= opt_.max_queue) {
    telemetry_.queue_overflows += 1;
    start_fallback_or_reject(job, RingReason::kOverflow);
  } else {
    enqueue(job);
  }
  return job;
}

void AllreduceService::submit_at(SimTime at, JobSpec spec) {
  net_.sim().schedule_at(
      at, [this, spec = std::move(spec)]() mutable { submit(std::move(spec)); });
}

bool AllreduceService::try_admit(u32 job, bool* feasible) {
  const JobSpec& spec = specs_[job];
  JobRecord& rec = records_[job];
  // Communicator::install samples the monitor, so the link costs behind
  // the install read the fabric as it is at THIS admission round.
  // kLeastCongested with a monitor passes no roots and no cache: install
  // takes ranked_trees, cheapest first under the monitor's link costs —
  // the path recovery and migration take.  Every other policy tries its
  // root order, reusing cached embeddings.
  coll::CommunicatorConfig ccfg{&manager_, nullptr, {}, opt_.monitor};
  if (opt_.monitor == nullptr ||
      opt_.root_policy != RootPolicy::kLeastCongested) {
    ccfg.cache = &cache_;
    ccfg.roots = candidate_roots(opt_.root_policy, net_);
  }
  coll::CollectiveOptions desc = descriptor_for(spec);
  // Explicitly in-network: the fallback decision is the SERVICE's (queue
  // first, host plane only on timeout/overflow), not the Communicator's.
  desc.algorithm = is_sparse(spec) ? coll::Algorithm::kFlareSparse
                                   : coll::Algorithm::kFlareDense;

  auto aj = std::make_unique<ActiveJob>(net_, spec.participants,
                                        std::move(ccfg));
  aj->desc = desc;
  aj->pc = aj->comm.persistent(desc);
  const coll::InstallReport& report = aj->pc.install_report();
  rec.admission_attempts += report.attempts;
  telemetry_.admission_attempts += report.attempts;
  if (feasible != nullptr) *feasible = report.any_feasible;
  if (!aj->pc.ok()) return false;

  rec.state = JobState::kInNetwork;
  rec.in_network = true;
  rec.start_ps = net_.sim().now();
  if (obs::Tracer* tr = net_.tracer()) {
    tr->instant(kJobTidBase + job, "admitted", rec.start_ps, "service");
  }
  rec.tree_cache_hit = report.cache_hit;
  rec.tree_root = aj->pc.tree().root;
  rec.tree_switches = static_cast<u32>(aj->pc.tree().switches.size());
  telemetry_.in_network += 1;
  telemetry_.queue_delay_s.add(rec.queue_delay_seconds());
  aj->handle = aj->pc.start(
      [this, job](const coll::CollectiveResult& res) {
        on_job_done(job, res);
      });
  jobs_.emplace(job, std::move(aj));
  ensure_place_armed();
  return true;
}

void AllreduceService::enqueue(u32 job) {
  queue_.push_back(job);
  telemetry_.peak_queue_len =
      std::max<u64>(telemetry_.peak_queue_len, queue_.size());
  if (opt_.queue_timeout_ps == 0) return;
  net_.sim().schedule_after(opt_.queue_timeout_ps, [this, job] {
    if (records_[job].state != JobState::kQueued) return;
    const auto it = std::find(queue_.begin(), queue_.end(), job);
    FLARE_ASSERT(it != queue_.end());
    queue_.erase(it);
    records_[job].timed_out = true;
    telemetry_.timed_out += 1;
    start_fallback_or_reject(job, RingReason::kTimeout);
  });
}

void AllreduceService::schedule_drain() {
  if (drain_scheduled_) return;
  drain_scheduled_ = true;
  net_.sim().schedule_after(0, [this] { drain_queue(); });
}

bool AllreduceService::congestion_gate_open() {
  if (opt_.monitor == nullptr || opt_.admit_below_congestion <= 0.0) {
    return true;
  }
  opt_.monitor->sample();
  return opt_.monitor->mean_congestion() <= opt_.admit_below_congestion;
}

void AllreduceService::schedule_congestion_recheck() {
  if (recheck_scheduled_) return;
  recheck_scheduled_ = true;
  net_.sim().schedule_after(opt_.monitor->options().period_ps, [this] {
    recheck_scheduled_ = false;
    drain_queue();
  });
}

void AllreduceService::drain_queue() {
  drain_scheduled_ = false;
  if (!queue_.empty() && !congestion_gate_open()) {
    // Backpressure holds the WHOLE queue (strict FIFO anyway): check again
    // one monitor period later.
    telemetry_.congestion_deferrals += 1;
    schedule_congestion_recheck();
    return;
  }
  // Strict FIFO by default: the head blocks the rest — a released slot
  // goes to the longest-waiting job, never to a smaller job that could
  // overtake it.  With admission scoring on, the cheapest MARGINAL
  // worst-edge heat overtakes instead (pick_queued_index).
  while (!queue_.empty()) {
    const std::size_t pick = pick_queued_index();
    const u32 job = queue_[pick];
    records_[job].requeue_retries += 1;
    telemetry_.requeue_retries += 1;
    if (!try_admit(job)) break;
    if (pick != 0) telemetry_.admission_reorders += 1;
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
  }
}

std::size_t AllreduceService::pick_queued_index() {
  if (!opt_.admission_scoring || opt_.monitor == nullptr ||
      queue_.size() < 2) {
    return 0;
  }
  // Score every queued job's marginal worst-edge heat against one freeze
  // of the active fleet; cheapest wins, ties keep FIFO order (strict
  // less).  An infeasible job scores +inf and never overtakes.
  opt_.monitor->sample();
  const place::CostSnapshot snap = freeze_active();
  place::PlacementOptimizer scorer(net_, place::OptimizerOptions{});
  std::size_t best_i = 0;
  f64 best = std::numeric_limits<f64>::infinity();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const f64 s =
        scorer.admission_score(snap, specs_[queue_[i]].participants);
    if (s < best) {
      best = s;
      best_i = i;
    }
  }
  return best_i;
}

place::CostSnapshot AllreduceService::freeze_active() {
  std::vector<place::JobInput> inputs;
  inputs.reserve(jobs_.size());
  // Ascending job id (jobs_ is an unordered_map — never iterate it where
  // order matters).
  for (u32 job = 0; job < static_cast<u32>(records_.size()); ++job) {
    const auto it = jobs_.find(job);
    if (it == jobs_.end()) continue;
    ActiveJob& aj = *it->second;
    if (!aj.pc.ok() || !aj.pc.in_network()) continue;  // host-plane jobs
    place::JobInput in;
    in.job_id = job;
    in.trace = aj.pc.trace();
    in.data_bytes = specs_[job].desc.data_bytes;
    in.participants = specs_[job].participants;
    in.tree = aj.pc.tree();
    inputs.push_back(std::move(in));
  }
  return place::CostSnapshot::freeze(net_, *opt_.monitor, std::move(inputs));
}

void AllreduceService::ensure_place_armed() {
  if (opt_.place_period_ps == 0 || opt_.monitor == nullptr || place_armed_) {
    return;
  }
  place_armed_ = true;
  net_.sim().schedule_after(opt_.place_period_ps, [this] {
    place_armed_ = false;
    run_place_round();
  });
}

void AllreduceService::run_place_round() {
  // An empty fleet disarms the plane; the next successful admission
  // re-arms it (ensure_place_armed in try_admit).
  if (jobs_.empty()) return;
  opt_.monitor->sample();  // freeze the fabric as it is NOW
  const place::CostSnapshot snap = freeze_active();
  if (snap.jobs().size() >= 2) {  // one job has nothing to co-place against
    place::OptimizerOptions popt;
    popt.iterations = opt_.place_iterations;
    place::PlacementOptimizer optimizer(net_, popt);
    obs::Tracer* tr = net_.tracer();
    const SimTime t0 = net_.sim().now();
    if (tr != nullptr) {
      tr->name_thread(kPlaceTid, "placement");
      tr->begin(kPlaceTid, "optimize", t0, "place");
    }
    place::PlacementPlan plan = optimizer.optimize(snap);
    if (tr != nullptr) tr->end(kPlaceTid, net_.sim().now());
    if (place_grade_pending_) {
      // This round's as-is objective IS the realized cost of the last
      // plan: the fabric was re-measured after its moves applied.
      telemetry_.place.last_cost_realized = plan.cost_before;
      place_grade_pending_ = false;
    }
    telemetry_.place.rounds += 1;
    telemetry_.place.moves_proposed += plan.proposed;
    telemetry_.place.root_sweeps += plan.root_sweeps;
    telemetry_.place.moves_rejected +=
        place::filter_moves(plan, opt_.place_min_gain);
    u32 staged = 0;
    for (const place::PlannedMove& mv : plan.moves) {
      const auto it = jobs_.find(mv.job_id);
      if (it == jobs_.end()) continue;  // finished since the freeze
      // Staged onto the session; applied at its next iteration boundary
      // through the break-before-make fresh-id path (TreeOpBase).
      if (!it->second->pc.plan_migration(mv.tree)) continue;
      staged += 1;
      if (tr != nullptr) {
        tr->instant(kPlaceTid, "plan-move", net_.sim().now(), "place");
      }
    }
    telemetry_.place.moves_planned += staged;
    if (staged > 0) {
      telemetry_.place.last_cost_before = plan.cost_before;
      telemetry_.place.last_cost_predicted = plan.cost_after;
      place_grade_pending_ = true;
    }
  }
  // A calendar holding nothing else means every job is stuck: no staged
  // move can apply without an event, so re-arming would only keep a dead
  // run spinning.
  if (!net_.sim().empty()) ensure_place_armed();
}

void AllreduceService::start_fallback_or_reject(u32 job, RingReason why) {
  const JobSpec& spec = specs_[job];
  // Dense allreduce falls back to the ring; sparse to SparCML (recursive
  // doubling: power-of-two groups only).
  const bool can_host =
      opt_.fallback_to_host &&
      spec.desc.kind == coll::CollectiveKind::kAllreduce &&
      (!is_sparse(spec) || std::has_single_bit(spec.participants.size()));
  if (!can_host) {
    JobRecord& rec = records_[job];
    rec.state = JobState::kRejected;
    rec.start_ps = rec.finish_ps = net_.sim().now();
    telemetry_.rejected += 1;
    if (obs::Tracer* tr = net_.tracer()) {
      tr->instant(kJobTidBase + job, "rejected", rec.finish_ps, "service");
      tr->end(kJobTidBase + job, rec.finish_ps);
    }
    return;
  }
  start_host_plane(job, why);
}

void AllreduceService::start_host_plane(u32 job, RingReason why) {
  const JobSpec& spec = specs_[job];
  FLARE_ASSERT_MSG(spec.desc.kind == coll::CollectiveKind::kAllreduce,
                   "the host data planes serve allreduce only");
  JobRecord& rec = records_[job];
  rec.state = JobState::kFallback;
  rec.in_network = false;
  rec.start_ps = net_.sim().now();
  if (obs::Tracer* tr = net_.tracer()) {
    tr->instant(kJobTidBase + job, "host-plane", rec.start_ps, "service");
  }
  switch (why) {
    case RingReason::kRequested: telemetry_.host_requested += 1; break;
    case RingReason::kTimeout: telemetry_.timeout_fallbacks += 1; break;
    case RingReason::kOverflow: telemetry_.overflow_fallbacks += 1; break;
    case RingReason::kInadmissible:
      telemetry_.inadmissible_fallbacks += 1;
      break;
  }
  telemetry_.queue_delay_s.add(rec.queue_delay_seconds());

  coll::CollectiveOptions desc = descriptor_for(spec);
  desc.algorithm = is_sparse(spec) ? coll::Algorithm::kSparcml
                                   : coll::Algorithm::kHostRing;
  auto aj = std::make_unique<ActiveJob>(net_, spec.participants,
                                        coll::CommunicatorConfig{});
  aj->desc = desc;
  ActiveJob* raw = aj.get();
  jobs_.emplace(job, std::move(aj));
  raw->handle = raw->comm.start(
      desc, [this, job](const coll::CollectiveResult& res) {
        on_job_done(job, res);
      });
}

void AllreduceService::on_job_done(u32 job,
                                   const coll::CollectiveResult& res) {
  JobRecord& rec = records_[job];
  // Per-iteration bookkeeping (a job is a SEQUENCE of iterations since the
  // congestion plane landed; single-iteration jobs take the same path).
  rec.iterations_done += 1;
  rec.ok = rec.iterations_done == 1 ? res.ok : (rec.ok && res.ok);
  rec.max_abs_err = std::max(rec.max_abs_err, res.max_abs_err);
  rec.exact = rec.ok && rec.max_abs_err == 0.0;
  rec.retransmits += res.retransmits;
  rec.recoveries += res.recoveries;
  rec.migrations += res.migrations;
  rec.planned_migrations += res.planned_migrations;
  rec.spill_packets += res.spill_packets;
  rec.host_pairs_sent += res.host_pairs_sent;
  rec.down_pairs += res.down_pairs;
  rec.dense_switchovers += res.dense_switchovers;
  rec.pairs_exchanged += res.pairs_exchanged;
  telemetry_.retransmits += res.retransmits;
  telemetry_.migrations += res.migrations;
  telemetry_.planned_migrations += res.planned_migrations;
  if (res.fell_back) rec.fell_back = true;

  const u32 want = std::max<u32>(1, specs_[job].iterations);
  if (res.ok && rec.iterations_done < want) {
    // More iterations: restart off this callback's stack (the completing
    // op is still finishing under our feet), after the job's duty-cycle
    // gap when one is configured.
    net_.sim().schedule_after(specs_[job].iteration_gap_ps,
                              [this, job] { start_next_iteration(job); });
    return;
  }

  rec.state = JobState::kDone;
  rec.finish_ps = net_.sim().now();
  if (obs::Tracer* tr = net_.tracer()) {
    tr->end(kJobTidBase + job, rec.finish_ps);
  }
  if (rec.fell_back) {
    // Admitted in-network but SOME iteration finished on the ring: a
    // mid-run fault ate the tree.  Distinct from admission fallbacks in
    // the telemetry.
    rec.in_network = false;
    telemetry_.fault_fallbacks += 1;
  } else if (rec.recoveries > 0 || rec.retransmits > 0) {
    telemetry_.jobs_recovered += 1;
  }
  (rec.in_network ? telemetry_.in_network_service_s
                  : telemetry_.fallback_service_s)
      .add(rec.service_seconds());
  // Destroy the ActiveJob (and release its switch state) off this
  // callback's stack: the job's own op is still executing it.  The release
  // listener then re-triggers admission for queued jobs.
  net_.sim().schedule_after(0, [this, job] {
    jobs_.erase(job);
#if FLARE_VALIDATE_ENABLED
    // Job teardown is the service plane's quiescent point: the install
    // was just released, so the fabric-wide conservation and occupancy
    // invariants must hold right now.
    net_.validate_audit();
#endif
  });
}

void AllreduceService::start_next_iteration(u32 job) {
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return;
  ActiveJob& aj = *it->second;
  auto done = [this, job](const coll::CollectiveResult& res) {
    on_job_done(job, res);
  };
  if (aj.pc.ok()) {
    // Persistent request: seed bumping, engine reset, fault reinstall and
    // congestion migration all happen inside start().
    aj.handle = aj.pc.start(done);
    return;
  }
  // Ring job: one-shot per iteration with the bumped seed.
  coll::CollectiveOptions desc = aj.desc;
  desc.seed += records_[job].iterations_done;
  aj.handle = aj.comm.start(desc, done);
}

}  // namespace flare::service
