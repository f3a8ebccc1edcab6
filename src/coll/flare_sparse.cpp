#include "coll/flare_sparse.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "coll/sparcml.hpp"
#include "net/node.hpp"

namespace flare::coll::detail {

SparseOp::SparseOp(net::Network& net, NetworkManager& manager,
                   const std::vector<net::Host*>& participants,
                   const CollectiveOptions& desc, core::AllreduceConfig cfg,
                   ReductionTree tree, bool owns_install,
                   net::CongestionMonitor* monitor)
    : TreeOpBase(net, manager, participants, desc, cfg, std::move(tree),
                 owns_install, /*sparse=*/true, monitor),
      op_(cfg.op) {
  P_ = static_cast<u32>(participants_.size());
  FLARE_ASSERT(P_ >= 1);
  nb_ = desc_.sparse.num_blocks;
  span_ = desc_.sparse.block_span;
  FLARE_ASSERT_MSG(nb_ >= 1 && span_ >= 1,
                   "sparse workload needs blocks and a block span");
  ppp_ = cfg_.pairs_per_packet;
  FLARE_ASSERT(ppp_ >= 1);
  esize_ = core::dtype_size(desc_.dtype);
  // As in the dense protocol: staggered sending needs the whole operation
  // in flight, so the window expands to the block count.
  window_ = desc_.order == core::SendOrder::kStaggered
                ? std::max(desc_.window_blocks, nb_)
                : std::max(1u, desc_.window_blocks);
}

void SparseOp::stage(u64 seed) {
  const SparseWorkload& w = desc_.sparse;
  staged_.assign(P_, {});
  for (u32 h = 0; h < P_; ++h) {
    staged_[h].resize(nb_);
    for (u32 b = 0; b < nb_; ++b) {
      staged_[h][b] =
          w.epoch_pairs ? w.epoch_pairs(seed, h, b) : w.pairs(h, b);
    }
  }
}

void SparseOp::begin(u64 seed, std::shared_ptr<OpState> state) {
  if (!begin_prologue(seed, std::move(state))) return;
  hosts_done_ = 0;
  start_ps_ = net_.sim().now();
  base_traffic_ = net_.total_traffic_bytes();
  stage(seed);
  // Engine spill counters persist across iterations of a persistent
  // install; the per-iteration result reports the delta.
  spills_at_begin_ = 0;
  for (const TreeSwitchEntry& e : tree_.switches) {
    const core::EngineStats* st = e.sw->engine_stats(cfg_.id);
    if (st != nullptr) spills_at_begin_ += st->spill_packets;
  }

  result_ = core::TypedBuffer(desc_.dtype, static_cast<u64>(nb_) * span_);
  result_.fill_identity(op_);
  down_pairs_ = 0;
  host_pairs_sent_ = 0;

  runs_.clear();
  runs_.resize(P_);
  for (u32 h = 0; h < P_; ++h) {
    HostRun& hr = runs_[h];
    hr.host = participants_[h];
    hr.schedule = core::send_schedule(h, P_, nb_, desc_.order);
    hr.down.assign(nb_, core::ShardTracker{});
    hr.block_done.assign(nb_, false);
    hr.retry.reset(nb_);
    hr.host->set_reduce_handler(
        cfg_.id, [this, h](const core::Packet& pkt) { on_down(h, pkt); });
  }
  for (u32 h = 0; h < P_; ++h) try_send(h);
  subscribe_faults();
  arm_watchdog();
}

void SparseOp::send_block(u32 h, u32 b, u16 extra_flags) {
  HostRun& hr = runs_[h];
  const auto& pairs = staged_[h][b];
  const u16 child = tree_.host_child_index[hr.host->host_index()];
  const u32 shards =
      std::max<u32>(1, (static_cast<u32>(pairs.size()) + ppp_ - 1) / ppp_);
  for (u32 s = 0; s < shards; ++s) {
    core::Packet p;
    if (pairs.empty()) {
      p = core::make_empty_block_packet(cfg_.id, b, child);
      p.hdr.flags |= extra_flags;
    } else {
      const u32 off = s * ppp_;
      const u32 count =
          std::min<u32>(ppp_, static_cast<u32>(pairs.size()) - off);
      const bool last = (s + 1 == shards);
      p = core::make_sparse_packet(
          cfg_.id, b, child,
          std::span<const core::SparsePair>(pairs.data() + off, count),
          desc_.dtype,
          static_cast<u16>((last ? core::kFlagLastShard : 0) | extra_flags));
      p.hdr.shard_seq = s;
      if (last) p.hdr.shard_count = shards;
    }
    host_pairs_sent_ += p.hdr.elem_count;
    net::NetPacket np;
    np.kind = net::PacketKind::kReduceUp;
    np.allreduce_id = cfg_.id;
    np.trace = cfg_.trace;
    np.wire_bytes = p.wire_bytes();
    np.reduce = core::make_pooled_packet(std::move(p));
    hr.host->send(std::move(np));
  }
}

void SparseOp::try_send(u32 h) {
  HostRun& hr = runs_[h];
  while (hr.next < hr.schedule.size()) {
    const u32 b = hr.schedule[hr.next];
    // After a recovery restart the schedule replays from the top: blocks
    // this host already holds results for are re-contributed (the fresh
    // engines need every child's input) but consume no window slot and
    // await no multicast.
    const bool need_result = !hr.block_done[b];
    if (need_result && hr.outstanding >= window_) break;
    hr.next += 1;
    if (need_result) {
      hr.outstanding += 1;
      hr.retry.sent[b] = true;
      hr.retry.sent_ps[b] = net_.sim().now();
    }
    send_block(h, b, 0);
  }
}

void SparseOp::on_down(u32 h, const core::Packet& pkt) {
  HostRun& me = runs_[h];
  const u32 b = pkt.hdr.block_id;
  FLARE_ASSERT(b < nb_);
  if (me.block_done[b]) return;  // duplicated multicast replica
  core::ShardTracker& st = me.down[b];
  if (!st.mark(pkt.hdr.shard_seq)) return;  // re-emitted shard: idempotent
  if (pkt.is_last_shard()) st.announce_total(pkt.hdr.shard_count);
  // Host-side final aggregation of the multicast pairs (spills arrive
  // unaggregated; summing here restores exactness).
  if (h == 0 && pkt.hdr.elem_count > 0) {
    const core::SparseView view = core::sparse_view(pkt, desc_.dtype);
    down_pairs_ += view.count;
    for (u32 i = 0; i < view.count; ++i) {
      op_.apply(desc_.dtype,
                result_.at_byte(static_cast<u64>(b) * span_ +
                                view.indices[i]),
                view.values + static_cast<std::size_t>(i) * esize_, 1);
    }
  }
  if (!st.complete()) return;
  me.block_done[b] = true;
  me.blocks_done += 1;
  me.outstanding -= 1;
  if (me.blocks_done == nb_) {
    me.finish_ps = net_.sim().now();
    hosts_done_ += 1;
  }
  try_send(h);
  if (hosts_done_ == runs_.size() && !finished_) {
    finished_ = true;
    // Finalize off this packet's call stack: by the time every host holds
    // every block, all switch-side events of this collective have run.
    net_.sim().schedule_after(0, [this] { finalize(); });
  }
}

// --------------------------------------------- TreeOpBase data hooks ----

std::unique_ptr<OpBase> SparseOp::make_fallback_op() {
  // The host-based sparse fallback is SparCML — recursive doubling, so
  // power-of-two groups only; other sizes wait for the fabric to heal.
  if (!std::has_single_bit(P_)) return nullptr;
  CollectiveOptions sdesc = desc_;
  sdesc.algorithm = Algorithm::kSparcml;
  // Inherit the session's trace: one continuous tenant for attribution.
  return std::make_unique<SparcmlOp>(net_, participants_, sdesc, cfg_.trace);
}

void SparseOp::restart_iteration() {
  // Fresh engines emit fresh shard sequences: incomplete blocks restart
  // from scratch — tracker, window slot and host-0 partial accumulation
  // (its block region returns to the identity; completed regions and
  // their duplicate multicasts are untouched).
  core::TypedBuffer identity(desc_.dtype, span_);
  identity.fill_identity(op_);
  for (u32 b = 0; b < nb_; ++b) {
    if (runs_[0].block_done[b]) continue;
    std::memcpy(result_.at_byte(static_cast<u64>(b) * span_),
                identity.data(), static_cast<u64>(span_) * esize_);
  }
  for (u32 h = 0; h < runs_.size(); ++h) {
    HostRun& hr = runs_[h];
    hr.host->set_reduce_handler(
        cfg_.id, [this, h](const core::Packet& pkt) { on_down(h, pkt); });
    hr.next = 0;
    hr.outstanding = 0;
    hr.retry.reset(nb_);
    for (u32 b = 0; b < nb_; ++b) {
      if (!hr.block_done[b]) hr.down[b] = core::ShardTracker{};
    }
  }
  for (u32 h = 0; h < runs_.size(); ++h) try_send(h);
  arm_watchdog();
}

bool SparseOp::scan_timeouts() {
  // Re-send every shard of a timed-out block: the switch trackers
  // deduplicate by (child, shard_seq), so only the lost one is fresh; a
  // switch that already completed the block replays its cached shard
  // sequence off the retransmitted last shard instead.
  return scan_block_timeouts(
      static_cast<u32>(runs_.size()), nb_,
      [this](u32 h) -> BlockRetryState& { return runs_[h].retry; },
      [this](u32 h, u32 b) { return bool{runs_[h].block_done[b]}; },
      [this](u32 h, u32 b) { send_block(h, b, core::kFlagRetransmit); });
}

void SparseOp::finalize() {
  CollectiveResult res;
  res.blocks = nb_;
  res.in_network = true;
  f64 worst = 0.0, sum = 0.0;
  for (const HostRun& hr : runs_) {
    worst = std::max(worst, static_cast<f64>(hr.finish_ps - start_ps_));
    sum += static_cast<f64>(hr.finish_ps - start_ps_);
  }
  res.completion_seconds = worst / kPsPerSecond;
  res.mean_host_seconds = sum / P_ / kPsPerSecond;
  res.total_traffic_bytes = net_.total_traffic_bytes() - base_traffic_;
  u64 spills_now = 0;
  for (const TreeSwitchEntry& e : tree_.switches) {
    const core::EngineStats* st = e.sw->engine_stats(cfg_.id);
    if (st != nullptr) spills_now += st->spill_packets;
    const net::ReduceRole* role = e.sw->role(cfg_.id);
    if (role != nullptr && role->engine != nullptr) {
      res.switch_working_mem_hwm = std::max(
          res.switch_working_mem_hwm, role->engine->pool().high_water());
    }
  }
  // A mid-iteration recovery swaps in fresh engines whose counters restart:
  // saturate instead of underflowing the delta.
  res.spill_packets =
      spills_now >= spills_at_begin_ ? spills_now - spills_at_begin_
                                     : spills_now;
  res.extra_packets = res.spill_packets;
  res.host_pairs_sent = host_pairs_sent_;
  res.down_pairs = down_pairs_;

  // Reference: densified per-block sums over the staged inputs.
  f64 max_err = 0.0;
  core::TypedBuffer block_ref(desc_.dtype, span_);
  for (u32 b = 0; b < nb_; ++b) {
    block_ref.fill_identity(op_);
    for (u32 h = 0; h < P_; ++h) {
      for (const core::SparsePair& sp : staged_[h][b]) {
        core::TypedBuffer one(desc_.dtype, 1);
        one.set_from_f64(0, sp.value);
        op_.apply(desc_.dtype, block_ref.at_byte(sp.index), one.data(), 1);
      }
    }
    for (u32 i = 0; i < span_; ++i) {
      const f64 got =
          result_.get_as_f64(static_cast<u64>(b) * span_ + i);
      max_err = std::max(max_err, std::abs(got - block_ref.get_as_f64(i)));
    }
  }
  res.max_abs_err = max_err;
  const f64 tol = core::dtype_is_float(desc_.dtype) ? 1e-3 * P_ : 0.0;
  res.ok = max_err <= tol;

  res.retransmits = retransmits_;
  res.recoveries = recoveries_;
  res.migrations = migrations_iter_;
  res.planned_migrations = planned_iter_;
  trace_iteration_end();

  if (owns_install_) release_install();
  complete_ = true;
  publish(std::move(res));  // may destroy *this — nothing after
}

}  // namespace flare::coll::detail
