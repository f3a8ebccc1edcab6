#include "coll/flare_sparse.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "coll/sparcml.hpp"
#include "net/node.hpp"

namespace flare::coll::detail {

SparseOp::SparseOp(net::Network& net, NetworkManager& manager,
                   const std::vector<net::Host*>& participants,
                   const CollectiveOptions& desc, core::AllreduceConfig cfg,
                   ReductionTree tree, net::CongestionMonitor* monitor)
    : TreeOpBase(net, manager, participants, desc, cfg, std::move(tree),
                 /*sparse=*/true, desc.sparse.num_blocks, monitor),
      op_(cfg.op),
      combine_(op_.combiner(desc.dtype)),
      P_(static_cast<u32>(participants.size())),
      span_(desc.sparse.block_span),
      ppp_(cfg.pairs_per_packet),
      esize_(core::dtype_size(desc.dtype)) {
  FLARE_ASSERT(P_ >= 1);
  FLARE_ASSERT_MSG(nb_ >= 1 && span_ >= 1,
                   "sparse workload needs blocks and a block span");
  FLARE_ASSERT(ppp_ >= 1);
}

u64 SparseOp::tree_spills() const {
  u64 spills = 0;
  for (const TreeSwitchEntry& e : tree_.switches) {
    const core::EngineStats* st = e.sw->engine_stats(cfg_.id);
    if (st != nullptr) spills += st->spill_packets;
  }
  return spills;
}

void SparseOp::stage(u32 iteration) {
  const SparseWorkload& w = desc_.sparse;
  staged_.assign(P_, {});
  for (u32 h = 0; h < P_; ++h) {
    staged_[h].resize(nb_);
    for (u32 b = 0; b < nb_; ++b) {
      staged_[h][b] =
          w.epoch_pairs ? w.epoch_pairs(desc_.seed + iteration, h, b)
                        : w.pairs(h, b);
    }
  }
  // Engine spill counters persist across iterations of a persistent
  // install; the per-iteration result reports the delta.
  spills_at_begin_ = tree_spills();
  down_.assign(P_, std::vector<core::ShardTracker>(nb_));
  result_ = core::TypedBuffer(desc_.dtype, static_cast<u64>(nb_) * span_);
  result_.fill_identity(op_);
  down_pairs_ = 0;
  host_pairs_sent_ = 0;
}

void SparseOp::send_block(u32 h, u32 b, u16 flags) {
  const auto& pairs = staged_[h][b];
  const u16 child = child_index(h);
  const u32 shards =
      std::max<u32>(1, (static_cast<u32>(pairs.size()) + ppp_ - 1) / ppp_);
  for (u32 s = 0; s < shards; ++s) {
    core::Packet p;
    if (pairs.empty()) {
      p = core::make_empty_block_packet(cfg_.id, b, child);
      p.hdr.flags |= flags;
    } else {
      const u32 off = s * ppp_;
      const u32 count =
          std::min<u32>(ppp_, static_cast<u32>(pairs.size()) - off);
      const bool last = (s + 1 == shards);
      p = core::make_sparse_packet(
          cfg_.id, b, child,
          std::span<const core::SparsePair>(pairs.data() + off, count),
          desc_.dtype,
          static_cast<u16>((last ? core::kFlagLastShard : 0) | flags));
      p.hdr.shard_seq = s;
      if (last) p.hdr.shard_count = shards;
    }
    host_pairs_sent_ += p.hdr.elem_count;
    send_up(h, std::move(p));
  }
}

bool SparseOp::on_block_packet(u32 h, const core::Packet& pkt) {
  const u32 b = pkt.hdr.block_id;
  core::ShardTracker& st = down_[h][b];
  if (!st.mark(pkt.hdr.shard_seq)) return false;  // re-emitted: idempotent
  if (pkt.is_last_shard()) st.announce_total(pkt.hdr.shard_count);
  // Host-side final aggregation of the multicast pairs (spills arrive
  // unaggregated; summing here restores exactness).
  if (h == 0 && pkt.hdr.elem_count > 0) {
    const core::SparseView view = core::sparse_view(pkt, desc_.dtype);
    down_pairs_ += view.count;
    std::byte* block = result_.at_byte(static_cast<u64>(b) * span_);
    for (u32 i = 0; i < view.count; ++i) {
      combine_(block + static_cast<std::size_t>(view.indices[i]) * esize_,
               view.values + static_cast<std::size_t>(i) * esize_);
    }
  }
  return st.complete();
}

void SparseOp::on_restart() {
  // Fresh engines count spills from zero and emit fresh shard sequences:
  // incomplete blocks restart from scratch — down trackers and host 0's
  // partial accumulation (its block region returns to the identity;
  // completed regions and their duplicate multicasts are untouched).
  spills_at_begin_ = 0;
  core::TypedBuffer identity(desc_.dtype, span_);
  identity.fill_identity(op_);
  for (u32 b = 0; b < nb_; ++b) {
    if (runs_[0].blocks[b].done) continue;
    std::memcpy(result_.at_byte(static_cast<u64>(b) * span_),
                identity.data(), static_cast<u64>(span_) * esize_);
  }
  for (u32 h = 0; h < P_; ++h) {
    for (u32 b = 0; b < nb_; ++b) {
      if (!runs_[h].blocks[b].done) down_[h][b] = core::ShardTracker{};
    }
  }
}

void SparseOp::fill_result(CollectiveResult& res) const {
  res.spill_packets = tree_spills() - spills_at_begin_;
  res.extra_packets = res.spill_packets;
  res.host_pairs_sent = host_pairs_sent_;
  res.down_pairs = down_pairs_;

  // Reference: densified per-block sums over the staged inputs, host by
  // host in staging order, then one compare per block.
  f64 max_err = 0.0;
  core::TypedBuffer block_ref(desc_.dtype, span_);
  for (u32 b = 0; b < nb_; ++b) {
    block_ref.fill_identity(op_);
    for (u32 h = 0; h < P_; ++h) {
      core::accumulate_sparse_pairs(block_ref.data(), staged_[h][b],
                                    desc_.dtype, combine_);
    }
    max_err = std::max(
        max_err, core::max_abs_diff(
                     desc_.dtype, result_.at_byte(static_cast<u64>(b) * span_),
                     block_ref.data(), span_));
  }
  res.max_abs_err = max_err;
  const f64 tol = core::dtype_is_float(desc_.dtype) ? 1e-3 * P_ : 0.0;
  res.ok = max_err <= tol;
}

std::unique_ptr<OpBase> SparseOp::make_fallback_op() {
  // The host-based sparse fallback is SparCML — recursive doubling, so
  // power-of-two groups only; other sizes wait for the fabric to heal.
  if (!std::has_single_bit(P_)) return nullptr;
  CollectiveOptions sdesc = desc_;
  sdesc.algorithm = Algorithm::kSparcml;
  // Inherit the session's trace: one continuous tenant for attribution.
  return std::make_unique<SparcmlOp>(net_, participants_, sdesc, trace_);
}

}  // namespace flare::coll::detail
