#include "core/sparse_policy.hpp"

#include <algorithm>
#include <cstring>

namespace flare::core {

Packet make_sparse_packet_from_pairs(
    const AllreduceConfig& cfg, u32 block_id,
    std::vector<StoredPair>::const_iterator first, u32 count, u16 flags,
    u32 shard_seq) {
  Packet p;
  p.hdr.allreduce_id = cfg.id;
  p.hdr.block_id = block_id;
  p.hdr.shard_seq = shard_seq;
  p.hdr.flags = static_cast<u16>(kFlagSparse | flags);
  p.hdr.elem_count = count;
  const u32 es = dtype_size(cfg.dtype);
  p.payload.resize(static_cast<std::size_t>(count) * (sizeof(u32) + es));
  std::byte* idx_out = p.payload.data();
  std::byte* val_out = p.payload.data() + static_cast<std::size_t>(count) *
                                              sizeof(u32);
  for (u32 i = 0; i < count; ++i) {
    const StoredPair& sp = *(first + i);
    std::memcpy(idx_out + i * sizeof(u32), &sp.index, sizeof(u32));
    copy_element(val_out + static_cast<std::size_t>(i) * es, sp.value.data(),
                 es);
  }
  return p;
}

SparseAggregator::SparseAggregator(EngineHost& host,
                                   const AllreduceConfig& cfg,
                                   BufferPool& pool)
    : Aggregator(host, cfg, pool) {
  FLARE_ASSERT(cfg_.sparse);
  FLARE_ASSERT_MSG(cfg_.hash_storage || cfg_.block_span > 0,
                   "array storage needs a block span");
}

SparseAggregator::StoreSlot SparseAggregator::take_slot() {
  if (!spare_.empty()) {
    StoreSlot slot = std::move(spare_.back());
    spare_.pop_back();
    return slot;
  }
  StoreSlot slot;
  // The spill buffer's bound: it flushes once it holds
  // spill_capacity_pairs, and one packet's pairs may all spill.
  slot.spill.reserve(cfg_.spill_capacity_pairs + cfg_.pairs_per_packet);
  if (cfg_.hash_storage) {
    slot.store = std::make_unique<HashStore>(cfg_.hash_capacity_pairs,
                                             cfg_.dtype, cfg_.op);
  } else {
    slot.store =
        std::make_unique<ArrayStore>(cfg_.block_span, cfg_.dtype, cfg_.op);
  }
  return slot;
}

void SparseAggregator::recycle_slots(Block& blk) {
  for (StoreSlot& slot : blk.stores) {
    slot.store->clear();
    slot.spill.clear();
    spare_.push_back(std::move(slot));
  }
  blk.stores.clear();
}

u64 SparseAggregator::store_footprint() const {
  const u64 pair_bytes = sparse_pair_bytes(cfg_.dtype);
  u64 f;
  if (cfg_.hash_storage) {
    f = std::bit_ceil(static_cast<u64>(cfg_.hash_capacity_pairs)) *
            pair_bytes +
        cfg_.spill_capacity_pairs * pair_bytes;
  } else {
    f = static_cast<u64>(cfg_.block_span) * dtype_size(cfg_.dtype) +
        cfg_.block_span / 8;
  }
  return f;
}

bool SparseAggregator::admit(const Packet& pkt, SimTime now) {
  Block& blk = entry(blocks_, pkt.hdr.block_id);
  if (!blk.open()) {
    blk.tracker = std::make_unique<SparseBlockTracker>(cfg_.num_children);
    blk.stores.resize(cfg_.num_buffers);
    blk.slots.reset(cfg_.num_buffers);
    for (auto& s : blk.stores) {
      s = take_slot();
      const bool ok = pool_.acquire(store_footprint(), now);
      FLARE_ASSERT_MSG(ok, "working-memory pool exhausted");
    }
    blk.first_arrival = now;
  }
  const auto mark = blk.tracker->mark(pkt.hdr.child_index, pkt.hdr.shard_seq,
                                      pkt.is_last_shard(),
                                      pkt.hdr.shard_count);
  if (mark.fresh) blk.seen += 1;
  return mark.fresh;
}

void SparseAggregator::accept(Waiter w) {
  const u32 bid = w.pkt->hdr.block_id;
  acquire(blocks_[bid].slots, bid, std::move(w));
}

void SparseAggregator::clear_blocks() {
  const SimTime t = now();
  for (Block& blk : blocks_) {
    if (!blk.open()) continue;
    pool_.release(store_footprint() * blk.stores.size(), t);
    recycle_slots(blk);
  }
  blocks_.clear();
}

void SparseAggregator::run_on_slot(u32 block_id, u32 store_idx, Waiter w,
                                   SimTime start) {
  Block& blk = blocks_[block_id];
  StoreSlot& slot = blk.stores[store_idx];
  const Packet& pkt = *w.pkt;
  const auto& costs = host_.costs();

  const SparseView view =
      pkt.hdr.elem_count > 0 ? sparse_view(pkt, cfg_.dtype) : SparseView{};
  const u32 es = dtype_size(cfg_.dtype);
  u32 spilled = 0;
  for (u32 i = 0; i < view.count; ++i) {
    const std::byte* val = view.values + static_cast<std::size_t>(i) * es;
    if (!slot.store->insert(view.indices[i], val)) {
      slot.spill.push_back(make_stored_pair(view.indices[i], val, cfg_.dtype));
      spilled += 1;
      total_collisions_ += 1;
    }
  }

  u64 work = costs.sparse_insert_cycles(cfg_.hash_storage, view.count) +
             static_cast<u64>(static_cast<f64>(spilled) *
                              costs.spill_append_cycles_per_pair);
  SimTime end = start + work;

  // Spill-buffer overflow: flush onto the network right away (Section 7).
  while (slot.spill.size() >= cfg_.spill_capacity_pairs) {
    end += costs.emit_packet_cycles;
    flush_spill(blk, slot, block_id, end);
  }

  at(end, [this, block_id, store_idx, handler = w.handler] {
    if (block_id >= blocks_.size() || !blocks_[block_id].open()) {
      return;  // reset dropped the block
    }
    Block& b = blocks_[block_id];
    b.inserted += 1;
    const SimTime t = now();
    if (b.tracker->complete() && b.inserted == b.seen) {
      finalize_block(block_id, store_idx, t, handler);
    } else {
      release(b.slots, block_id, store_idx, t);
      host_.handler_done(handler, t);
    }
  });
}

void SparseAggregator::flush_spill(Block& blk, StoreSlot& slot, u32 block_id,
                                   SimTime when) {
  const u32 n = std::min<u32>(static_cast<u32>(slot.spill.size()),
                              cfg_.pairs_per_packet);
  Packet out = make_sparse_packet_from_pairs(
      cfg_, block_id, slot.spill.cbegin(), n,
      static_cast<u16>(kFlagSpill | (cfg_.is_root ? kFlagDown : 0)),
      blk.emit_seq++);
  slot.spill.erase(slot.spill.begin(), slot.spill.begin() + n);
  stats_.spill_packets += 1;
  stats_.spill_pairs += n;
  emit(std::move(out), when);
}

void SparseAggregator::finalize_block(u32 block_id, u32 my_store, SimTime t,
                                      u32 handler) {
  Block& blk = blocks_[block_id];
  const auto& costs = host_.costs();

  // Fold sibling stores into mine (extract + re-insert, paying per-pair
  // insert cost), then flush their leftover spills.
  u64 merge_cycles = 0;
  StoreSlot& mine = blk.stores[my_store];
  for (u32 j = 0; j < blk.stores.size(); ++j) {
    if (j == my_store) continue;
    StoreSlot& other = blk.stores[j];
    FLARE_ASSERT_MSG(!blk.slots.busy(j), "sparse merge with an active store");
    std::vector<StoredPair> pairs;
    other.store->extract(pairs);
    merge_cycles += costs.scan_cycles(other.store->scan_slots(), 0);
    for (const StoredPair& sp : pairs) {
      if (!mine.store->insert(sp.index, sp.value.data())) {
        mine.spill.push_back(sp);
        total_collisions_ += 1;
      }
    }
    merge_cycles +=
        costs.sparse_insert_cycles(cfg_.hash_storage, pairs.size());
    // Sibling spills cannot be re-aggregated (single-probe design): they
    // travel as-is.
    for (const StoredPair& sp : other.spill) mine.spill.push_back(sp);
    other.spill.clear();
  }
  t += merge_cycles;

  // Completion scan: extract the aggregated pairs in deterministic order.
  std::vector<StoredPair> result;
  mine.store->extract(result);
  t += costs.scan_cycles(mine.store->scan_slots(),
                         result.size() + mine.spill.size());

  // Leftover spills flush first, then the aggregated result, then the
  // last-shard marker with the total count this node emitted for the block.
  while (!mine.spill.empty()) {
    t += costs.emit_packet_cycles;
    flush_spill(blk, mine, block_id, t);
  }

  const u16 down_flag = static_cast<u16>(cfg_.is_root ? kFlagDown : 0);
  u32 offset = 0;
  const u32 total = static_cast<u32>(result.size());
  while (offset < total) {
    const u32 n = std::min(cfg_.pairs_per_packet, total - offset);
    const bool last = (offset + n == total);
    u16 flags = down_flag;
    u32 shard_count = 0;
    if (last) {
      flags |= kFlagLastShard;
      shard_count = blk.emit_seq + 1;  // everything emitted incl. this one
    }
    t += costs.emit_packet_cycles;
    Packet out = make_sparse_packet_from_pairs(
        cfg_, block_id, result.cbegin() + offset, n, flags, blk.emit_seq);
    out.hdr.shard_count = shard_count;
    blk.emit_seq += 1;
    emit(std::move(out), t);
    offset += n;
  }
  if (total == 0) {
    // All children sent empty blocks (or everything spilled): still emit the
    // completion marker so the parent's children counter advances.
    t += costs.emit_packet_cycles;
    Packet out = make_sparse_packet_from_pairs(
        cfg_, block_id, result.cbegin(), 0,
        static_cast<u16>(down_flag | kFlagLastShard | kFlagEmptyBlock),
        blk.emit_seq);
    out.hdr.shard_count = blk.emit_seq + 1;
    blk.emit_seq += 1;
    emit(std::move(out), t);
  }

  const u64 mem_bytes = store_footprint() * blk.stores.size();
  release_at(t, mem_bytes);
  close_block(block_id, blk.first_arrival, t, mem_bytes);
  recycle_slots(blk);
  blk = Block();
  host_.handler_done(handler, t);
}

std::unique_ptr<Aggregator> make_sparse_aggregator(EngineHost& host,
                                                   const AllreduceConfig& cfg,
                                                   BufferPool& pool) {
  return std::make_unique<SparseAggregator>(host, cfg, pool);
}

std::unique_ptr<Aggregator> make_aggregator(EngineHost& host,
                                            const AllreduceConfig& cfg,
                                            BufferPool& pool) {
  if (cfg.sparse) return make_sparse_aggregator(host, cfg, pool);
  return make_dense_aggregator(host, cfg, pool);
}

}  // namespace flare::core
