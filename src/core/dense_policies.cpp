#include "core/dense_policies.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

namespace flare::core {

namespace {

/// Builds the block-result packet from an aggregation buffer.  `elems` may
/// be smaller than the configured N for the ragged last block of a message.
Packet make_result_packet(const AllreduceConfig& cfg, u32 block_id,
                          PayloadVec&& buf, u32 elems) {
  Packet out;
  out.hdr.allreduce_id = cfg.id;
  out.hdr.block_id = block_id;
  out.hdr.elem_count = elems;
  out.hdr.shard_count = 1;
  out.hdr.flags = kFlagLastShard;
  if (cfg.is_root) out.hdr.flags |= kFlagDown;
  buf.resize(static_cast<std::size_t>(elems) * dtype_size(cfg.dtype));
  out.payload = std::move(buf);
  return out;
}

}  // namespace

// ===========================================================================
// Aggregator: the shared handler front end
// ===========================================================================

void Aggregator::process(std::shared_ptr<const Packet> pkt, u32 handler) {
  stats_.packets_in += 1;
  stats_.payload_bytes_in += pkt->payload_bytes();
  const auto& costs = host_.costs();
  const u64 pre = costs.handler_dispatch_cycles + costs.dma_packet_cycles;
  at(now() + pre, [this, pkt = std::move(pkt), handler]() mutable {
    on_ready(std::move(pkt), handler);
  });
}

void Aggregator::on_ready(std::shared_ptr<const Packet> pkt, u32 handler) {
  const SimTime t = now();
  if (completed_.contains(pkt->hdr.block_id) || !admit(*pkt, t)) {
    stats_.duplicates_dropped += 1;
    host_.handler_done(handler, t);
    return;
  }
  accept(Waiter{std::move(pkt), t, handler});
}

void Aggregator::run_on_slot(u32, u32, Waiter, SimTime) {
  FLARE_UNREACHABLE("policy without working slots");
}

void Aggregator::acquire(SlotQueue& slots, u32 block_id, Waiter&& w) {
  const u32 slot = slots.claim();
  if (slot == SlotQueue::kNone) {
    slots.wait(std::move(w));  // spin until a slot frees (FIFO hand-over)
    return;
  }
  const SimTime start = w.enqueued_at;
  stats_.cs_wait_cycles.add(0.0);  // an idle slot: no spin
  run_on_slot(block_id, slot, std::move(w), start);
}

void Aggregator::release(SlotQueue& slots, u32 block_id, u32 slot,
                         SimTime t) {
  Waiter w;
  if (!slots.pop(w)) {
    slots.free(slot);
    return;
  }
  stats_.cs_wait_cycles.add(static_cast<f64>(t - w.enqueued_at));
  run_on_slot(block_id, slot, std::move(w), t);
}

void Aggregator::emit(Packet&& out, SimTime when) {
  stats_.packets_emitted += 1;
  stats_.bytes_emitted += out.wire_bytes();
  host_.emit(std::move(out), when);
}

void Aggregator::close_block(u32 block_id, SimTime first_arrival,
                             SimTime end, u64 mem_bytes) {
  stats_.blocks_completed += 1;
  stats_.block_latency.add(static_cast<f64>(end - first_arrival));
  stats_.block_mem_bytes.add(static_cast<f64>(mem_bytes));
  completed_.insert(block_id);
}

void Aggregator::release_at(SimTime t, u64 bytes) {
  at(t, [this, bytes] { pool_.release(bytes, now()); });
}

// ===========================================================================
// SingleBufferAggregator
// ===========================================================================

bool SingleBufferAggregator::admit(const Packet& pkt, SimTime now) {
  Block& blk = entry(blocks_, pkt.hdr.block_id);
  if (!blk.open()) {
    blk.bitmap.reset(cfg_.num_children);
    // Not zeroed: the first packet's copy writes every byte that is read.
    blk.buf.resize(cfg_.dense_block_bytes());
    blk.first_arrival = now;
    blk.cs.reset(1);
    const bool ok = pool_.acquire(cfg_.dense_block_bytes(), now);
    FLARE_ASSERT_MSG(ok, "working-memory pool exhausted (host window too "
                         "large for the allocated buffers)");
  }
  return blk.bitmap.mark(pkt.hdr.child_index);
}

void SingleBufferAggregator::accept(Waiter w) {
  const u32 bid = w.pkt->hdr.block_id;
  acquire(blocks_[bid].cs, bid, std::move(w));
}

void SingleBufferAggregator::run_on_slot(u32 block_id, u32 /*slot*/,
                                         Waiter w, SimTime start) {
  Block& blk = blocks_[block_id];
  const Packet& pkt = *w.pkt;
  const auto& costs = host_.costs();
  const u32 elems = pkt.hdr.elem_count;
  FLARE_ASSERT(pkt.payload.size() ==
               static_cast<std::size_t>(elems) * dtype_size(cfg_.dtype));

  u64 work;
  if (!blk.has_data) {
    // First packet of the block: plain buffer initialization via DMA.
    // (Barrier blocks are 0-byte; memcpy must not see a null source.)
    if (!pkt.payload.empty()) {
      std::memcpy(blk.buf.data(), pkt.payload.data(), pkt.payload.size());
    }
    blk.has_data = true;
    work = costs.dma_packet_cycles;
  } else {
    cfg_.op.apply(cfg_.dtype, blk.buf.data(), pkt.payload.data(), elems);
    work = costs.aggregation_cycles(cfg_.dtype, elems, cfg_.remote_l1);
  }

  blk.aggregated += 1;
  SimTime end = start + work;
  if (blk.aggregated == cfg_.num_children) {
    FLARE_ASSERT(blk.bitmap.complete());
    end += costs.emit_packet_cycles;
    emit(make_result_packet(cfg_, block_id, std::move(blk.buf), elems), end);
    close_block(block_id, blk.first_arrival, end, cfg_.dense_block_bytes());
  }
  // Leave the critical section: the lock hands over to the next spinning
  // handler, or frees; a completed block's buffer goes back to the pool.
  at(end, [this, block_id] {
    release(blocks_[block_id].cs, block_id, 0, now());
    Block& b = blocks_[block_id];
    if (!b.cs.busy(0) && completed_.contains(block_id)) {
      pool_.release(cfg_.dense_block_bytes(), now());
      b.close();
    }
  });
  host_.handler_done(w.handler, end);
}

// ===========================================================================
// MultiBufferAggregator
// ===========================================================================

bool MultiBufferAggregator::admit(const Packet& pkt, SimTime now) {
  Block& blk = entry(blocks_, pkt.hdr.block_id);
  if (!blk.open()) {
    blk.bitmap.reset(cfg_.num_children);
    blk.subs.resize(cfg_.num_buffers);
    blk.slots.reset(cfg_.num_buffers);
    blk.first_arrival = now;
  }
  return blk.bitmap.mark(pkt.hdr.child_index);
}

void MultiBufferAggregator::accept(Waiter w) {
  const u32 bid = w.pkt->hdr.block_id;
  acquire(blocks_[bid].slots, bid, std::move(w));
}

void MultiBufferAggregator::run_on_slot(u32 block_id, u32 sub_idx, Waiter w,
                                        SimTime start) {
  Block& blk = blocks_[block_id];
  Sub& s = blk.subs[sub_idx];
  const Packet& pkt = *w.pkt;
  const auto& costs = host_.costs();
  const u32 elems = pkt.hdr.elem_count;
  FLARE_ASSERT(pkt.payload.size() ==
               static_cast<std::size_t>(elems) * dtype_size(cfg_.dtype));

  if (blk.elems == 0) blk.elems = elems;
  u64 work;
  if (!s.allocated) {
    const bool ok = pool_.acquire(cfg_.dense_block_bytes(), start);
    FLARE_ASSERT_MSG(ok, "working-memory pool exhausted");
    s.buf.resize(cfg_.dense_block_bytes());  // written by the copy below
    s.allocated = true;
    u32 allocated = 0;
    for (const Sub& sub : blk.subs)
      if (sub.allocated) ++allocated;
    blk.max_allocated = std::max(blk.max_allocated, allocated);
  }
  if (!s.has_data) {
    if (!pkt.payload.empty()) {
      std::memcpy(s.buf.data(), pkt.payload.data(), pkt.payload.size());
    }
    s.has_data = true;
    work = costs.dma_packet_cycles;
  } else {
    cfg_.op.apply(cfg_.dtype, s.buf.data(), pkt.payload.data(), elems);
    work = costs.aggregation_cycles(cfg_.dtype, elems, cfg_.remote_l1);
  }

  at(start + work, [this, block_id, sub_idx, handler = w.handler] {
    Block& b = blocks_[block_id];
    b.aggregated += 1;
    const SimTime t = now();
    if (b.aggregated == cfg_.num_children && b.bitmap.complete()) {
      // Causally-last handler: fold the partial buffers (Section 6.2).
      merge_chain(block_id, sub_idx, t, handler);
    } else {
      release(b.slots, block_id, sub_idx, t);
      host_.handler_done(handler, t);
    }
  });
}

void MultiBufferAggregator::merge_chain(u32 block_id, u32 my_sub, SimTime t,
                                        u32 handler) {
  Block& blk = blocks_[block_id];
  // By construction no other handler is active on this block (aggregated ==
  // P), so the remaining buffers are idle and can be folded sequentially.
  for (u32 j = 0; j < blk.subs.size(); ++j) {
    if (j == my_sub) continue;
    FLARE_ASSERT_MSG(!blk.slots.busy(j), "merge with an active buffer");
    if (!blk.subs[j].has_data) continue;
    const u64 merge_cost =
        host_.costs().aggregation_cycles(cfg_.dtype, blk.elems, cfg_.remote_l1);
    at(t + merge_cost, [this, block_id, my_sub, j, handler] {
      Block& b = blocks_[block_id];
      cfg_.op.apply(cfg_.dtype, b.subs[my_sub].buf.data(),
                    b.subs[j].buf.data(), b.elems);
      b.subs[j] = Sub();
      pool_.release(cfg_.dense_block_bytes(), now());
      merge_chain(block_id, my_sub, now(), handler);
    });
    return;
  }
  finish_block(block_id, my_sub, t, handler);
}

void MultiBufferAggregator::finish_block(u32 block_id, u32 my_sub, SimTime t,
                                         u32 handler) {
  Block& blk = blocks_[block_id];
  const SimTime end = t + host_.costs().emit_packet_cycles;
  emit(make_result_packet(cfg_, block_id, std::move(blk.subs[my_sub].buf),
                          blk.elems),
       end);
  release_at(end, cfg_.dense_block_bytes());
  close_block(block_id, blk.first_arrival, end,
              u64{blk.max_allocated} * cfg_.dense_block_bytes());
  blk.close();
  host_.handler_done(handler, end);
}

// ===========================================================================
// TreeAggregator
// ===========================================================================

TreeAggregator::TreeShape TreeAggregator::build_shape(u32 p) {
  FLARE_ASSERT(p >= 1);
  TreeShape shape;
  // Recursive balanced split with a FIXED midpoint: the association (and the
  // left/right operand order) never depends on arrival order, which is what
  // makes the floating-point result bitwise reproducible (F3).
  struct Builder {
    TreeShape& s;
    u32 build(u32 lo, u32 hi, i32 parent) {
      const u32 idx = static_cast<u32>(s.nodes.size());
      s.nodes.push_back({lo, hi, -1, -1, parent});
      if (hi - lo == 1) {
        s.leaves[lo] = idx;
      } else {
        const u32 mid = lo + (hi - lo + 1) / 2;
        const u32 l = build(lo, mid, static_cast<i32>(idx));
        const u32 r = build(mid, hi, static_cast<i32>(idx));
        s.nodes[idx].left = static_cast<i32>(l);
        s.nodes[idx].right = static_cast<i32>(r);
      }
      return idx;
    }
  };
  shape.leaves.resize(p);
  Builder{shape}.build(0, p, -1);
  return shape;
}

const TreeAggregator::TreeShape& TreeAggregator::shape_for(u32 p) {
  // Indexed by child count.  The simulator is single-threaded, and a
  // shape never moves once built, so engines keep plain references.
  static std::vector<std::unique_ptr<const TreeShape>> shapes;
  if (p >= shapes.size()) shapes.resize(p + 1);
  if (!shapes[p]) shapes[p] = std::make_unique<const TreeShape>(build_shape(p));
  return *shapes[p];
}

bool TreeAggregator::admit(const Packet& pkt, SimTime now) {
  Block& blk = entry(blocks_, pkt.hdr.block_id);
  if (!blk.open()) {
    blk.bitmap.reset(cfg_.num_children);
    blk.nodes.resize(shape_.nodes.size());
    blk.first_arrival = now;
  }
  return blk.bitmap.mark(pkt.hdr.child_index);
}

void TreeAggregator::accept(Waiter w) {
  const Packet& pkt = *w.pkt;
  const u32 bid = pkt.hdr.block_id;
  Block& blk = blocks_[bid];
  const u32 elems = pkt.hdr.elem_count;
  FLARE_ASSERT(pkt.payload.size() ==
               static_cast<std::size_t>(elems) * dtype_size(cfg_.dtype));
  if (blk.elems == 0) blk.elems = elems;

  const u32 leaf = shape_.leaf_of(pkt.hdr.child_index);
  const bool ok = pool_.acquire(cfg_.dense_block_bytes(), w.enqueued_at);
  FLARE_ASSERT_MSG(ok, "working-memory pool exhausted");
  blk.alive_buffers += 1;
  blk.max_alive = std::max(blk.max_alive, blk.alive_buffers);
  blk.nodes[leaf].buf = copy_payload(pkt.payload);

  // The copy is DMA-assisted (64 cycles, Section 6.3) — far cheaper than the
  // 1024-cycle aggregation, which is the whole point of the tree design.
  const SimTime copy_done = w.enqueued_at + host_.costs().dma_packet_cycles;
  at(copy_done, [this, bid, leaf, handler = w.handler] {
    open_block(bid).nodes[leaf].done = true;
    climb(bid, leaf, now(), handler);
  });
}

void TreeAggregator::climb(u32 block_id, u32 node, SimTime t, u32 handler) {
  Block& blk = open_block(block_id);
  const i32 parent = shape_.nodes[node].parent;
  if (parent < 0) {
    // `node` is the root and it is done: emit the block result.
    complete_root(block_id, t, handler);
    return;
  }
  const auto& pn = shape_.nodes[static_cast<u32>(parent)];
  const u32 sibling = (static_cast<u32>(pn.left) == node)
                          ? static_cast<u32>(pn.right)
                          : static_cast<u32>(pn.left);
  NodeState& sib = blk.nodes[sibling];
  NodeState& par = blk.nodes[static_cast<u32>(parent)];
  if (!sib.done || par.claimed) {
    // Sibling subtree not ready (its handler will continue the climb) or
    // another handler already owns this combine: terminate without waiting.
    host_.handler_done(handler, t);
    return;
  }
  par.claimed = true;
  const u64 combine_cost =
      host_.costs().aggregation_cycles(cfg_.dtype, blk.elems, cfg_.remote_l1);
  at(t + combine_cost, [this, block_id, parent, handler] {
    Block& b = open_block(block_id);
    const auto& p = shape_.nodes[static_cast<u32>(parent)];
    NodeState& left = b.nodes[static_cast<u32>(p.left)];
    NodeState& right = b.nodes[static_cast<u32>(p.right)];
    // Fixed operand order: parent = op(left, right).
    cfg_.op.apply(cfg_.dtype, left.buf.data(), right.buf.data(), b.elems);
    NodeState& par2 = b.nodes[static_cast<u32>(parent)];
    par2.buf = std::move(left.buf);
    left.buf = {};
    right.buf = {};
    pool_.release(cfg_.dense_block_bytes(), now());
    b.alive_buffers -= 1;
    par2.done = true;
    climb(block_id, static_cast<u32>(parent), now(), handler);
  });
}

void TreeAggregator::complete_root(u32 block_id, SimTime t, u32 handler) {
  Block& blk = open_block(block_id);
  const SimTime end = t + host_.costs().emit_packet_cycles;
  emit(make_result_packet(cfg_, block_id, std::move(blk.nodes[0].buf),
                          blk.elems),
       end);
  release_at(end, cfg_.dense_block_bytes());
  close_block(block_id, blk.first_arrival, end,
              u64{blk.max_alive} * cfg_.dense_block_bytes());
  blk.close();
  host_.handler_done(handler, end);
}

// ===========================================================================

std::unique_ptr<Aggregator> make_dense_aggregator(EngineHost& host,
                                                  const AllreduceConfig& cfg,
                                                  BufferPool& pool) {
  FLARE_ASSERT_MSG(!cfg.sparse, "use make_sparse_aggregator");
  switch (cfg.policy) {
    case AggPolicy::kSingleBuffer:
      return std::make_unique<SingleBufferAggregator>(host, cfg, pool);
    case AggPolicy::kMultiBuffer:
      return std::make_unique<MultiBufferAggregator>(host, cfg, pool);
    case AggPolicy::kTree:
      return std::make_unique<TreeAggregator>(host, cfg, pool);
  }
  FLARE_UNREACHABLE("unknown policy");
}

}  // namespace flare::core
