#include "core/dense_policies.hpp"

#include <algorithm>
#include <cstring>

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
// SingleBufferAggregator
// ===========================================================================

SingleBufferAggregator::SingleBufferAggregator(EngineHost& host,
                                               const AllreduceConfig& cfg,
                                               BufferPool& pool)
    : host_(host), cfg_(cfg), pool_(pool) {
  FLARE_ASSERT(cfg_.num_children >= 1);
}

SingleBufferAggregator::Block& SingleBufferAggregator::get_block(
    u32 block_id, SimTime now) {
  auto [it, inserted] = blocks_.try_emplace(block_id);
  Block& blk = it->second;
  if (inserted) {
    blk.bitmap.reset(cfg_.num_children);
    blk.buf.resize(cfg_.dense_block_bytes());
    blk.first_arrival = now;
    const bool ok = pool_.acquire(cfg_.dense_block_bytes(), now);
    FLARE_ASSERT_MSG(ok, "working-memory pool exhausted (host window too "
                         "large for the allocated buffers)");
  }
  return blk;
}

void SingleBufferAggregator::reset() {
  FLARE_ASSERT_MSG(blocks_.empty(),
                   "reset with open blocks: packets still in flight");
  completed_.clear();
}

void SingleBufferAggregator::process(std::shared_ptr<const Packet> pkt,
                                     HandlerDone done) {
  stats_.packets_in += 1;
  stats_.payload_bytes_in += pkt->payload_bytes();
  const auto& costs = host_.costs();
  const u64 pre = costs.handler_dispatch_cycles + costs.dma_packet_cycles;
  host_.simulator().schedule_after(
      pre, [this, pkt = std::move(pkt), done = std::move(done)]() mutable {
        on_ready(std::move(pkt), std::move(done));
      });
}

void SingleBufferAggregator::on_ready(std::shared_ptr<const Packet> pkt,
                                      HandlerDone done) {
  sim::Simulator& sim = host_.simulator();
  const SimTime now = sim.now();
  const u32 bid = pkt->hdr.block_id;
  if (completed_.contains(bid)) {
    stats_.duplicates_dropped += 1;
    done(now);
    return;
  }
  Block& blk = get_block(bid, now);
  if (!blk.bitmap.mark(pkt->hdr.child_index)) {
    stats_.duplicates_dropped += 1;
    done(now);
    return;
  }
  if (!blk.cs_busy) {
    blk.cs_busy = true;
    in_critical_section(bid, std::move(pkt), now, now, std::move(done));
  } else {
    blk.waiters.emplace_back(
        [this, bid, pkt = std::move(pkt), now,
         done = std::move(done)](SimTime start) mutable {
          in_critical_section(bid, std::move(pkt), now, start,
                              std::move(done));
        });
  }
}

void SingleBufferAggregator::in_critical_section(
    u32 block_id, std::shared_ptr<const Packet> pkt, SimTime enqueued_at,
    SimTime start, HandlerDone done) {
  Block& blk = blocks_.at(block_id);
  stats_.cs_wait_cycles.add(static_cast<f64>(start - enqueued_at));
  const auto& costs = host_.costs();
  const u32 elems = pkt->hdr.elem_count;
  FLARE_ASSERT(pkt->payload.size() ==
               static_cast<std::size_t>(elems) * dtype_size(cfg_.dtype));

  u64 work;
  if (!blk.has_data) {
    // First packet of the block: plain buffer initialization via DMA.
    // (Barrier blocks are 0-byte; memcpy must not see a null source.)
    if (!pkt->payload.empty()) {
      std::memcpy(blk.buf.data(), pkt->payload.data(),
                  pkt->payload.size());
    }
    blk.has_data = true;
    work = costs.dma_packet_cycles;
  } else {
    cfg_.op.apply(cfg_.dtype, blk.buf.data(), pkt->payload.data(), elems);
    work = costs.aggregation_cycles(cfg_.dtype, elems, cfg_.remote_l1);
  }

  blk.aggregated += 1;
  SimTime end = start + work;
  if (blk.aggregated == cfg_.num_children) {
    FLARE_ASSERT(blk.bitmap.complete());
    end += costs.emit_packet_cycles;
    Packet out =
        make_result_packet(cfg_, block_id, std::move(blk.buf), elems);
    stats_.packets_emitted += 1;
    stats_.bytes_emitted += out.wire_bytes();
    stats_.blocks_completed += 1;
    stats_.block_latency.add(static_cast<f64>(end - blk.first_arrival));
    stats_.block_mem_bytes.add(static_cast<f64>(cfg_.dense_block_bytes()));
    blk.completed = true;
    host_.emit(std::move(out), end);
  }
  leave_cs(block_id, end);
  done(end);
}

void SingleBufferAggregator::leave_cs(u32 block_id, SimTime end) {
  host_.simulator().schedule_at(end, [this, block_id] {
    auto it = blocks_.find(block_id);
    if (it == blocks_.end()) return;
    Block& blk = it->second;
    if (!blk.waiters.empty()) {
      auto fn = std::move(blk.waiters.front());
      blk.waiters.pop_front();
      fn(host_.simulator().now());  // lock hands over; cs_busy stays true
      return;
    }
    blk.cs_busy = false;
    if (blk.completed) {
      pool_.release(cfg_.dense_block_bytes(), host_.simulator().now());
      completed_.insert(block_id);
      blocks_.erase(it);
    }
  });
}

// ===========================================================================
// MultiBufferAggregator
// ===========================================================================

MultiBufferAggregator::MultiBufferAggregator(EngineHost& host,
                                             const AllreduceConfig& cfg,
                                             BufferPool& pool)
    : host_(host), cfg_(cfg), pool_(pool) {
  FLARE_ASSERT(cfg_.num_children >= 1);
  FLARE_ASSERT_MSG(cfg_.num_buffers >= 1, "multi-buffer needs B >= 1");
}

MultiBufferAggregator::Block& MultiBufferAggregator::get_block(u32 block_id,
                                                               SimTime now) {
  auto [it, inserted] = blocks_.try_emplace(block_id);
  Block& blk = it->second;
  if (inserted) {
    blk.bitmap.reset(cfg_.num_children);
    blk.subs.resize(cfg_.num_buffers);
    blk.first_arrival = now;
  }
  return blk;
}

void MultiBufferAggregator::reset() {
  FLARE_ASSERT_MSG(blocks_.empty(),
                   "reset with open blocks: packets still in flight");
  completed_.clear();
}

void MultiBufferAggregator::process(std::shared_ptr<const Packet> pkt,
                                    HandlerDone done) {
  stats_.packets_in += 1;
  stats_.payload_bytes_in += pkt->payload_bytes();
  const auto& costs = host_.costs();
  const u64 pre = costs.handler_dispatch_cycles + costs.dma_packet_cycles;
  host_.simulator().schedule_after(
      pre, [this, pkt = std::move(pkt), done = std::move(done)]() mutable {
        on_ready(std::move(pkt), std::move(done));
      });
}

void MultiBufferAggregator::on_ready(std::shared_ptr<const Packet> pkt,
                                     HandlerDone done) {
  sim::Simulator& sim = host_.simulator();
  const SimTime now = sim.now();
  const u32 bid = pkt->hdr.block_id;
  if (completed_.contains(bid)) {
    stats_.duplicates_dropped += 1;
    done(now);
    return;
  }
  Block& blk = get_block(bid, now);
  if (!blk.bitmap.mark(pkt->hdr.child_index)) {
    stats_.duplicates_dropped += 1;
    done(now);
    return;
  }
  for (u32 i = 0; i < blk.subs.size(); ++i) {
    if (!blk.subs[i].busy) {
      blk.subs[i].busy = true;
      run_on_sub(bid, i, std::move(pkt), now, now, std::move(done));
      return;
    }
  }
  // All B buffers locked: spin until one frees (FIFO hand-over).
  blk.waiters.emplace_back(
      [this, bid, pkt = std::move(pkt), now,
       done = std::move(done)](SimTime start, u32 sub) mutable {
        run_on_sub(bid, sub, std::move(pkt), now, start, std::move(done));
      });
}

void MultiBufferAggregator::run_on_sub(u32 block_id, u32 sub_idx,
                                       std::shared_ptr<const Packet> pkt,
                                       SimTime enqueued_at, SimTime start,
                                       HandlerDone done) {
  Block& blk = blocks_.at(block_id);
  Sub& s = blk.subs[sub_idx];
  stats_.cs_wait_cycles.add(static_cast<f64>(start - enqueued_at));
  const auto& costs = host_.costs();
  const u32 elems = pkt->hdr.elem_count;
  FLARE_ASSERT(pkt->payload.size() ==
               static_cast<std::size_t>(elems) * dtype_size(cfg_.dtype));

  if (blk.elems == 0) blk.elems = elems;
  u64 work;
  if (!s.allocated) {
    const bool ok = pool_.acquire(cfg_.dense_block_bytes(), start);
    FLARE_ASSERT_MSG(ok, "working-memory pool exhausted");
    s.buf.resize(cfg_.dense_block_bytes());
    s.allocated = true;
    u32 allocated = 0;
    for (const Sub& sub : blk.subs)
      if (sub.allocated) ++allocated;
    blk.max_allocated = std::max(blk.max_allocated, allocated);
  }
  if (!s.has_data) {
    if (!pkt->payload.empty()) {
      std::memcpy(s.buf.data(), pkt->payload.data(), pkt->payload.size());
    }
    s.has_data = true;
    work = costs.dma_packet_cycles;
  } else {
    cfg_.op.apply(cfg_.dtype, s.buf.data(), pkt->payload.data(), elems);
    work = costs.aggregation_cycles(cfg_.dtype, elems, cfg_.remote_l1);
  }

  const SimTime end = start + work;
  host_.simulator().schedule_at(
      end, [this, block_id, sub_idx, done = std::move(done)]() mutable {
        Block& b = blocks_.at(block_id);
        b.aggregated += 1;
        const SimTime now = host_.simulator().now();
        if (b.aggregated == cfg_.num_children && b.bitmap.complete()) {
          // Causally-last handler: fold the partial buffers (Section 6.2).
          merge_chain(block_id, sub_idx, now, std::move(done));
        } else {
          release_sub(block_id, sub_idx, now);
          done(now);
        }
      });
}

void MultiBufferAggregator::release_sub(u32 block_id, u32 sub_idx,
                                        SimTime at) {
  Block& blk = blocks_.at(block_id);
  if (!blk.waiters.empty()) {
    auto fn = std::move(blk.waiters.front());
    blk.waiters.pop_front();
    fn(at, sub_idx);  // buffer hands over while staying busy
    return;
  }
  blk.subs[sub_idx].busy = false;
}

void MultiBufferAggregator::merge_chain(u32 block_id, u32 my_sub, SimTime t,
                                        HandlerDone done) {
  Block& blk = blocks_.at(block_id);
  // By construction no other handler is active on this block (aggregated ==
  // P), so the remaining buffers are idle and can be folded sequentially.
  for (u32 j = 0; j < blk.subs.size(); ++j) {
    if (j == my_sub) continue;
    Sub& s = blk.subs[j];
    FLARE_ASSERT_MSG(!s.busy, "merge with an active buffer");
    if (!s.has_data) continue;
    const u64 merge_cost =
        host_.costs().aggregation_cycles(cfg_.dtype, blk.elems, cfg_.remote_l1);
    host_.simulator().schedule_at(
        t + merge_cost,
        [this, block_id, my_sub, j, done = std::move(done)]() mutable {
          Block& b = blocks_.at(block_id);
          cfg_.op.apply(cfg_.dtype, b.subs[my_sub].buf.data(),
                        b.subs[j].buf.data(), b.elems);
          b.subs[j].has_data = false;
          b.subs[j].allocated = false;
          b.subs[j].buf = {};
          pool_.release(cfg_.dense_block_bytes(), host_.simulator().now());
          merge_chain(block_id, my_sub, host_.simulator().now(),
                      std::move(done));
        });
    return;
  }
  finish_block(block_id, my_sub, t, std::move(done));
}

void MultiBufferAggregator::finish_block(u32 block_id, u32 my_sub, SimTime t,
                                         HandlerDone done) {
  Block& blk = blocks_.at(block_id);
  const SimTime end = t + host_.costs().emit_packet_cycles;
  stats_.block_mem_bytes.add(static_cast<f64>(blk.max_allocated) *
                             static_cast<f64>(cfg_.dense_block_bytes()));
  Packet out = make_result_packet(cfg_, block_id,
                                  std::move(blk.subs[my_sub].buf), blk.elems);
  stats_.packets_emitted += 1;
  stats_.bytes_emitted += out.wire_bytes();
  stats_.blocks_completed += 1;
  stats_.block_latency.add(static_cast<f64>(end - blk.first_arrival));
  host_.emit(std::move(out), end);
  host_.simulator().schedule_at(end, [this] {
    pool_.release(cfg_.dense_block_bytes(), host_.simulator().now());
  });
  completed_.insert(block_id);
  blocks_.erase(block_id);
  done(end);
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

TreeAggregator::TreeAggregator(EngineHost& host, const AllreduceConfig& cfg,
                               BufferPool& pool)
    : host_(host), cfg_(cfg), pool_(pool),
      shape_(build_shape(cfg.num_children)) {}

TreeAggregator::Block& TreeAggregator::get_block(u32 block_id, SimTime now) {
  if (block_id >= blocks_.size()) blocks_.resize(block_id + 1);
  Block& blk = blocks_[block_id];
  if (blk.nodes.empty()) {
    blk.bitmap.reset(cfg_.num_children);
    blk.nodes.resize(shape_.nodes.size());
    blk.first_arrival = now;
  }
  return blk;
}

void TreeAggregator::reset() {
  FLARE_ASSERT_MSG(std::all_of(blocks_.begin(), blocks_.end(),
                               [](const Block& b) { return b.nodes.empty(); }),
                   "reset with open blocks: packets still in flight");
  blocks_.clear();
  completed_.clear();
}

void TreeAggregator::process(std::shared_ptr<const Packet> pkt,
                             HandlerDone done) {
  stats_.packets_in += 1;
  stats_.payload_bytes_in += pkt->payload_bytes();
  const auto& costs = host_.costs();
  const u64 pre = costs.handler_dispatch_cycles + costs.dma_packet_cycles;
  host_.simulator().schedule_after(
      pre, [this, pkt = std::move(pkt), done = std::move(done)]() mutable {
        on_ready(std::move(pkt), std::move(done));
      });
}

void TreeAggregator::on_ready(std::shared_ptr<const Packet> pkt,
                              HandlerDone done) {
  sim::Simulator& sim = host_.simulator();
  const SimTime now = sim.now();
  const u32 bid = pkt->hdr.block_id;
  if (completed_.contains(bid)) {
    stats_.duplicates_dropped += 1;
    done(now);
    return;
  }
  Block& blk = get_block(bid, now);
  const u32 child = pkt->hdr.child_index;
  if (!blk.bitmap.mark(child)) {
    stats_.duplicates_dropped += 1;
    done(now);
    return;
  }
  const u32 elems = pkt->hdr.elem_count;
  FLARE_ASSERT(pkt->payload.size() ==
               static_cast<std::size_t>(elems) * dtype_size(cfg_.dtype));
  if (blk.elems == 0) blk.elems = elems;

  const u32 leaf = shape_.leaf_of(child);
  const bool ok = pool_.acquire(cfg_.dense_block_bytes(), now);
  FLARE_ASSERT_MSG(ok, "working-memory pool exhausted");
  blk.alive_buffers += 1;
  blk.max_alive = std::max(blk.max_alive, blk.alive_buffers);
  blk.nodes[leaf].buf = copy_payload(pkt->payload);

  // The copy is DMA-assisted (64 cycles, Section 6.3) — far cheaper than the
  // 1024-cycle aggregation, which is the whole point of the tree design.
  const SimTime copy_done = now + host_.costs().dma_packet_cycles;
  sim.schedule_at(copy_done, [this, bid, leaf, done = std::move(done)]() mutable {
    open_block(bid).nodes[leaf].done = true;
    climb(bid, leaf, host_.simulator().now(), std::move(done));
  });
}

void TreeAggregator::climb(u32 block_id, u32 node, SimTime t,
                           HandlerDone done) {
  Block& blk = open_block(block_id);
  const i32 parent = shape_.nodes[node].parent;
  if (parent < 0) {
    // `node` is the root and it is done: emit the block result.
    complete_root(block_id, t, std::move(done));
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
    done(t);
    return;
  }
  par.claimed = true;
  const u64 combine_cost =
      host_.costs().aggregation_cycles(cfg_.dtype, blk.elems, cfg_.remote_l1);
  host_.simulator().schedule_at(
      t + combine_cost,
      [this, block_id, parent, done = std::move(done)]() mutable {
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
        pool_.release(cfg_.dense_block_bytes(), host_.simulator().now());
        b.alive_buffers -= 1;
        par2.done = true;
        climb(block_id, static_cast<u32>(parent), host_.simulator().now(),
              std::move(done));
      });
}

void TreeAggregator::complete_root(u32 block_id, SimTime t,
                                   HandlerDone done) {
  Block& blk = open_block(block_id);
  const SimTime end = t + host_.costs().emit_packet_cycles;
  Packet out = make_result_packet(cfg_, block_id, std::move(blk.nodes[0].buf),
                                  blk.elems);
  stats_.packets_emitted += 1;
  stats_.bytes_emitted += out.wire_bytes();
  stats_.blocks_completed += 1;
  stats_.block_latency.add(static_cast<f64>(end - blk.first_arrival));
  stats_.block_mem_bytes.add(static_cast<f64>(blk.max_alive) *
                             static_cast<f64>(cfg_.dense_block_bytes()));
  host_.emit(std::move(out), end);
  host_.simulator().schedule_at(end, [this] {
    pool_.release(cfg_.dense_block_bytes(), host_.simulator().now());
  });
  completed_.insert(block_id);
  blk = Block();
  done(end);
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
