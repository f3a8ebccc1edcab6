// The aggregator chassis and the dense aggregation policies (Sections 6-7
// of the paper).
//
// `Aggregator` is the sPIN handler front end every policy, dense and
// sparse, runs on, written once:
//
//  * process(): counts the packet and charges handler dispatch + DMA;
//  * admission: a `BlockSet` of closed blocks, then the policy's per-block
//    open/mark hook (a ChildBitmap for dense, a SparseBlockTracker for
//    sparse); duplicates are counted and their handler released here;
//  * bookkeeping: `emit` for every result or spill packet, `close_block`
//    for the per-block completion stats and the dedup set;
//  * the FIFO hand-over of a block's working slots (one lock for the single
//    buffer, B buffers or B sparse stores): handlers that find every slot
//    busy queue as plain `Waiter` records and resume, in arrival order,
//    when a slot frees.
//
// Every continuation a policy schedules goes through `at`, which expires it
// if the engine is uninstalled first.  A handler ends by calling
// EngineHost::handler_done exactly once.
//
// Three organisations of the per-block working memory:
//
//  * SingleBufferAggregator (6.1): every packet of a block accumulates into
//    one shared buffer inside a critical section.  Handlers that find the
//    buffer locked spin (PsPIN handlers are never suspended), consuming
//    core cycles — the contention collapse for small messages in Figure 7.
//
//  * MultiBufferAggregator (6.2): B buffers per block; a handler grabs any
//    idle buffer, so the lock-collision probability drops ~B-fold, at the
//    price of the last handler sequentially folding the B-1 partial buffers.
//
//  * TreeAggregator (6.3): every packet is copied into its own leaf buffer
//    (cheap DMA), then partial results are combined pairwise up a FIXED
//    binary tree.  A handler only climbs when its sibling subtree is already
//    done, so no handler ever waits — and because the combine order never
//    exploits associativity or commutativity, floating-point results are
//    bitwise reproducible across arrival orders (F3).
//
// All are continuation-based state machines over the shared event calendar:
// every cycle charged is causally ordered, so lock waits, merge stalls and
// climb hand-offs happen at their true simulated times.  Per-block state is
// a vector indexed by block id (ids are dense per collective).  Like the
// switch's statically partitioned working memory (Section 4.3), an entry is
// reused from block to block: closing one resets it in place, and its
// vectors keep their capacity for the next block that opens under its id.
#pragma once

#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "core/block_state.hpp"
#include "core/buffer_pool.hpp"
#include "core/engine_host.hpp"
#include "core/policy.hpp"
#include "core/reduce_op.hpp"

namespace flare::core {

/// Static configuration of one installed allreduce on one switch.
struct AllreduceConfig {
  u32 id = 0;
  /// Attribution tag (Network::alloc_trace_id): stamped onto every packet
  /// this collective serializes so links can account busy-time per session.
  /// Stable across fresh-id reinstalls — only `id` churns on migration.
  /// 0 = untagged.
  u32 trace = 0;
  /// P: number of children of this switch in the reduction tree.
  u32 num_children = 1;
  DType dtype = DType::kFloat32;
  ReduceOp op{OpKind::kSum};
  /// N: elements per (dense) packet / block.
  u32 elems_per_packet = 256;
  AggPolicy policy = AggPolicy::kTree;
  u32 num_buffers = 1;  ///< B for the multi-buffer policy
  bool reproducible = false;
  /// Root of the reduction tree: results are flagged kFlagDown.
  bool is_root = true;
  /// Aggregation buffers live in a remote cluster's L1 (what happens
  /// WITHOUT hierarchical FCFS scheduling, Section 5): every access pays
  /// the up-to-25x penalty.  Used by the scheduler ablation.
  bool remote_l1 = false;

  /// Host-side fault recovery is armed (Tuning::retransmit_timeout_ps):
  /// switches cache every completed block's emission sequence, dense or
  /// sparse, for retransmission replay only when someone can actually ask
  /// for them.
  bool fault_recovery = false;

  // --- sparse allreduce (Section 7) ---
  bool sparse = false;
  bool hash_storage = true;     ///< hash+spill if true, contiguous array else
  u32 block_span = 0;           ///< elements of index space per sparse block
  u32 pairs_per_packet = 128;   ///< MTU budget in (index, value) pairs
  u32 hash_capacity_pairs = 256;
  u32 spill_capacity_pairs = 64;

  u64 dense_block_bytes() const {
    return static_cast<u64>(elems_per_packet) * dtype_size(dtype);
  }
};

/// Counters shared by all aggregator implementations.
struct EngineStats {
  u64 packets_in = 0;
  u64 payload_bytes_in = 0;
  u64 duplicates_dropped = 0;
  u64 blocks_completed = 0;
  u64 packets_emitted = 0;
  u64 bytes_emitted = 0;        ///< wire bytes of emitted packets
  u64 spill_packets = 0;
  u64 spill_pairs = 0;
  RunningStats block_latency;   ///< cycles, first packet arrival -> emit
  RunningStats block_mem_bytes; ///< working-memory footprint per block
  RunningStats cs_wait_cycles;  ///< per-handler critical-section spin time
};

/// A handler waiting for a working slot of its block: its packet, the time
/// it started waiting, and the host's handler id.
struct Waiter {
  std::shared_ptr<const Packet> pkt;
  SimTime enqueued_at = 0;
  u32 handler = 0;
};

/// The B interchangeable working slots of one block (the single buffer's
/// lock, the multi-buffer's B buffers, the sparse engine's B stores) and
/// the FIFO of handlers spinning until one frees.  Default-constructed it
/// owns no memory.
class SlotQueue {
 public:
  static constexpr u32 kNone = UINT32_MAX;

  void reset(u32 slots) {
    FLARE_ASSERT_MSG(slots >= 1 && slots <= 64, "1..64 slots per block");
    n_ = slots;
    busy_ = 0;
  }
  bool busy(u32 slot) const { return (busy_ >> slot) & 1u; }
  /// Claims the lowest idle slot, or returns kNone if all are busy.
  u32 claim() {
    for (u32 i = 0; i < n_; ++i) {
      if (!busy(i)) {
        busy_ |= 1ull << i;
        return i;
      }
    }
    return kNone;
  }
  void wait(Waiter&& w) { waiters_.push_back(std::move(w)); }
  /// Takes the oldest waiter into `out`; false if none waits.
  bool pop(Waiter& out) {
    if (head_ == waiters_.size()) return false;
    out = std::move(waiters_[head_++]);
    if (head_ == waiters_.size()) {
      waiters_.clear();
      head_ = 0;
    }
    return true;
  }
  void free(u32 slot) { busy_ &= ~(1ull << slot); }

 private:
  u32 n_ = 0;
  u64 busy_ = 0;
  std::vector<Waiter> waiters_;
  std::size_t head_ = 0;
};

/// The handler front end shared by every aggregation policy, driven by the
/// hosting simulator.
class Aggregator {
 public:
  virtual ~Aggregator() = default;
  Aggregator(const Aggregator&) = delete;  // calendar events hold `this`
  Aggregator& operator=(const Aggregator&) = delete;

  /// An HPU core *starts* handler `handler` (an id of the host's choosing)
  /// for `pkt`.  The aggregator charges dispatch/DMA/aggregation cycles on
  /// the event calendar and reports the core-release time through
  /// EngineHost::handler_done.
  void process(std::shared_ptr<const Packet> pkt, u32 handler);

  /// Clears per-iteration block state (open blocks + completed-block
  /// dedup set) so an installed engine can serve the next iteration of a
  /// persistent collective with the same block ids.  Must only be called
  /// between iterations.  Cumulative stats are preserved.
  void reset() {
    clear_blocks();
    completed_.clear();
  }

  const EngineStats& stats() const { return stats_; }
  EngineStats& stats() { return stats_; }

 protected:
  Aggregator(EngineHost& host, const AllreduceConfig& cfg, BufferPool& pool)
      : host_(host), cfg_(cfg), pool_(pool) {
    FLARE_ASSERT(cfg_.num_children >= 1);
  }

  // --- policy hooks ---
  /// Opens `pkt`'s block if it is closed and marks the packet's child (or
  /// shard) in it.  Returns false for a duplicate.
  virtual bool admit(const Packet& pkt, SimTime now) = 0;
  /// Starts the aggregation work of a fresh packet.
  virtual void accept(Waiter w) = 0;
  /// Runs `w` on `slot` of `block_id`, which it holds from `start`.  Only
  /// the slot policies (single, multi, sparse) acquire slots.
  virtual void run_on_slot(u32 block_id, u32 slot, Waiter w, SimTime start);
  /// Clears the per-block state (Aggregator::reset).  Open blocks at reset
  /// time are in-flight packets: the dense policies treat them as a
  /// protocol bug, and keep their (all-closed) table for reuse.
  virtual void clear_blocks() = 0;

  // --- chassis services ---
  SimTime now() { return host_.simulator().now(); }
  /// Schedules a continuation at `t`.  The recovery plane can uninstall
  /// (destroy) an engine while its events are queued: they then expire
  /// instead of touching the dead engine.
  template <typename F>
  void at(SimTime t, F&& fn) {
    host_.simulator().schedule_at(
        t, [alive = std::weak_ptr<char>(alive_),
            fn = std::forward<F>(fn)]() mutable {
          if (!alive.expired()) fn();
        });
  }
  /// Runs `w` on an idle slot of `slots`, or queues it until one frees.
  void acquire(SlotQueue& slots, u32 block_id, Waiter&& w);
  /// Hands `slot` over to the oldest waiter at `t` (the slot stays
  /// busy), or idles it.
  void release(SlotQueue& slots, u32 block_id, u32 slot, SimTime t);
  /// Sends a block result or spill packet leaving the unit at `when`.
  void emit(Packet&& out, SimTime when);
  /// Records `block_id`'s completion at `end`: latency from its first
  /// arrival, its working-memory footprint, and the dedup set.
  void close_block(u32 block_id, SimTime first_arrival, SimTime end,
                   u64 mem_bytes);
  /// Returns `bytes` of working memory to the pool at `t`.
  void release_at(SimTime t, u64 bytes);
  /// `blocks[block_id]`, growing the table on demand.
  template <typename Block>
  static Block& entry(std::vector<Block>& blocks, u32 block_id) {
    if (block_id >= blocks.size()) blocks.resize(block_id + 1);
    return blocks[block_id];
  }
  /// Asserts that no block is open.  The closed entries stay: the next
  /// iteration reopens the same block ids in their storage.
  template <typename Block>
  static void check_closed(const std::vector<Block>& blocks) {
    for (const Block& b : blocks) {
      FLARE_ASSERT_MSG(!b.open(),
                       "reset with open blocks: packets still in flight");
    }
  }

  EngineHost& host_;
  AllreduceConfig cfg_;
  BufferPool& pool_;
  EngineStats stats_;
  BlockSet completed_;

 private:
  void on_ready(std::shared_ptr<const Packet> pkt, u32 handler);

  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
};

// ---------------------------------------------------------------------------

class SingleBufferAggregator final : public Aggregator {
 public:
  SingleBufferAggregator(EngineHost& host, const AllreduceConfig& cfg,
                         BufferPool& pool)
      : Aggregator(host, cfg, pool) {}

 private:
  struct Block {
    PayloadVec buf;
    ChildBitmap bitmap;
    u32 aggregated = 0;  ///< packets folded into the buffer so far; the
                         ///< bitmap marks arrivals, but completion requires
                         ///< the aggregation work itself to have run
    bool has_data = false;
    SimTime first_arrival = 0;
    SlotQueue cs;  ///< the critical section: one slot
    bool open() const { return bitmap.expected() != 0; }
    /// Resets the block in place once its result left (buf moved out);
    /// the lock keeps its waiter storage.
    void close() {
      buf.clear();
      bitmap.reset(0);
      aggregated = 0;
      has_data = false;
      first_arrival = 0;
    }
  };

  bool admit(const Packet& pkt, SimTime now) override;
  void accept(Waiter w) override;
  void run_on_slot(u32 block_id, u32 slot, Waiter w, SimTime start) override;
  void clear_blocks() override { check_closed(blocks_); }

  std::vector<Block> blocks_;  ///< by block id
};

// ---------------------------------------------------------------------------

class MultiBufferAggregator final : public Aggregator {
 public:
  MultiBufferAggregator(EngineHost& host, const AllreduceConfig& cfg,
                        BufferPool& pool)
      : Aggregator(host, cfg, pool) {}

 private:
  struct Sub {
    PayloadVec buf;
    bool allocated = false;
    bool has_data = false;
  };
  struct Block {
    std::vector<Sub> subs;
    SlotQueue slots;  ///< which subs are locked, and who waits for one
    ChildBitmap bitmap;
    u32 aggregated = 0;  ///< packets whose aggregation work has finished
    u32 elems = 0;       ///< payload elements (ragged last block support)
    u32 max_allocated = 0;  ///< peak simultaneously-allocated sub-buffers
    SimTime first_arrival = 0;
    bool open() const { return bitmap.expected() != 0; }
    /// Resets the block in place; `subs` keeps its B entries.
    void close() {
      for (Sub& sub : subs) sub = Sub();
      bitmap.reset(0);
      aggregated = 0;
      elems = 0;
      max_allocated = 0;
      first_arrival = 0;
    }
  };

  bool admit(const Packet& pkt, SimTime now) override;
  void accept(Waiter w) override;
  void run_on_slot(u32 block_id, u32 slot, Waiter w, SimTime start) override;
  void clear_blocks() override { check_closed(blocks_); }
  void merge_chain(u32 block_id, u32 my_sub, SimTime t, u32 handler);
  void finish_block(u32 block_id, u32 my_sub, SimTime t, u32 handler);

  std::vector<Block> blocks_;  ///< by block id
};

// ---------------------------------------------------------------------------

class TreeAggregator final : public Aggregator {
 public:
  TreeAggregator(EngineHost& host, const AllreduceConfig& cfg,
                 BufferPool& pool)
      : Aggregator(host, cfg, pool), shape_(shape_for(cfg.num_children)) {}

  /// Exposed for tests: the fixed combine tree over `p` leaves.  Node 0 is
  /// the root; leaves are identified by child index.
  struct TreeShape {
    struct Node {
      u32 lo, hi;       ///< covers children [lo, hi)
      i32 left = -1;    ///< node index, -1 for none
      i32 right = -1;
      i32 parent = -1;
    };
    std::vector<Node> nodes;
    std::vector<u32> leaves;  ///< node index of each child's leaf
    /// Node index of the leaf for `child`.
    u32 leaf_of(u32 child) const {
      FLARE_ASSERT_MSG(child < leaves.size(), "child outside tree");
      return leaves[child];
    }
  };
  static TreeShape build_shape(u32 p);

 private:
  /// build_shape(p), built once per child count and shared, immutable, by
  /// every TreeAggregator of the process.
  static const TreeShape& shape_for(u32 p);

  struct NodeState {
    bool done = false;
    bool claimed = false;  ///< a handler is (or has) combining this node
    PayloadVec buf;  ///< subtree result, valid when done
  };
  struct Block {
    std::vector<NodeState> nodes;  ///< by TreeShape node index
    ChildBitmap bitmap;
    u32 elems = 0;          ///< payload elements (ragged last block support)
    u32 alive_buffers = 0;  ///< currently-held leaf/internal buffers
    u32 max_alive = 0;      ///< peak — the paper's M = (P-1)/log2(P) profile
    SimTime first_arrival = 0;
    bool open() const { return bitmap.expected() != 0; }
    /// Resets the block in place once its root result left; `nodes` keeps
    /// its entries.
    void close() {
      for (NodeState& n : nodes) n = NodeState();
      bitmap.reset(0);
      elems = 0;
      alive_buffers = 0;
      max_alive = 0;
      first_arrival = 0;
    }
  };

  /// The open block `block_id`.
  Block& open_block(u32 block_id) {
    FLARE_ASSERT(block_id < blocks_.size() && blocks_[block_id].open());
    return blocks_[block_id];
  }
  bool admit(const Packet& pkt, SimTime now) override;
  void accept(Waiter w) override;
  void clear_blocks() override { check_closed(blocks_); }
  void climb(u32 block_id, u32 node, SimTime t, u32 handler);
  void complete_root(u32 block_id, SimTime t, u32 handler);

  const TreeShape& shape_;
  std::vector<Block> blocks_;  ///< by block id
};

/// Factory over AllreduceConfig::policy (dense only; sparse lives in
/// sparse_policy.hpp).
std::unique_ptr<Aggregator> make_dense_aggregator(EngineHost& host,
                                                  const AllreduceConfig& cfg,
                                                  BufferPool& pool);

}  // namespace flare::core
