// Dense aggregation policies (Section 6 of the paper).
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
// All three are continuation-based state machines over the shared event
// calendar: every cycle charged is causally ordered, so lock waits, merge
// stalls and climb hand-offs happen at their true simulated times.
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>
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
  /// switches cache sparse emission sequences for retransmission replay
  /// only when someone can actually ask for them.
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

/// Common interface driven by the hosting simulator.  `process` is invoked
/// when an HPU core *starts* the handler for `pkt`; the aggregator charges
/// dispatch/DMA/aggregation cycles on the event calendar and calls `done`
/// exactly once with the core-release time.
class Aggregator {
 public:
  virtual ~Aggregator() = default;
  virtual void process(std::shared_ptr<const Packet> pkt,
                       HandlerDone done) = 0;

  /// Clears per-iteration block state (open blocks + completed-block
  /// dedup sets) so an installed engine can serve the next iteration of a
  /// persistent collective with the same block ids.  Must only be called
  /// between iterations: open blocks at reset time indicate in-flight
  /// packets and are a protocol bug.  Cumulative stats are preserved.
  virtual void reset() = 0;

  const EngineStats& stats() const { return stats_; }
  EngineStats& stats() { return stats_; }

 protected:
  EngineStats stats_;
};

// ---------------------------------------------------------------------------

class SingleBufferAggregator final : public Aggregator {
 public:
  SingleBufferAggregator(EngineHost& host, const AllreduceConfig& cfg,
                         BufferPool& pool);
  void process(std::shared_ptr<const Packet> pkt, HandlerDone done) override;
  void reset() override;

 private:
  struct Block {
    PayloadVec buf;
    ChildBitmap bitmap;
    u32 aggregated = 0;  ///< packets folded into the buffer so far; the
                         ///< bitmap marks arrivals, but completion requires
                         ///< the aggregation work itself to have run
    bool has_data = false;
    bool cs_busy = false;
    bool completed = false;
    SimTime first_arrival = 0;
    /// FIFO of handlers spinning on the critical section; each entry is
    /// resumed with the time at which it acquires the lock.
    std::deque<std::function<void(SimTime)>> waiters;
  };

  Block& get_block(u32 block_id, SimTime now);
  void on_ready(std::shared_ptr<const Packet> pkt, HandlerDone done);
  void in_critical_section(u32 block_id, std::shared_ptr<const Packet> pkt,
                           SimTime enqueued_at, SimTime start,
                           HandlerDone done);
  void leave_cs(u32 block_id, SimTime end);

  EngineHost& host_;
  AllreduceConfig cfg_;
  BufferPool& pool_;
  std::unordered_map<u32, Block> blocks_;
  BlockSet completed_;
};

// ---------------------------------------------------------------------------

class MultiBufferAggregator final : public Aggregator {
 public:
  MultiBufferAggregator(EngineHost& host, const AllreduceConfig& cfg,
                        BufferPool& pool);
  void process(std::shared_ptr<const Packet> pkt, HandlerDone done) override;
  void reset() override;

 private:
  struct Sub {
    PayloadVec buf;
    bool allocated = false;
    bool has_data = false;
    bool busy = false;
  };
  struct Block {
    std::vector<Sub> subs;
    ChildBitmap bitmap;
    u32 aggregated = 0;  ///< packets whose aggregation work has finished
    u32 elems = 0;       ///< payload elements (ragged last block support)
    u32 max_allocated = 0;  ///< peak simultaneously-allocated sub-buffers
    SimTime first_arrival = 0;
    std::deque<std::function<void(SimTime, u32)>> waiters;  ///< (time, sub)
  };

  Block& get_block(u32 block_id, SimTime now);
  void on_ready(std::shared_ptr<const Packet> pkt, HandlerDone done);
  void run_on_sub(u32 block_id, u32 sub_idx,
                  std::shared_ptr<const Packet> pkt, SimTime enqueued_at,
                  SimTime start, HandlerDone done);
  void release_sub(u32 block_id, u32 sub_idx, SimTime at);
  void merge_chain(u32 block_id, u32 my_sub, SimTime t, HandlerDone done);
  void finish_block(u32 block_id, u32 my_sub, SimTime t, HandlerDone done);

  EngineHost& host_;
  AllreduceConfig cfg_;
  BufferPool& pool_;
  std::unordered_map<u32, Block> blocks_;
  BlockSet completed_;
};

// ---------------------------------------------------------------------------

class TreeAggregator final : public Aggregator {
 public:
  TreeAggregator(EngineHost& host, const AllreduceConfig& cfg,
                 BufferPool& pool);
  void process(std::shared_ptr<const Packet> pkt, HandlerDone done) override;
  void reset() override;

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
  struct NodeState {
    bool done = false;
    bool claimed = false;  ///< a handler is (or has) combining this node
    PayloadVec buf;  ///< subtree result, valid when done
  };
  /// Open while `nodes` is non-empty; a closed block is value-initialized.
  struct Block {
    std::vector<NodeState> nodes;
    ChildBitmap bitmap;
    u32 elems = 0;          ///< payload elements (ragged last block support)
    u32 alive_buffers = 0;  ///< currently-held leaf/internal buffers
    u32 max_alive = 0;      ///< peak — the paper's M = (P-1)/log2(P) profile
    SimTime first_arrival = 0;
  };

  Block& get_block(u32 block_id, SimTime now);
  /// The open block `block_id`.
  Block& open_block(u32 block_id) {
    FLARE_ASSERT(block_id < blocks_.size() && !blocks_[block_id].nodes.empty());
    return blocks_[block_id];
  }
  void on_ready(std::shared_ptr<const Packet> pkt, HandlerDone done);
  void climb(u32 block_id, u32 node, SimTime t, HandlerDone done);
  void complete_root(u32 block_id, SimTime t, HandlerDone done);

  EngineHost& host_;
  AllreduceConfig cfg_;
  BufferPool& pool_;
  TreeShape shape_;
  std::vector<Block> blocks_;  ///< by block id (dense per collective)
  BlockSet completed_;
};

/// Factory over AllreduceConfig::policy (dense only; sparse lives in
/// sparse_policy.hpp).
std::unique_ptr<Aggregator> make_dense_aggregator(EngineHost& host,
                                                  const AllreduceConfig& cfg,
                                                  BufferPool& pool);

}  // namespace flare::core
