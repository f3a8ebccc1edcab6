// Sparse in-network aggregation (Section 7) — the first in-network sparse
// allreduce.  Differences from the dense engine:
//
//  * a block may arrive as several packets per child ("Block split"): the
//    per-child shard counters in SparseBlockTracker detect completion;
//  * all-zero blocks arrive as header-only packets ("Empty blocks");
//  * the working structure is a HashStore (leaf switches) or an ArrayStore
//    (root switch, where data has densified);
//  * hash collisions spill into a bounded spill buffer which, when full, is
//    flushed onto the network immediately — trading extra traffic for
//    constant memory (Figure 14's "Extra Traffic" panel).
//
// Parallelism follows Section 6 applied to sparse: B independent stores per
// block (B=1 reproduces the single-buffer critical-section design); the
// causally-last handler merges the B-1 sibling stores, scans, and emits the
// aggregated pairs.
#pragma once

#include <memory>
#include <vector>

#include "core/dense_policies.hpp"
#include "core/sparse_store.hpp"

namespace flare::core {

/// Builds a sparse wire packet from stored pairs (no f64 round-trip).
Packet make_sparse_packet_from_pairs(const AllreduceConfig& cfg, u32 block_id,
                                     std::vector<StoredPair>::const_iterator
                                         first,
                                     u32 count, u16 flags, u32 shard_seq);

class SparseAggregator final : public Aggregator {
 public:
  SparseAggregator(EngineHost& host, const AllreduceConfig& cfg,
                   BufferPool& pool);

  /// Total collisions observed across all hash stores (telemetry).
  u64 total_collisions() const { return total_collisions_; }

 private:
  struct StoreSlot {
    std::unique_ptr<SparseStore> store;
    std::vector<StoredPair> spill;
  };
  struct Block {
    std::vector<StoreSlot> stores;
    SlotQueue slots;  ///< which stores are locked, and who waits for one
    std::unique_ptr<SparseBlockTracker> tracker;
    u32 seen = 0;      ///< fresh packets registered (at mark time)
    u32 inserted = 0;  ///< fresh packets whose work completed (at end time)
    u32 emit_seq = 0;  ///< shard_seq for packets this node emits
    SimTime first_arrival = 0;
    bool open() const { return tracker != nullptr; }
  };

  /// A cleared store slot for a block that opens: a spare one, else new.
  StoreSlot take_slot();
  /// Clears `blk`'s store slots into spare_.
  void recycle_slots(Block& blk);
  u64 store_footprint() const;

  bool admit(const Packet& pkt, SimTime now) override;
  void accept(Waiter w) override;
  void run_on_slot(u32 block_id, u32 store_idx, Waiter w,
                   SimTime start) override;
  /// Open blocks are legal here: a persistent session can reset an engine
  /// whose iteration the recovery plane abandoned.  Their memory returns.
  void clear_blocks() override;
  /// Flushes `slot`'s spill buffer as a packet leaving at `when`.
  void flush_spill(Block& blk, StoreSlot& slot, u32 block_id, SimTime when);
  void finalize_block(u32 block_id, u32 my_store, SimTime t, u32 handler);

  std::vector<Block> blocks_;  ///< by block id
  /// Cleared slots of closed blocks.  A store is built once and then
  /// serves block after block; its spill buffer keeps its capacity.
  std::vector<StoreSlot> spare_;
  u64 total_collisions_ = 0;
};

std::unique_ptr<Aggregator> make_sparse_aggregator(EngineHost& host,
                                                   const AllreduceConfig& cfg,
                                                   BufferPool& pool);

/// Factory over dense/sparse and policy.
std::unique_ptr<Aggregator> make_aggregator(EngineHost& host,
                                            const AllreduceConfig& cfg,
                                            BufferPool& pool);

}  // namespace flare::core
