// Working-memory data structures for sparse aggregation (Section 7).
//
// Two designs, with the tradeoff the paper analyses in Figure 14:
//
//  * HashStore — a set-associative hash table over (index, value) slots:
//    one bucket of `kWays` contiguous slots (16 bytes of indices) is
//    probed per pair, so the per-pair cost stays constant.  To avoid expensive
//    collision RESOLUTION in a packet handler, a pair whose bucket is full
//    of other indices is appended to a *spill buffer*; when the spill
//    buffer fills, the engine flushes it onto the network immediately
//    (extra traffic, but constant memory and per-pair cost independent of
//    density).
//
//  * ArrayStore — a contiguous array spanning the whole block index range
//    plus an occupancy bitmap.  Lowest per-insert latency and no extra
//    traffic, but memory scales with 1/density and completion requires a
//    full scan.
//
// Values are stored and combined in the wire dtype (the reduction arithmetic
// is identical to what the handler would do) and extracted into 8-byte
// cells.  Like the handler, a store is specialised to its (dtype, op) once: it
// resolves the one-element combiner when it is built, so an insert is a
// probe plus one typed combine.  Both designs keep an occupancy bitmap:
// extract walks its set bits instead of testing every slot, and clear
// zeroes it, so one store serves block after block.
#pragma once

#include <array>
#include <vector>

#include "common/assert.hpp"
#include "core/packet.hpp"
#include "core/reduce_op.hpp"

namespace flare::core {

/// One (index, value) pair in store/extract form; `value` holds the raw
/// dtype bytes left-aligned in an 8-byte cell.
struct StoredPair {
  u32 index = 0;
  std::array<std::byte, 8> value{};
};

/// Copies a raw dtype value into a StoredPair cell.
StoredPair make_stored_pair(u32 index, const std::byte* value, DType dtype);

class SparseStore {
 public:
  virtual ~SparseStore() = default;

  /// Inserts one pair (`value`: raw bytes of the store's dtype, any
  /// alignment), combining with the store's op on index match.  Returns
  /// false if the pair could not be stored (hash collision): the caller
  /// must spill it.
  virtual bool insert(u32 index, const std::byte* value) = 0;

  /// Appends all stored pairs to `out` in a deterministic order
  /// (ascending index for the array store, slot order for the hash store),
  /// reserving room for them first.
  virtual void extract(std::vector<StoredPair>& out) const = 0;

  /// Empties the store; it then behaves exactly like a fresh one.
  virtual void clear() = 0;

  virtual u64 stored_pairs() const = 0;
  /// Memory footprint of the structure in bytes (the paper's "Block Mem").
  virtual u64 footprint_bytes() const = 0;
  /// Number of slots a completion scan must touch.
  virtual u64 scan_slots() const = 0;
};

/// Set-associative hash table (one bucket probed; overflow -> caller
/// spills — no chains, no rehashing, handler cost stays O(1)).
class HashStore final : public SparseStore {
 public:
  /// Slots per bucket: an insert probes 4 indices (16 bytes) of L1.
  static constexpr u32 kWays = 4;

  /// `capacity_pairs` is rounded up to a power of two (total slots).
  HashStore(u32 capacity_pairs, DType dtype, const ReduceOp& op);

  bool insert(u32 index, const std::byte* value) override;
  void extract(std::vector<StoredPair>& out) const override;
  void clear() override;
  u64 stored_pairs() const override { return used_; }
  u64 footprint_bytes() const override;
  u64 scan_slots() const override { return indices_.size(); }

  u64 capacity() const { return indices_.size(); }
  u64 collisions() const { return collisions_; }

 private:
  u64 bucket_of(u32 index) const;  ///< first slot of the bucket
  std::byte* value_at(u64 slot) { return values_.data() + slot * esize_; }

  // Slots as two arrays, the way a handler lays them out in L1: a probe
  // compares the bucket's kWays indices and touches a value only to
  // combine or fill it.  Unoccupied slots hold stale data, never read.
  std::vector<u32> indices_;
  std::vector<std::byte> values_;  ///< esize_ bytes per slot
  /// Bit s set iff slot s holds a pair.  A bucket's kWays bits share one
  /// word, since buckets start at multiples of kWays.
  std::vector<u64> occupied_;
  u64 bucket_mask_;
  u64 used_ = 0;
  u64 collisions_ = 0;
  u32 esize_;
  ElementCombiner combine_;
};

/// Contiguous array over the block's index span with an occupancy bitmap.
class ArrayStore final : public SparseStore {
 public:
  ArrayStore(u32 span_elems, DType dtype, const ReduceOp& op);

  bool insert(u32 index, const std::byte* value) override;
  void extract(std::vector<StoredPair>& out) const override;
  void clear() override;
  u64 stored_pairs() const override { return used_; }
  u64 footprint_bytes() const override;
  u64 scan_slots() const override { return span_; }

 private:
  bool occupied(u32 index) const {
    return (bitmap_[index >> 6] >> (index & 63)) & 1ull;
  }

  u32 span_;
  DType dtype_;
  ElementCombiner combine_;
  std::vector<std::byte> values_;
  std::vector<u64> bitmap_;
  u64 used_ = 0;
};

}  // namespace flare::core
