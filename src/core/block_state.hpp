// Per-block completion tracking (Sections 4.1 and 7 of the paper).
//
// Dense blocks: one packet per child; Flare uses a *bitmap* rather than a
// plain counter so that retransmitted packets (host timeout, Section 4.1)
// are detected and not aggregated twice.
//
// Sparse blocks: a child may split a block across several packets
// ("Block split", Section 7), so each child additionally carries a shard
// counter; the child is complete when the count announced in its last
// packet has been received.  Retransmitted shards are deduplicated with a
// per-child shard-sequence bitmap.
#pragma once

#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace flare::core {

/// Bitmap over the children of a reduction-tree node.  Up to 64 children
/// the bits live in one inline word; wider nodes fall back to a word
/// vector.  reset() reuses whichever storage it needs, so a bitmap recycled
/// from block to block allocates at most once.
class ChildBitmap {
 public:
  explicit ChildBitmap(u32 num_children = 0) { reset(num_children); }

  /// Clears every mark and resizes to `num_children` (0 closes the bitmap:
  /// expected() reads 0).  A wide bitmap keeps its vector's capacity.
  void reset(u32 num_children) {
    n_ = num_children;
    seen_ = 0;
    inline_ = 0;
    if (num_children > 64) words_.assign((num_children + 63) / 64, 0);
  }

  /// Marks `child` as seen.  Returns false if it was already marked
  /// (i.e. this is a duplicate/retransmission that must NOT be aggregated).
  bool mark(u32 child) {
    FLARE_ASSERT(child < n_);
    u64& w = word(child);
    const u64 bit = 1ull << (child & 63);
    if (w & bit) return false;
    w |= bit;
    seen_ += 1;
    return true;
  }

  bool test(u32 child) const {
    FLARE_ASSERT(child < n_);
    const u64 w = n_ <= 64 ? inline_ : words_[child >> 6];
    return (w >> (child & 63)) & 1ull;
  }

  bool complete() const { return seen_ == n_; }
  u32 seen() const { return seen_; }
  u32 expected() const { return n_; }

 private:
  u64& word(u32 child) { return n_ <= 64 ? inline_ : words_[child >> 6]; }

  u32 n_ = 0;
  u32 seen_ = 0;
  u64 inline_ = 0;          ///< the bits when n_ <= 64
  std::vector<u64> words_;  ///< the bits when n_ > 64
};

/// Set of block ids of one collective.  Block ids are dense per
/// collective (0..blocks-1; the PsPIN experiments continue the count across
/// rounds), so a bitmap grown on demand, one u64 word at a time, stands in
/// for a hash set.  clear() keeps the words' storage.
class BlockSet {
 public:
  bool contains(u32 block_id) const {
    const u32 word = block_id >> 6;
    return word < words_.size() && ((words_[word] >> (block_id & 63)) & 1ull);
  }
  void insert(u32 block_id) {
    const u32 word = block_id >> 6;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    words_[word] |= 1ull << (block_id & 63);
  }
  void clear() { words_.clear(); }

 private:
  std::vector<u64> words_;
};

/// Sparse-block shard bookkeeping for one child.
class ShardTracker {
 public:
  /// Records shard `seq`.  Returns false for a duplicate (retransmission).
  bool mark(u32 seq) {
    const u32 word = seq >> 6;
    if (word >= seen_words_.size()) seen_words_.resize(word + 1, 0);
    const u64 bit = 1ull << (seq & 63);
    if (seen_words_[word] & bit) return false;
    seen_words_[word] |= bit;
    received_ += 1;
    return true;
  }

  /// The last packet of a block announces the total shard count.
  void announce_total(u32 total) {
    FLARE_ASSERT(total >= 1);
    // Retransmitted last-shards re-announce the same value.
    FLARE_ASSERT_MSG(expected_ == 0 || expected_ == total,
                     "conflicting shard_count announcements");
    expected_ = total;
  }

  bool complete() const { return expected_ != 0 && received_ >= expected_; }
  u32 received() const { return received_; }
  u32 expected() const { return expected_; }

 private:
  u32 received_ = 0;
  u32 expected_ = 0;  ///< 0 until the last shard announces the count
  std::vector<u64> seen_words_;
};

/// Completion state for a sparse block: one ShardTracker per child plus a
/// children counter advanced when a child's shards are all in.
class SparseBlockTracker {
 public:
  explicit SparseBlockTracker(u32 num_children)
      : shards_(num_children), complete_children_(0) {}

  /// Registers a shard from `child`.  Returns {is_new_data, child_completed}.
  struct MarkResult {
    bool fresh = false;           ///< not a duplicate; aggregate the payload
    bool child_completed = false; ///< this packet completed the child
  };
  MarkResult mark(u32 child, u32 shard_seq, bool last, u32 shard_count) {
    FLARE_ASSERT(child < shards_.size());
    ShardTracker& st = shards_[child];
    const bool was_complete = st.complete();
    MarkResult r;
    r.fresh = st.mark(shard_seq);
    if (last) st.announce_total(shard_count);
    if (!was_complete && st.complete()) {
      complete_children_ += 1;
      r.child_completed = true;
    }
    return r;
  }

  bool complete() const {
    return complete_children_ == static_cast<u32>(shards_.size());
  }
  u32 complete_children() const { return complete_children_; }
  u32 num_children() const { return static_cast<u32>(shards_.size()); }
  const ShardTracker& child(u32 i) const { return shards_.at(i); }

 private:
  std::vector<ShardTracker> shards_;
  u32 complete_children_;
};

}  // namespace flare::core
