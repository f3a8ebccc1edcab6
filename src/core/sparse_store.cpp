#include "core/sparse_store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace flare::core {

StoredPair make_stored_pair(u32 index, const std::byte* value, DType dtype) {
  StoredPair p;
  p.index = index;
  copy_element(p.value.data(), value, dtype_size(dtype));
  return p;
}

// ---------------------------------------------------------------------------
// HashStore
// ---------------------------------------------------------------------------

HashStore::HashStore(u32 capacity_pairs, DType dtype, const ReduceOp& op)
    : esize_(dtype_size(dtype)), combine_(op.combiner(dtype)) {
  FLARE_ASSERT(capacity_pairs >= 1);
  const u64 cap =
      std::bit_ceil(std::max<u64>(capacity_pairs, kWays));
  indices_.resize(cap);
  values_.resize(cap * esize_);
  occupied_.assign((cap + 63) / 64, 0);
  bucket_mask_ = cap / kWays - 1;
}

u64 HashStore::bucket_of(u32 index) const {
  // Fibonacci multiplicative hash: one multiply + shift, exactly the kind of
  // arithmetic a RISC-V handler does per pair.
  const u64 h = static_cast<u64>(index) * 0x9E3779B97F4A7C15ull;
  return ((h >> 32) & bucket_mask_) * kWays;
}

bool HashStore::insert(u32 index, const std::byte* value) {
  constexpr u64 kFullBucket = (u64{1} << kWays) - 1;
  const u64 base = bucket_of(index);
  u64& word = occupied_[base >> 6];
  const u64 shift = base & 63;
  const u64 ways = (word >> shift) & kFullBucket;
  // A match among the occupied ways wins, else the first free way.
  u64 match = 0;
#pragma GCC unroll 4  // kWays
  for (u32 w = 0; w < kWays; ++w) {
    match |= static_cast<u64>(indices_[base + w] == index) << w;
  }
  match &= ways;
  if (match != 0) {
    combine_(value_at(base + static_cast<u64>(std::countr_zero(match))),
             value);
    return true;
  }
  if (ways != kFullBucket) {
    const auto w = static_cast<u64>(std::countr_one(ways));
    indices_[base + w] = index;
    copy_element(value_at(base + w), value, esize_);
    word |= u64{1} << (shift + w);
    used_ += 1;
    return true;
  }
  collisions_ += 1;
  return false;  // bucket full of other indices: caller spills
}

void HashStore::extract(std::vector<StoredPair>& out) const {
  const std::size_t first = out.size();
  out.resize(first + used_);
  StoredPair* dst = out.data() + first;
  for (std::size_t w = 0; w < occupied_.size(); ++w) {
    for (u64 bits = occupied_[w]; bits != 0; bits &= bits - 1) {
      const u64 slot = w * 64 + static_cast<u64>(std::countr_zero(bits));
      dst->index = indices_[slot];
      copy_element(dst->value.data(), values_.data() + slot * esize_, esize_);
      ++dst;
    }
  }
}

void HashStore::clear() {
  std::fill(occupied_.begin(), occupied_.end(), 0);
  used_ = 0;
  collisions_ = 0;
}

u64 HashStore::footprint_bytes() const {
  // index (4B) + value (dtype) + occupancy bit per slot, as the handler
  // would lay it out in L1.
  return indices_.size() * (sizeof(u32) + esize_) + indices_.size() / 8;
}

// ---------------------------------------------------------------------------
// ArrayStore
// ---------------------------------------------------------------------------

ArrayStore::ArrayStore(u32 span_elems, DType dtype, const ReduceOp& op)
    : span_(span_elems), dtype_(dtype), combine_(op.combiner(dtype)) {
  FLARE_ASSERT(span_elems >= 1);
  values_.resize(static_cast<std::size_t>(span_elems) * dtype_size(dtype));
  bitmap_.assign((span_elems + 63) / 64, 0);
}

bool ArrayStore::insert(u32 index, const std::byte* value) {
  FLARE_ASSERT_MSG(index < span_, "sparse index outside block span");
  std::byte* cell =
      values_.data() + static_cast<std::size_t>(index) * dtype_size(dtype_);
  if (!occupied(index)) {
    bitmap_[index >> 6] |= 1ull << (index & 63);
    copy_element(cell, value, dtype_size(dtype_));
    used_ += 1;
    return true;
  }
  combine_(cell, value);
  return true;
}

void ArrayStore::extract(std::vector<StoredPair>& out) const {
  const std::size_t first = out.size();
  out.resize(first + used_);
  StoredPair* dst = out.data() + first;
  const u32 es = dtype_size(dtype_);
  for (std::size_t w = 0; w < bitmap_.size(); ++w) {
    for (u64 bits = bitmap_[w]; bits != 0; bits &= bits - 1) {
      const auto i =
          static_cast<u32>(w * 64 + static_cast<u64>(std::countr_zero(bits)));
      dst->index = i;
      copy_element(dst->value.data(),
                   values_.data() + static_cast<std::size_t>(i) * es, es);
      ++dst;
    }
  }
}

void ArrayStore::clear() {
  // Values under clear bits are never read: the first insert overwrites.
  std::fill(bitmap_.begin(), bitmap_.end(), 0);
  used_ = 0;
}

u64 ArrayStore::footprint_bytes() const {
  return values_.size() + bitmap_.size() * sizeof(u64);
}

}  // namespace flare::core
