// Working-memory accounting (Section 4.3) and the payload arena.
//
// Two pools live here.  BufferPool is the SIMULATED one: the L1 working
// memory assigned to one allreduce is statically partitioned by the network
// manager; aggregation buffers are acquired from this pool when a block
// starts and released when the block's result is emitted.  The pool tracks
// the time-weighted occupancy and high-water mark that Figures 7, 10 and 14
// report ("Work. Mem.", "Block Mem.").
//
// PoolAllocator is the HOST-SIDE one: a power-of-two size-class freelist
// (implemented in buffer_pool.cpp) recycling the short-lived allocations the
// simulator hot path churns through — packet payloads and aggregation
// buffers that are created and destroyed once per simulated packet.  The
// general-purpose heap pays lock/metadata costs per round trip; the arena
// turns the steady state into two freelist vector operations.
#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace flare::core {

namespace pool_detail {

/// Grabs a block of at least `bytes` from the size-class freelists (or the
/// heap on a cold miss / oversized request).
void* pool_alloc(std::size_t bytes);
/// Returns a block to its size class.  `bytes` must be the value passed to
/// pool_alloc.
void pool_free(void* p, std::size_t bytes) noexcept;

struct PoolStats {
  u64 fresh = 0;        ///< heap allocations (freelist misses + oversized)
  u64 reused = 0;       ///< allocations served from a freelist
  u64 cached_blocks = 0;  ///< blocks currently parked on freelists
};
PoolStats payload_pool_stats();

}  // namespace pool_detail

/// Stateless allocator over the global payload arena.  Single-threaded by
/// design, like the simulator itself.  All instances compare equal, so
/// containers move across PoolAllocator boundaries without reallocating.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(pool_detail::pool_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    pool_detail::pool_free(p, n * sizeof(T));
  }
  /// Default-initializes instead of value-initializing, so `resize(n)` and
  /// `PayloadVec(n)` leave new bytes indeterminate rather than zero-filling
  /// storage the caller overwrites anyway.  `resize(n, std::byte{0})` still
  /// zero-fills where zeros are wanted; constructions with arguments take
  /// the std::allocator_traits default.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

template <typename T, typename U>
bool operator==(const PoolAllocator<T>&, const PoolAllocator<U>&) {
  return true;
}

/// Packet payload / aggregation buffer storage: byte vector backed by the
/// arena.  The simulator allocates one of these per simulated packet, which
/// is exactly the churn the freelists absorb.  Sizing one does NOT zero it
/// (PoolAllocator::construct): every `resize(n)` / `PayloadVec(n)` site
/// overwrites the bytes it exposes before anything reads them.
using PayloadVec = std::vector<std::byte, PoolAllocator<std::byte>>;

/// A PayloadVec holding a copy of `src`: one allocation and one memcpy, no
/// zero-fill.  Copy a payload range only through here, never with
/// PayloadVec's copy constructor, `assign(first, last)` or `insert`:
/// libstdc++ copies the elements of a vector whose allocator is not
/// std::allocator one at a time, so those compile to a byte loop of
/// payload-size iterations.
inline PayloadVec copy_payload(std::span<const std::byte> src) {
  PayloadVec out(src.size());
  if (!src.empty()) std::memcpy(out.data(), src.data(), src.size());
  return out;
}

class BufferPool {
 public:
  /// `capacity_bytes == 0` means unlimited (accounting only).
  explicit BufferPool(u64 capacity_bytes = 0)
      : capacity_bytes_(capacity_bytes) {}

  /// Attempts to acquire `bytes` at time `now`.  Returns false if the pool
  /// is exhausted (callers either assert — hosts are window-flow-controlled
  /// so this should not happen — or fall back per policy).
  bool acquire(u64 bytes, SimTime now) {
    if (capacity_bytes_ != 0 && in_use_ + bytes > capacity_bytes_) {
      failed_acquires_ += 1;
      return false;
    }
    in_use_ += bytes;
    gauge_.set(in_use_, now);
    return true;
  }

  void release(u64 bytes, SimTime now) {
    FLARE_ASSERT_MSG(bytes <= in_use_, "releasing more than acquired");
    in_use_ -= bytes;
    gauge_.set(in_use_, now);
  }

  u64 in_use() const { return in_use_; }
  u64 capacity() const { return capacity_bytes_; }
  u64 high_water() const { return gauge_.high_water(); }
  f64 mean_occupancy(SimTime now) const {
    return gauge_.time_weighted_mean(now);
  }
  u64 failed_acquires() const { return failed_acquires_; }

 private:
  u64 capacity_bytes_;
  u64 in_use_ = 0;
  u64 failed_acquires_ = 0;
  Gauge gauge_;
};

}  // namespace flare::core
