// Discrete-event simulation core.
//
// A single-threaded event calendar: callbacks scheduled at absolute times,
// dispatched in (time, insertion-sequence) order.  The sequence tie-break
// makes every run bit-for-bit deterministic — essential both for the
// reproducibility experiments (Section 6.3 of the paper) and for debugging
// the aggregation state machines.
//
// Hot-path design (the throughput ceiling for every bench, see
// bench/sim_throughput.cpp):
//
//   * events hold an EventFn — a move-only callable with inline storage
//     sized for the common network-layer closures (a captured NetPacket),
//     so scheduling neither heap-allocates nor copies shared_ptr payloads;
//   * the calendar keeps closures apart from the keys it orders: a closure
//     is moved once, at scheduling, into a cell of a chunked slab (stable
//     addresses, free-list reuse), and the tiers below hold only 24-byte
//     trivially copyable (at, seq, cell) keys.  Dispatch runs the closure
//     in place and frees its cell, so sorting, pouring and inserting keys
//     never relocate a closure;
//   * a bucketed calendar queue (time-sliced ring of FIFO buckets under
//     hierarchical coarse wheels and a far-future overflow heap, O(1)
//     amortized for the short-delay events that dominate network
//     simulation).  tests/sim_calendar_property_test checks its dispatch
//     order against a stable sort of the schedule by time.
//
// Time units are not interpreted by this layer: the PsPIN simulator ticks in
// core cycles, the network simulator in picoseconds.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "common/validate.hpp"

namespace flare::sim {

/// Geometry of the bucketed calendar (see detail::BucketCalendar).  All
/// counts must be powers of two — the ring and wheel indices are computed
/// with masks on the event-dispatch hot path — and the constructor
/// FLARE_ASSERTs on anything else.
///
/// Defaults: 1024 buckets x 2^16 ps cover a 67 us ring horizon (link
/// serialization + propagation delays), and two 64-slot coarse wheels on
/// top extend the structured horizon to ~0.27 s (timeouts, monitor
/// periods, flow finish times, placement rounds, fault repairs) before
/// anything touches the far-future overflow heap.
struct CalendarOptions {
  u32 bucket_count = 1024;      ///< ring slots (power of two)
  u32 bucket_width_log2 = 16;   ///< log2 ticks per ring slot
  u32 coarse_slot_count = 64;   ///< slots per coarse wheel (power of two)
  u32 coarse_levels = 2;        ///< hierarchical wheels above the ring (0 = none)
};

/// Move-only type-erased `void()` callable with inline small-object
/// storage.  Sized so the hottest closures in the repo — a captured
/// NetPacket plus a `this` pointer — stay inline; larger or throwing-move
/// callables fall back to a single heap cell.  Unlike std::function it
/// never copies the callable, so scheduling a lambda that owns shared_ptr
/// payloads costs no refcount traffic.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 88;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(EventFn&& o) noexcept { move_from(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }
  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  ///< move-construct + destroy src
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
      [](void* dst, void* src) {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      },
      [](void* p) { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); }};

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
      [](void* dst, void* src) { std::memcpy(dst, src, sizeof(Fn*)); },
      [](void* p) { delete *std::launder(reinterpret_cast<Fn**>(p)); }};

  void move_from(EventFn& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
};

namespace detail {

/// A calendar entry as the tiers order it.  (at, seq) is a unique total
/// order: seq is the insertion sequence number, so same-time events
/// dispatch FIFO.  `cell` names the entry's closure in the slab.
struct EventKey {
  SimTime at = 0;
  u64 seq = 0;
  u64 cell = 0;
};
static_assert(std::is_trivially_copyable_v<EventKey>);

/// `true` when a dispatches before b.
inline bool dispatches_before(const EventKey& a, const EventKey& b) {
  if (a.at != b.at) return a.at < b.at;
  return a.seq < b.seq;  // FIFO among same-time events.
}

/// Bucketed calendar queue: a ring of FIFO buckets (each covering
/// 2^bucket_width_log2 ticks), a configurable stack of coarse hierarchical
/// wheels above the ring, and a far-future overflow heap on top.  Pushing
/// an event inside the ring horizon is an O(1) append; buckets are sorted
/// by (at, seq) once, when the cursor reaches them.  Events scheduled into
/// the bucket currently being drained (the short-delay pattern the network
/// layer hammers) are placed by binary search among the not-yet-dispatched
/// remainder, preserving the exact (at, seq) total order.
///
/// Zero-delay events skip that insert: while a bucket is being drained, a
/// key whose `at` equals the last dispatched key's `at` is appended to a
/// same-instant FIFO lane, and the front is whichever of the bucket
/// remainder's front and the lane's front dispatches first.  The lane is
/// already in (at, seq) order — each lane key carries the largest seq so
/// far and nothing earlier than now can be scheduled — it empties before
/// the clock moves on, and it is cleared when the cursor leaves the
/// bucket.  On the frozen 64-host training scenario (perfbench train64)
/// 54% of all events take the lane; it cut the run's median time by 14%
/// and its peak RSS by about 3 MB, since zero-delay keys no longer grow
/// the buckets' storage (README, "Performance").
///
/// Coarse wheel k (k = 0..levels-1) slices time into blocks of
/// bucket_count * coarse_slot_count^k ring slots and admits events inside
/// a sliding window of coarse_slot_count such blocks.  A wheel slot is
/// poured into the tiers below exactly when the cursor enters its
/// (aligned) block, so events cascade ring-ward without ever being
/// re-sorted: the final dispatch order is still decided by the in-bucket
/// (at, seq) sort.  Only events beyond the top wheel's window — with the
/// default geometry, further than ~0.27 s ahead — pay the O(log n)
/// overflow heap, which is what keeps multi-second horizons (flow finish
/// times, repair timers) from thrashing the heap on every reschedule.
///
/// Key storage follows the pending events, not the geometry: a ring
/// bucket or wheel slot holds a vector only while it holds keys.  When the
/// cursor leaves a drained bucket, and once a poured wheel slot's keys are
/// placed, the emptied vector (capacity kept) joins one spare list,
/// `spare_`; a slot without storage takes the back of that list for its
/// first key.  So the calendar's vectors number the slots that are
/// non-empty at the same time: on train64 (seed 1) a Simulator ends with
/// at most 30 vectors of 6,016 keys in all, where ring buckets that each
/// kept their own high-water capacity held up to 128,288 keys (3 MB).
///
/// Every tier holds keys only.  The closures sit in the calendar's slab
/// from push() until the dispatcher release()s them; the slab's destructor
/// destroys the closures of events still pending.
class BucketCalendar {
 public:
  explicit BucketCalendar(const CalendarOptions& opts);

  /// Parks `fn` in a free slab cell and files its key.
  void push(SimTime at, u64 seq, EventFn&& fn);
  /// Removes the earliest key.  Its closure stays parked until release().
  EventKey pop() {
    ensure_front();
    return pop_peeked();
  }
  /// Valid until the next push/pop.  Non-const: advancing to the next
  /// non-empty bucket (and sorting it) happens lazily here.
  const EventKey* peek() { return empty() ? nullptr : ensure_front(); }
  /// pop() without finding the front again: removes the key the preceding
  /// peek() returned.  Nothing may be pushed in between.
  EventKey pop_peeked() {
    const EventKey key = *front_;
    if (front_in_lane_) {
      lane_pos_ += 1;
    } else {
      pos_ += 1;
      ring_count_ -= 1;
    }
    size_ -= 1;
    // Monotone even if the validator-test backdoor dispatches a past key,
    // so the lane only ever holds one timestamp.
    last_at_ = std::max(last_at_, key.at);
    return key;
  }
  bool empty() const { return size_ == 0; }
  u64 size() const { return size_; }

  /// The closure parked in `cell`.  Its address is stable until
  /// release(cell), even while the closure itself schedules more events.
  EventFn& closure(u64 cell) {
    return chunks_[cell >> kChunkLog2][cell & (kChunkCells - 1)];
  }
  /// Destroys the closure in `cell` and returns the cell to the free list.
  void release(u64 cell) {
    closure(cell) = nullptr;
    free_.push_back(cell);
  }

 private:
  // 256 cells (28 KiB) per chunk: cheap for the many short-lived
  // simulators of the tests, rare to grow on a packet-level run.
  static constexpr u32 kChunkLog2 = 8;
  static constexpr u64 kChunkCells = u64{1} << kChunkLog2;

  u64 slot_of(SimTime at) const { return at >> width_log2_; }
  u64 ring_index(u64 slot) const { return slot & ring_mask_; }

  /// Finds the earliest key and records where it sits (front_,
  /// front_in_lane_) for pop_peeked().
  const EventKey* ensure_front();
  /// Routes a key (relative to cur_slot_) into the ring, the lowest
  /// admitting coarse wheel, or the overflow heap.  Does not touch size_.
  void place(const EventKey& key);
  /// Moves the cursor to new_slot, pouring every coarse-wheel slot whose
  /// block the cursor just entered (top level first, so poured events
  /// settle through lower tiers) and pulling newly-admissible far events.
  void advance_cursor(u64 new_slot);
  void pull_far();
  /// Appends `key` to a ring bucket or wheel slot, giving a slot without
  /// storage the back of spare_ first.
  void append(std::vector<EventKey>& slot, const EventKey& key) {
    if (slot.capacity() == 0 && !spare_.empty()) {
      slot = std::move(spare_.back());
      spare_.pop_back();
    }
    slot.push_back(key);
  }
  /// Empties `slot` and moves its storage to spare_.
  void recycle(std::vector<EventKey>& slot) {
    slot.clear();
    spare_.push_back(std::move(slot));
  }

  // Geometry (fixed at construction; see CalendarOptions).
  u32 width_log2_;
  u64 ring_buckets_;
  u64 ring_mask_;
  u64 wheel_slots_;
  u64 wheel_mask_;
  u32 levels_;
  std::vector<u32> shift_;  ///< per-level block size in log2 ring slots

  std::vector<std::vector<EventKey>> ring_;
  std::vector<std::vector<std::vector<EventKey>>> wheels_;  ///< [level][slot]
  std::vector<u64> wheel_count_;  ///< events resident per wheel level
  std::vector<EventKey> far_;  ///< min-heap of keys beyond every wheel
  std::vector<std::vector<EventKey>> spare_;  ///< emptied slot storage
  std::vector<EventKey> lane_;  ///< same-instant FIFO beside the current bucket
  u64 ring_count_ = 0;      ///< events resident in the ring (lane excluded)
  u64 cur_slot_ = 0;        ///< time slot the cursor is draining
  std::size_t pos_ = 0;     ///< dispatch position within the current bucket
  std::size_t lane_pos_ = 0;  ///< dispatch position within lane_
  bool sorted_ = false;     ///< current bucket sorted and being drained
  u64 size_ = 0;
  SimTime last_at_ = 0;     ///< latest `at` popped so far
  const EventKey* front_ = nullptr;  ///< what ensure_front() last returned
  bool front_in_lane_ = false;       ///< ... and whether it is lane_'s front

  // Closure slab: fixed-size chunks, so a parked closure never moves.
  std::vector<std::unique_ptr<EventFn[]>> chunks_;
  std::vector<u64> free_;  ///< released cells, reused LIFO
  u64 cells_ = 0;          ///< cells ever handed out (high-water mark)
};

}  // namespace detail

class Simulator {
 public:
  explicit Simulator(const CalendarOptions& opts = {})
      : calendar_(opts) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.  Valid inside event callbacks and after run().
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (must be >= now()).
  void schedule_at(SimTime at, EventFn fn);

  /// Schedules `fn` `delay` ticks after the current time.
  void schedule_after(SimTime delay, EventFn fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs until the calendar is empty.  Returns the number of events run.
  u64 run();

  /// Runs until the calendar is empty or simulated time exceeds `until`.
  /// Events scheduled exactly at `until` are executed.  On return the
  /// clock reads exactly `until` (unless stop() cut the window short, or
  /// `until` was already in the past), regardless of whether the calendar
  /// drained or the next event lies beyond the window — so back-to-back
  /// run_until windows observe one uniform clock.
  u64 run_until(SimTime until);

  /// Runs a single event if one is pending; returns false if calendar empty.
  bool step();

  /// Requests run()/run_until() to return after the current event completes.
  void stop() { stop_requested_ = true; }

  bool empty() const { return calendar_.empty(); }
  u64 pending_events() const { return calendar_.size(); }
  u64 total_events_run() const { return events_run_; }

#if FLARE_VALIDATE_ENABLED
  /// Validator-test backdoor: enqueues an event BYPASSING the
  /// schedule-time past-event assert, so tests/validate_test.cpp can
  /// seed an out-of-order event and prove the dispatch-time
  /// calendar-monotonic check fires.  Exists only in FLARE_VALIDATE
  /// builds; never call it outside that test.
  void debug_inject_at(SimTime at, EventFn fn) {
    calendar_.push(at, next_seq_++, std::move(fn));
  }
#endif

 private:
  void dispatch(detail::EventKey key);

  detail::BucketCalendar calendar_;
  SimTime now_ = 0;
  u64 next_seq_ = 0;
  u64 events_run_ = 0;
  bool stop_requested_ = false;
};

}  // namespace flare::sim
