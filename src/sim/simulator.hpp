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
//     addresses, free-list reuse), and its buckets hold only 24-byte
//     trivially copyable (at, seq, cell) keys.  Dispatch runs the closure
//     in place and frees its cell, so filing and re-filing keys never
//     relocates a closure;
//   * the calendar is a radix heap of those keys (see
//     detail::RadixCalendar): a push is one append, and keys are
//     re-filed only when the clock moves on, never sorted.
//     tests/sim_calendar_property_test checks its dispatch order against a
//     stable sort of the schedule by time.
//
// Time units are not interpreted by this layer: the PsPIN simulator ticks in
// core cycles, the network simulator in picoseconds.
#pragma once

#include <array>
#include <bit>
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

/// A calendar entry as the buckets order it.  (at, seq) is a unique total
/// order: seq is the insertion sequence number, so same-time events
/// dispatch FIFO.  `cell` names the entry's closure in the slab.
struct EventKey {
  SimTime at = 0;
  u64 seq = 0;
  u64 cell = 0;
};
static_assert(std::is_trivially_copyable_v<EventKey>);

/// Radix heap of keys (Ahuja, Mehlhorn, Orlin and Tarjan, 1990).  It
/// relies on the calendar being monotone: nothing is scheduled before the
/// last dispatched instant.  Keys are filed against a bound, the `at` the
/// calendar last moved to, in 65 FIFO buckets:
///
///   * bucket 0 holds the keys at the bound, in seq order.  It is the
///     front: pop() reads it, and a zero-delay event is one append to it;
///   * bucket b >= 1 holds the keys whose `at` first differs from the
///     bound at bit b-1 (b = bit_width(at ^ bound)).
///
/// When bucket 0 runs dry, the lowest non-empty bucket b gives the next
/// bound, its least `at`.  Every key of bucket b agrees with that bound
/// above bit b-1, so the bucket's keys all re-file into the (empty)
/// buckets below b, and the buckets above keep their meaning.  Keys with
/// equal `at` therefore always share a bucket, and each bucket keeps them
/// in push order: the (at, seq) order holds with no sort and no sorted
/// insert.  A key re-files at most once per bit, and the short delays of
/// the network layer use the low buckets only.
///
/// Rewind rule.  The bound can run ahead of the clock: run_until's peek()
/// moves it to the next pending key, and the window may end before that
/// key, so a caller can then schedule between the clock and the bound
/// (and the validator-test backdoor can schedule before the clock).  Such
/// a push lowers the bound to its own `at` and re-files every pending key
/// against it, walking the buckets in ascending order so equal-`at` keys
/// keep their order.  Without the rewind the new key would dispatch after
/// later keys.
///
/// The buckets hold keys only.  The closures sit in the calendar's slab
/// from push() until the dispatcher release()s them; the slab's destructor
/// destroys the closures of events still pending.
class RadixCalendar {
 public:
  /// Parks `fn` in a free slab cell and files its key.
  void push(SimTime at, u64 seq, EventFn&& fn);
  /// Removes the earliest key.  Its closure stays parked until release().
  EventKey pop() {
    front();
    return pop_peeked();
  }
  /// Valid until the next push/pop.  Non-const: when bucket 0 is empty it
  /// moves the bound on, re-filing a bucket.
  const EventKey* peek() { return empty() ? nullptr : &front(); }
  /// pop() without finding the front again: removes the key the preceding
  /// peek() returned.  Nothing may be pushed in between.
  EventKey pop_peeked() {
    size_ -= 1;
    return buckets_[0][head_++];
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

  /// The earliest key: bucket 0's next one, after advance() if it ran dry.
  const EventKey& front() {
    FLARE_ASSERT(size_ > 0);
    if (head_ == buckets_[0].size()) advance();
    return buckets_[0][head_];
  }
  /// Moves the bound to the least `at` of the lowest non-empty bucket and
  /// re-files that bucket's keys into the buckets below it.
  void advance();
  /// Lowers the bound to `at`, re-filing every pending key (rewind rule).
  void rewind(SimTime at);
  void file(const EventKey& key) {
    const auto b = static_cast<u32>(std::bit_width(key.at ^ bound_));
    buckets_[b].push_back(key);
    if (b != 0) occupied_ |= u64{1} << (b - 1);
  }

  std::array<std::vector<EventKey>, 65> buckets_;
  std::size_t head_ = 0;  ///< dispatch position in buckets_[0]
  u64 occupied_ = 0;      ///< bit b-1 set while bucket b >= 1 holds keys
  SimTime bound_ = 0;
  u64 size_ = 0;

  // Closure slab: fixed-size chunks, so a parked closure never moves.
  std::vector<std::unique_ptr<EventFn[]>> chunks_;
  std::vector<u64> free_;  ///< released cells, reused LIFO
  u64 cells_ = 0;          ///< cells ever handed out (high-water mark)
};

}  // namespace detail

class Simulator {
 public:
  Simulator() = default;
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

  detail::RadixCalendar calendar_;
  SimTime now_ = 0;
  u64 next_seq_ = 0;
  u64 events_run_ = 0;
  bool stop_requested_ = false;
};

}  // namespace flare::sim
