#include "sim/simulator.hpp"

#include <utility>

namespace flare::sim {

namespace detail {

namespace {
constexpr bool is_pow2(u64 v) { return v != 0 && (v & (v - 1)) == 0; }

constexpr u32 log2_exact(u64 v) {
  u32 r = 0;
  while ((u64{1} << r) < v) ++r;
  return r;
}

/// Heap order for far_: a max-heap under this comparator keeps the
/// earliest (at, seq) on top.
bool dispatches_after(const EventKey& a, const EventKey& b) {
  return dispatches_before(b, a);
}
}  // namespace

BucketCalendar::BucketCalendar(const CalendarOptions& opts)
    : width_log2_(opts.bucket_width_log2),
      ring_buckets_(opts.bucket_count),
      ring_mask_(u64{opts.bucket_count} - 1),
      wheel_slots_(opts.coarse_slot_count),
      wheel_mask_(u64{opts.coarse_slot_count} - 1),
      levels_(opts.coarse_levels) {
  FLARE_ASSERT_MSG(is_pow2(opts.bucket_count) && opts.bucket_count >= 2,
                   "calendar bucket_count must be a power of two >= 2");
  FLARE_ASSERT_MSG(opts.bucket_width_log2 >= 1 && opts.bucket_width_log2 <= 40,
                   "calendar bucket_width_log2 out of range [1, 40]");
  FLARE_ASSERT_MSG(
      levels_ == 0 ||
          (is_pow2(opts.coarse_slot_count) && opts.coarse_slot_count >= 2),
      "calendar coarse_slot_count must be a power of two >= 2");
  const u32 ring_log2 = log2_exact(ring_buckets_);
  const u32 wheel_log2 = levels_ > 0 ? log2_exact(wheel_slots_) : 0;
  // The top wheel's window must still be addressable in slot units.
  FLARE_ASSERT_MSG(width_log2_ + ring_log2 + (levels_ + 1) * wheel_log2 < 64,
                   "calendar geometry exceeds the 64-bit tick range");
  ring_.resize(ring_buckets_);
  shift_.resize(levels_);
  wheels_.resize(levels_);
  wheel_count_.assign(levels_, 0);
  for (u32 k = 0; k < levels_; ++k) {
    shift_[k] = ring_log2 + k * wheel_log2;
    wheels_[k].resize(wheel_slots_);
  }
}

void BucketCalendar::place(const EventKey& key) {
  u64 slot = slot_of(key.at);
  // Simulator::schedule_at rejects past events; the validator-test
  // backdoor can still inject one, and it must surface immediately (the
  // dispatch-time calendar-monotonic check wants to see it next).
  if (slot < cur_slot_) slot = cur_slot_;
  if (slot - cur_slot_ < ring_buckets_) {
    std::vector<EventKey>& b = ring_[ring_index(slot)];
    ring_count_ += 1;
    if (slot == cur_slot_ && sorted_) {
      // Scheduling into the bucket being drained (the short-delay hot
      // pattern): place among the not-yet-dispatched remainder.  The new
      // key carries the largest seq so far, so it goes after every
      // already-queued key of the same timestamp — exact FIFO.
      const auto it = std::upper_bound(
          b.begin() + static_cast<std::ptrdiff_t>(pos_), b.end(), key.at,
          [](SimTime t, const EventKey& e) { return t < e.at; });
      b.insert(it, key);
      return;
    }
    append(b, key);
    return;
  }
  // Lowest coarse wheel whose sliding window admits the slot.  Each wheel
  // block is bucket_count * wheel_slots^k ring slots wide; an event that
  // misses wheel k's window is at least one whole block ahead at wheel
  // k+1, so the slot the cursor currently occupies is never re-written
  // after its pour.
  for (u32 k = 0; k < levels_; ++k) {
    if ((slot >> shift_[k]) - (cur_slot_ >> shift_[k]) < wheel_slots_) {
      append(wheels_[k][(slot >> shift_[k]) & wheel_mask_], key);
      wheel_count_[k] += 1;
      return;
    }
  }
  far_.push_back(key);
  std::push_heap(far_.begin(), far_.end(), dispatches_after);
}

void BucketCalendar::push(SimTime at, u64 seq, EventFn&& fn) {
  u64 cell;
  if (!free_.empty()) {
    cell = free_.back();
    free_.pop_back();
  } else {
    if ((cells_ & (kChunkCells - 1)) == 0)
      chunks_.push_back(std::make_unique<EventFn[]>(kChunkCells));
    cell = cells_++;
  }
  closure(cell) = std::move(fn);
  size_ += 1;
  if (sorted_ && at == last_at_) {
    // Zero delay: same-instant lane, no sorted insert into the bucket.
    lane_.push_back(EventKey{at, seq, cell});
    return;
  }
  place(EventKey{at, seq, cell});
}

void BucketCalendar::pull_far() {
  // Pull far-future events whose slot just entered the top wheel's window
  // (or the ring, when no coarse levels are configured).
  if (levels_ == 0) {
    while (!far_.empty() && slot_of(far_.front().at) - cur_slot_ < ring_buckets_) {
      std::pop_heap(far_.begin(), far_.end(), dispatches_after);
      const EventKey key = far_.back();
      far_.pop_back();
      place(key);
    }
    return;
  }
  const u32 top = levels_ - 1;
  while (!far_.empty() &&
         (slot_of(far_.front().at) >> shift_[top]) -
                 (cur_slot_ >> shift_[top]) <
             wheel_slots_) {
    std::pop_heap(far_.begin(), far_.end(), dispatches_after);
    const EventKey key = far_.back();
    far_.pop_back();
    place(key);
  }
}

void BucketCalendar::advance_cursor(u64 new_slot) {
  const u64 old = cur_slot_;
  cur_slot_ = new_slot;
  // Pour each wheel slot whose block the cursor just entered, top level
  // first so poured events settle through the lower tiers in one pass.
  // The cursor only ever enters a block at its aligned base (a +1 step
  // crosses the boundary exactly, and jumps target block bases), so every
  // poured event satisfies slot >= cur_slot_ and lands in the tier below
  // without clamping.
  for (u32 k = levels_; k-- > 0;) {
    const u64 oldc = old >> shift_[k];
    const u64 newc = new_slot >> shift_[k];
    if (oldc == newc) continue;
    std::vector<EventKey>& s = wheels_[k][newc & wheel_mask_];
    if (s.empty()) continue;
    wheel_count_[k] -= s.size();
    // place() never files into the slot being poured (see place()), so
    // the keys are read in place; then the storage joins spare_.
    for (const EventKey& key : s) place(key);
    recycle(s);
  }
  pull_far();
}

const EventKey* BucketCalendar::ensure_front() {
  FLARE_ASSERT(size_ > 0);
  for (;;) {
    std::vector<EventKey>& b = ring_[ring_index(cur_slot_)];
    if (sorted_) {
      const bool in_bucket = pos_ < b.size();
      if (lane_pos_ < lane_.size()) {
        front_in_lane_ =
            !in_bucket || dispatches_before(lane_[lane_pos_], b[pos_]);
        front_ = front_in_lane_ ? &lane_[lane_pos_] : &b[pos_];
        return front_;
      }
      if (in_bucket) {
        front_in_lane_ = false;
        front_ = &b[pos_];
        return front_;
      }
      recycle(b);  // the drained bucket's storage joins spare_
      lane_.clear();
      pos_ = 0;
      lane_pos_ = 0;
      sorted_ = false;
      advance_cursor(cur_slot_ + 1);
      continue;
    }
    if (!b.empty()) {
      // A lambda, not a function pointer, so the comparator inlines.
      std::sort(b.begin(), b.end(), [](const EventKey& x, const EventKey& y) {
        return dispatches_before(x, y);
      });
      sorted_ = true;
      continue;
    }
    if (ring_count_ > 0) {
      // Ring still holds events: step to the next occupied slot.
      advance_cursor(cur_slot_ + 1);
      continue;
    }
    // Ring drained: jump straight to the earliest occupied structure
    // instead of walking empty buckets one by one.  The jump target is
    // the MINIMUM over every wheel's earliest nonempty block BASE (a
    // coarser wheel can hold an event earlier than a finer wheel's
    // earliest, when the window slid since its admission), so a poured
    // slot never contains an event behind the cursor.  Far-future events
    // are strictly beyond every wheel window, so they are the target only
    // when all wheels are empty.
    u64 target = ~u64{0};
    for (u32 k = 0; k < levels_; ++k) {
      if (wheel_count_[k] == 0) continue;
      const u64 ck = cur_slot_ >> shift_[k];
      for (u64 d = 0; d < wheel_slots_; ++d) {
        if (!wheels_[k][(ck + d) & wheel_mask_].empty()) {
          target = std::min(target, (ck + d) << shift_[k]);
          break;
        }
      }
    }
    if (target == ~u64{0}) {
      FLARE_ASSERT(!far_.empty());
      target = slot_of(far_.front().at);
    }
    advance_cursor(std::max(target, cur_slot_ + 1));
  }
}

}  // namespace detail

void Simulator::schedule_at(SimTime at, EventFn fn) {
  FLARE_ASSERT_MSG(at >= now_, "event scheduled in the past");
  FLARE_ASSERT(fn);
  calendar_.push(at, next_seq_++, std::move(fn));
}

void Simulator::dispatch(detail::EventKey key) {
#if FLARE_VALIDATE_ENABLED
  // schedule_at() rejects past events at insertion; this catches the
  // class it cannot see — a comparator or heap bug handing events out in
  // the wrong order, which would silently reorder every same-time
  // tie-break downstream.
  if (key.at < now_) {
    validate::fail("calendar-monotonic",
                   "event at t=" + std::to_string(key.at) +
                       " dispatched after now=" + std::to_string(now_));
  }
#endif
  now_ = key.at;
  events_run_ += 1;
  calendar_.closure(key.cell)();  // in place: the slab never moves it
  calendar_.release(key.cell);
}

u64 Simulator::run() {
  stop_requested_ = false;
  u64 n = 0;
  while (!empty() && !stop_requested_) {
    dispatch(calendar_.pop());
    ++n;
  }
  return n;
}

u64 Simulator::run_until(SimTime until) {
  stop_requested_ = false;
  u64 n = 0;
  while (!empty() && !stop_requested_) {
    if (calendar_.peek()->at > until) break;
    dispatch(calendar_.pop_peeked());
    ++n;
  }
  // Uniform window-clock semantics: the clock lands exactly on `until`
  // whether the calendar drained or the next event lies beyond the
  // window, so back-to-back run_until windows never observe a clock
  // lagging at the last dispatched event.  stop() is the exception: it
  // cuts the window short with events (possibly before `until`) still
  // pending, and jumping over them would make them "past" at dispatch.
  if (!stop_requested_ && now_ < until) now_ = until;
  return n;
}

bool Simulator::step() {
  if (empty()) return false;
  dispatch(calendar_.pop());
  return true;
}

}  // namespace flare::sim
