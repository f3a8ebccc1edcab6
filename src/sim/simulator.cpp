#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace flare::sim {

namespace detail {

void RadixCalendar::push(SimTime at, u64 seq, EventFn&& fn) {
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
  if (at < bound_) rewind(at);
  file(EventKey{at, seq, cell});
  size_ += 1;
}

void RadixCalendar::advance() {
  FLARE_ASSERT(occupied_ != 0);
  buckets_[0].clear();
  head_ = 0;
  const int b = std::countr_zero(occupied_) + 1;
  occupied_ &= occupied_ - 1;
  std::vector<EventKey>& keys = buckets_[b];
  SimTime least = keys.front().at;
  for (const EventKey& key : keys) least = std::min(least, key.at);
  bound_ = least;
  // The buckets below b are empty, so each receives its keys in push order.
  for (const EventKey& key : keys) file(key);
  keys.clear();
}

void RadixCalendar::rewind(SimTime at) {
  // Ascending buckets: keys with equal `at` share one bucket, in seq
  // order, so gathering bucket by bucket keeps that order.
  std::vector<EventKey> pending;
  pending.reserve(size_);
  pending.assign(buckets_[0].begin() + static_cast<std::ptrdiff_t>(head_),
                 buckets_[0].end());
  buckets_[0].clear();
  head_ = 0;
  for (; occupied_ != 0; occupied_ &= occupied_ - 1) {
    std::vector<EventKey>& keys = buckets_[std::countr_zero(occupied_) + 1];
    pending.insert(pending.end(), keys.begin(), keys.end());
    keys.clear();
  }
  bound_ = at;
  for (const EventKey& key : pending) file(key);
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
