// Property test of the event calendar's dispatch contract.
//
// The Simulator contract is a single total order — dispatch by
// (time, insertion-seq), FIFO among same-time events.  Every event is
// scheduled at or after the current clock, so the whole dispatch trace of
// a run must equal the STABLE SORT of its schedule (every event, in the
// order it was scheduled) by time.  Each property below records a seeded
// random workload's schedule and dispatch trace and checks one against the
// other, across the patterns that stress the radix-heap calendar:
//
//   * same-timestamp bursts (FIFO tie-break inside one bucket),
//   * zero/short delays scheduled from inside events (appends to bucket 0,
//     the keys at the bound, or to the low buckets just above it),
//   * closures parked in slab cells their same-time siblings just freed,
//   * far-future delays and times straddling power-of-two boundaries up to
//     2^62 (high buckets, long re-file cascades),
//   * run_until windows and stop() cutting a window short,
//   * events scheduled between run_until windows before the next pending
//     key, below the bound the window's peek raised (the rewind rule).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace flare::sim {
namespace {

/// One event: as scheduled (absolute time, schedule-order id) or as
/// dispatched (the clock inside its callback, id).
struct TraceEntry {
  SimTime at = 0;
  u64 id = 0;
  bool operator==(const TraceEntry&) const = default;
};

/// A run's schedule (id == position: schedule order) and dispatch trace.
struct Storm {
  std::vector<TraceEntry> scheduled;
  std::vector<TraceEntry> trace;
};

/// The contract's model: the schedule stable-sorted by time.
std::vector<TraceEntry> model_order(std::vector<TraceEntry> scheduled) {
  std::stable_sort(
      scheduled.begin(), scheduled.end(),
      [](const TraceEntry& a, const TraceEntry& b) { return a.at < b.at; });
  return scheduled;
}

// Delay classes spanning the buckets: same-instant keys (bucket 0),
// short delays in the low buckets, and delays up to 2^30 ticks that
// re-file through many buckets all occur in every storm.
SimTime random_delay(Rng& rng) {
  switch (rng.uniform_u64(4)) {
    case 0: return 0;                                   // same timestamp
    case 1: return rng.uniform_u64(u64{1} << 16);       // low buckets
    case 2: return rng.uniform_u64(u64{1} << 24);       // middle buckets
    default: return rng.uniform_u64(u64{1} << 30);      // far future
  }
}

/// Static storm: pre-schedule `n` events (no rescheduling) and run to
/// empty.
Storm static_storm(u64 seed, u64 n) {
  Rng rng(seed);
  Simulator sim;
  Storm s;
  s.trace.reserve(n);
  for (u64 id = 0; id < n; ++id) {
    const SimTime at = random_delay(rng);
    s.scheduled.push_back({at, id});
    sim.schedule_at(at, [&s, &sim, id] { s.trace.push_back({sim.now(), id}); });
  }
  sim.run();
  return s;
}

/// Cascading storm: every event may schedule up to `max_children - 1`
/// further events `delay(rng)` after its own time, filing keys while the
/// bound moves.  Ids are handed out in schedule order.
Storm cascade_storm(u64 seed, u64 roots, u64 budget,
                    const std::function<SimTime(Rng&)>& delay = random_delay,
                    u64 max_children = 3) {
  Rng rng(seed);
  u64 remaining = budget;
  Simulator sim;
  Storm s;

  std::function<void(u64)> fire;
  auto schedule = [&](SimTime at) {
    const u64 id = s.scheduled.size();
    s.scheduled.push_back({at, id});
    sim.schedule_at(at, [&fire, id] { fire(id); });
  };
  fire = [&](u64 id) {
    s.trace.push_back({sim.now(), id});
    const u64 children = rng.uniform_u64(max_children);
    for (u64 c = 0; c < children && remaining > 0; ++c) {
      remaining -= 1;
      schedule(sim.now() + delay(rng));
    }
  };
  for (u64 r = 0; r < roots; ++r) schedule(delay(rng));
  sim.run();
  return s;
}

/// Windowed storm: dispatch a pre-scheduled storm through a series of
/// random run_until windows (including empty ones), recording each
/// window's end, the clock after it, and how many events had run by then.
struct WindowedResult {
  Storm storm;
  std::vector<SimTime> untils;
  std::vector<SimTime> clocks;
  std::vector<u64> dispatched;
};

WindowedResult windowed_storm(u64 seed, u64 n) {
  Rng rng(seed);
  Simulator sim;
  WindowedResult r;
  Storm& s = r.storm;
  for (u64 id = 0; id < n; ++id) {
    const SimTime at = random_delay(rng);
    s.scheduled.push_back({at, id});
    sim.schedule_at(at, [&s, &sim, id] { s.trace.push_back({sim.now(), id}); });
  }
  SimTime until = 0;
  while (!sim.empty()) {
    until += rng.uniform_u64(u64{1} << 22);
    sim.run_until(until);
    r.untils.push_back(until);
    r.clocks.push_back(sim.now());
    r.dispatched.push_back(s.trace.size());
  }
  return r;
}

/// Checks a windowed run against the model: the trace is the stable sort
/// of the schedule, each window ran exactly the events at or before its
/// end, and the clock landed on every window's end.
void expect_windows_match_model(const WindowedResult& r) {
  EXPECT_EQ(r.storm.trace, model_order(r.storm.scheduled));
  EXPECT_EQ(r.clocks, r.untils);
  for (std::size_t w = 0; w < r.untils.size(); ++w) {
    const auto due = static_cast<u64>(std::count_if(
        r.storm.scheduled.begin(), r.storm.scheduled.end(),
        [&](const TraceEntry& e) { return e.at <= r.untils[w]; }));
    EXPECT_EQ(r.dispatched[w], due) << "window " << w;
  }
}

TEST(CalendarProperty, StaticStormMatchesStableSortModel) {
  for (const u64 seed : {1, 2, 3, 4, 5, 30, 31, 32}) {
    const Storm s = static_storm(seed, 500);
    EXPECT_EQ(s.trace, model_order(s.scheduled)) << "seed=" << seed;
  }
}

TEST(CalendarProperty, CascadingStormsMatchStableSortModel) {
  for (const u64 seed : {10, 11, 12, 13, 14, 40}) {
    const Storm s = cascade_storm(seed, 64, 2000);
    ASSERT_GT(s.trace.size(), 64u) << "storm fizzled; seed=" << seed;
    EXPECT_EQ(s.trace, model_order(s.scheduled)) << "seed=" << seed;
  }
}

TEST(CalendarProperty, RunUntilWindowsMatchModel) {
  for (const u64 seed : {20, 21, 22, 23, 24, 50}) {
    SCOPED_TRACE(seed);
    expect_windows_match_model(windowed_storm(seed, 400));
  }
}

/// Same-timestamp FIFO under pressure: many events at few distinct times,
/// with same-time follow-ups scheduled from inside events (which must
/// dispatch after every already-queued event of that timestamp).
TEST(CalendarProperty, SameTimeFifoWithInEventScheduling) {
  Simulator sim;
  std::vector<u64> order;
  u64 next = 0;
  for (int i = 0; i < 20; ++i) {
    const u64 id = next++;
    sim.schedule_at(100, [&, id] {
      order.push_back(id);
      if (id < 5) {
        // Zero-delay follow-up: same timestamp, larger seq => must run
        // after ALL twenty pre-scheduled events.
        const u64 child = next++;
        sim.schedule_after(0, [&order, child] { order.push_back(child); });
      }
    });
  }
  sim.run();
  ASSERT_EQ(order.size(), 25u);
  for (u64 i = 0; i < 25; ++i) EXPECT_EQ(order[i], i);
}

/// stop() cutting a run_until window short pins the clock at the
/// stopping event and leaves the rest of the model order pending, with the
/// events close together and far apart.
TEST(CalendarProperty, StopPinsClockAtStoppingEvent) {
  for (const SimTime spacing : {SimTime{1000}, SimTime{100000}}) {
    SCOPED_TRACE(spacing);
    Simulator sim;
    std::vector<u64> order;
    for (u64 id = 0; id < 10; ++id) {
      sim.schedule_at(id * spacing, [&, id] {
        order.push_back(id);
        if (id == 4) sim.stop();
      });
    }
    sim.run_until(8 * spacing);
    EXPECT_EQ(order.size(), 5u);
    EXPECT_EQ(sim.now(), 4 * spacing);  // stop() pins the clock here
    sim.run();
    EXPECT_EQ(order.size(), 10u);
    EXPECT_EQ(sim.now(), 9 * spacing);
  }
}

/// Short-delay storm: every event reschedules up to three follow-ups at
/// zero, a few or up to 2^16 ticks, so nearly every key lands in bucket 0
/// or the low buckets just above the bound while bucket 0 drains.
TEST(CalendarProperty, ShortDelayStormsMatchModel) {
  const auto short_delay = [](Rng& rng) -> SimTime {
    switch (rng.uniform_u64(3)) {
      case 0: return 0;
      case 1: return rng.uniform_u64(8);  // a few ticks
      default: return rng.uniform_u64(u64{1} << 16);
    }
  };
  for (u64 seed = 70; seed <= 72; ++seed) {
    const Storm s = cascade_storm(seed, 16, 6000, short_delay, 4);
    ASSERT_GT(s.trace.size(), 3000u) << "storm fizzled; seed=" << seed;
    EXPECT_EQ(s.trace, model_order(s.scheduled)) << "seed=" << seed;
  }
}

/// Slab reuse: the last event of each batch schedules the next batch only
/// after its siblings have run, so the new closures park in the slab cells
/// the siblings freed, in reverse order, while same-time events from the
/// previous batch are still pending.  Dispatch must still follow the
/// schedule: FIFO among same-time events, whatever cells they occupy.
TEST(CalendarProperty, ReusedSlabCellsKeepSameTimeFifo) {
  Simulator sim;
  Storm s;
  std::function<void(u64)> fire;
  auto schedule = [&](SimTime at) {
    const u64 id = s.scheduled.size();
    s.scheduled.push_back({at, id});
    sim.schedule_at(at, [&fire, id] { fire(id); });
  };
  fire = [&](u64 id) {
    s.trace.push_back({sim.now(), id});
    if (id % 8 != 7 || s.scheduled.size() > 400) return;
    for (u64 c = 0; c < 12; ++c) schedule(sim.now() + (c % 3 == 2 ? 1 : 0));
  };
  for (int i = 0; i < 8; ++i) schedule(100);
  sim.run();
  ASSERT_GT(s.trace.size(), 400u);
  EXPECT_EQ(s.trace, model_order(s.scheduled));
}

/// Same-instant lane (bucket 0): keys scheduled at the instant just
/// dispatched append to the bucket being drained.  Roots share a few
/// instants on a 2^14-tick grid, so bucket 0 holds keys filed earlier for
/// the instant whose zero-delay children join them; children are mostly
/// zero-delay (chains several levels deep), otherwise on the next grid
/// instants, which other keys already occupy.  The run goes in run_until
/// windows ending on grid instants, and some events call stop() right
/// after scheduling zero-delay children: the window then returns with them
/// pending, and a zero-delay event scheduled from outside joins them.
TEST(CalendarProperty, SameInstantLaneMatchesModel) {
  constexpr SimTime grid = u64{1} << 14;
  for (u64 seed = 80; seed <= 82; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Simulator sim;
    Storm s;
    std::vector<u64> depth;  // zero-delay chain length behind each event
    u64 remaining = 4000;
    bool stopped = false;
    u64 stops = 0;
    std::function<void(u64)> fire;
    auto schedule = [&](SimTime at, u64 d) {
      const u64 id = s.scheduled.size();
      s.scheduled.push_back({at, id});
      depth.push_back(d);
      sim.schedule_at(at, [&fire, id] { fire(id); });
    };
    fire = [&](u64 id) {
      s.trace.push_back({sim.now(), id});
      const u64 children = rng.uniform_u64(4);
      bool zero_delay_child = false;
      for (u64 c = 0; c < children && remaining > 0; ++c) {
        remaining -= 1;
        if (rng.uniform_u64(3) != 0) {
          schedule(sim.now(), depth[id] + 1);
          zero_delay_child = true;
        } else {
          schedule((sim.now() / grid + 1 + rng.uniform_u64(3)) * grid, 0);
        }
      }
      if (zero_delay_child && rng.uniform_u64(16) == 0) {
        sim.stop();
        stopped = true;
      }
    };
    for (u64 r = 0; r < 24; ++r) schedule(rng.uniform_u64(4) * grid, 0);

    SimTime until = 0;
    while (!sim.empty()) {
      until += grid * rng.uniform_u64(3);
      stopped = false;
      sim.run_until(until);
      if (stopped) {
        stops += 1;
        ASSERT_EQ(sim.now(), s.trace.back().at);
        schedule(sim.now(), 1);
        continue;
      }
      ASSERT_EQ(sim.now(), until);
      const auto due = static_cast<u64>(std::count_if(
          s.scheduled.begin(), s.scheduled.end(),
          [&](const TraceEntry& e) { return e.at <= until; }));
      ASSERT_EQ(s.trace.size(), due);
    }
    ASSERT_GT(s.trace.size(), 2000u) << "storm fizzled";
    ASSERT_GT(stops, 0u);
    ASSERT_GE(*std::max_element(depth.begin(), depth.end()), 4u);
    EXPECT_EQ(s.trace, model_order(s.scheduled));
  }
}

/// Scheduling between run_until windows (the rewind rule): a window's
/// peek() at the first key beyond it moves the calendar's bound up to that
/// key while the clock stops at the window's end.  Between windows, events
/// are scheduled from outside at times from the clock up to and past the
/// next pending key: below the bound, exactly on pending keys' times
/// (which must dispatch after the keys already there), and later.  The
/// events also cascade, so keys are filed before and after each rewind.
TEST(CalendarProperty, SchedulingBetweenWindowsMatchesModel) {
  for (u64 seed = 90; seed <= 94; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Simulator sim;
    Storm s;
    u64 remaining = 3000;
    u64 below_next = 0;  // outside events scheduled before the next key
    std::function<void(u64)> fire;
    auto schedule = [&](SimTime at) {
      const u64 id = s.scheduled.size();
      s.scheduled.push_back({at, id});
      sim.schedule_at(at, [&fire, id] { fire(id); });
    };
    fire = [&](u64 id) {
      s.trace.push_back({sim.now(), id});
      const u64 children = rng.uniform_u64(3);
      for (u64 c = 0; c < children && remaining > 0; ++c) {
        remaining -= 1;
        schedule(sim.now() + random_delay(rng));
      }
    };
    for (u64 r = 0; r < 64; ++r) schedule(random_delay(rng));

    SimTime until = 0;
    while (!sim.empty()) {
      until += rng.uniform_u64(u64{1} << 26);
      sim.run_until(until);
      ASSERT_EQ(sim.now(), until);
      const auto due = static_cast<u64>(std::count_if(
          s.scheduled.begin(), s.scheduled.end(),
          [&](const TraceEntry& e) { return e.at <= until; }));
      ASSERT_EQ(s.trace.size(), due);
      if (sim.empty()) break;
      SimTime next = ~SimTime{0};
      std::vector<SimTime> pending;
      for (const TraceEntry& e : s.scheduled) {
        if (e.at <= until) continue;
        next = std::min(next, e.at);
        pending.push_back(e.at);
      }
      for (u64 k = rng.uniform_u64(4); k > 0; --k) {
        SimTime at;
        switch (rng.uniform_u64(4)) {
          case 0: at = until; break;
          case 1: at = until + rng.uniform_u64(next - until); break;
          case 2: at = pending[rng.uniform_u64(pending.size())]; break;
          default: at = until + random_delay(rng); break;
        }
        below_next += at < next ? 1 : 0;
        schedule(at);
      }
    }
    ASSERT_GT(s.trace.size(), 1000u) << "storm fizzled";
    ASSERT_GT(below_next, 50u);
    EXPECT_EQ(s.trace, model_order(s.scheduled));
  }
}

/// Far-future storm: delays up to 2^40 ticks, a quarter of them exact
/// multiples of 2^21, 2^24 and 2^27 ticks +- 1, so keys sit in many
/// buckets at once and the bound crosses wide power-of-two blocks.
TEST(CalendarProperty, FarFutureStormMatchesModel) {
  for (u64 seed = 60; seed <= 62; ++seed) {
    Rng rng(seed);
    std::vector<TraceEntry> expect;
    for (u64 id = 0; id < 600; ++id) {
      SimTime at;
      switch (rng.uniform_u64(4)) {
        case 0: {
          const u64 block = u64{1} << (12 + 6 + 3 * (rng.uniform_u64(3) + 1));
          at = block * (1 + rng.uniform_u64(4)) + rng.uniform_u64(3) - 1;
          break;
        }
        case 1: at = rng.uniform_u64(u64{1} << 18); break;
        default: at = rng.uniform_u64(u64{1} << 40); break;
      }
      expect.push_back({at, id});
    }
    Simulator sim;
    std::vector<TraceEntry> trace;
    for (const TraceEntry& e : expect) {
      sim.schedule_at(e.at, [&trace, &sim, id = e.id] {
        trace.push_back({sim.now(), id});
      });
    }
    std::stable_sort(
        expect.begin(), expect.end(),
        [](const TraceEntry& a, const TraceEntry& b) { return a.at < b.at; });
    sim.run();
    EXPECT_EQ(trace, expect) << "seed=" << seed;
  }
}

/// Power-of-two boundaries up to 2^62: every key sits at 2^k - 1, 2^k or
/// 2^k + 1 (plus a few same-instant copies), from inside events as well as
/// up front, so bound moves cross every bit from the lowest to bit 62 and a
/// key can re-file from bucket 63 all the way down to bucket 0.
TEST(CalendarProperty, PowerOfTwoBoundaryStormMatchesModel) {
  const auto straddle = [](Rng& rng, SimTime from) -> SimTime {
    const SimTime edge = SimTime{1} << (1 + rng.uniform_u64(62));
    const SimTime at = edge - 1 + rng.uniform_u64(3);
    return at >= from ? at : from + rng.uniform_u64(2);
  };
  for (u64 seed = 100; seed <= 102; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Simulator sim;
    Storm s;
    u64 remaining = 2000;
    std::function<void(u64)> fire;
    auto schedule = [&](SimTime at) {
      const u64 id = s.scheduled.size();
      s.scheduled.push_back({at, id});
      sim.schedule_at(at, [&fire, id] { fire(id); });
    };
    fire = [&](u64 id) {
      s.trace.push_back({sim.now(), id});
      for (u64 c = rng.uniform_u64(3); c > 0 && remaining > 0; --c) {
        remaining -= 1;
        schedule(rng.uniform_u64(4) == 0 ? sim.now()
                                         : straddle(rng, sim.now()));
      }
    };
    for (u64 r = 0; r < 200; ++r) schedule(straddle(rng, 0));
    sim.run();
    ASSERT_GT(s.trace.size(), 1000u) << "storm fizzled";
    EXPECT_GT(s.trace.back().at, SimTime{1} << 61);
    EXPECT_EQ(s.trace, model_order(s.scheduled));
  }
}

/// Far-future keys alone: nothing near the start, so the first pop re-files
/// from a high bucket and every later one from wherever the spread leaves
/// the next key.
TEST(CalendarProperty, FarFutureOnlyStorm) {
  Rng rng(99);
  Simulator sim;
  std::vector<SimTime> times;
  std::vector<SimTime> seen;
  for (int i = 0; i < 200; ++i) {
    // All at least 2^27 ticks out, widely spread.
    const SimTime at = (u64{1} << 27) + rng.uniform_u64(u64{1} << 40);
    times.push_back(at);
    sim.schedule_at(at, [&seen, &sim] { seen.push_back(sim.now()); });
  }
  std::sort(times.begin(), times.end());
  sim.run();
  EXPECT_EQ(seen, times);
}

}  // namespace
}  // namespace flare::sim
