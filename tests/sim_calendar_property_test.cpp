// Property test of the event calendar's dispatch contract.
//
// The Simulator contract is a single total order — dispatch by
// (time, insertion-seq), FIFO among same-time events.  Every event is
// scheduled at or after the current clock, so the whole dispatch trace of
// a run must equal the STABLE SORT of its schedule (every event, in the
// order it was scheduled) by time.  Each property below records a seeded
// random workload's schedule and dispatch trace and checks one against the
// other, across the patterns that stress the bucketed calendar:
//
//   * same-timestamp bursts (FIFO tie-break inside one bucket),
//   * zero/short delays scheduled from inside events (insertion into the
//     bucket currently being drained, or the same-instant lane beside it),
//   * closures parked in slab cells their same-time siblings just freed,
//   * far-future delays beyond the ring horizon (coarse wheels, overflow
//     heap, cursor jump over empty buckets),
//   * run_until windows and stop() cutting a window short,
//   * calendar geometries that move every tier boundary.
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

// Delay classes chosen against the bucket geometry (2^16 ps buckets,
// 1024-slot ring => 2^26 ps horizon): same-bucket, near-future ring,
// and past-the-horizon events all occur in every storm.
SimTime random_delay(Rng& rng) {
  switch (rng.uniform_u64(4)) {
    case 0: return 0;                                   // same timestamp
    case 1: return rng.uniform_u64(u64{1} << 16);       // same/next bucket
    case 2: return rng.uniform_u64(u64{1} << 24);       // inside the ring
    default: return rng.uniform_u64(u64{1} << 30);      // beyond the horizon
  }
}

/// Static storm: pre-schedule `n` events (no rescheduling) and run to
/// empty.
Storm static_storm(u64 seed, u64 n, const CalendarOptions& opts = {}) {
  Rng rng(seed);
  Simulator sim(opts);
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
/// further events `delay(rng)` after its own time, exercising insertion
/// into the currently-draining bucket.  Ids are handed out in schedule
/// order.
Storm cascade_storm(u64 seed, u64 roots, u64 budget,
                    const CalendarOptions& opts = {},
                    const std::function<SimTime(Rng&)>& delay = random_delay,
                    u64 max_children = 3) {
  Rng rng(seed);
  u64 remaining = budget;
  Simulator sim(opts);
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

WindowedResult windowed_storm(u64 seed, u64 n,
                              const CalendarOptions& opts = {}) {
  Rng rng(seed);
  Simulator sim(opts);
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
  for (u64 seed = 1; seed <= 5; ++seed) {
    const Storm s = static_storm(seed, 500);
    EXPECT_EQ(s.trace, model_order(s.scheduled)) << "seed=" << seed;
  }
}

TEST(CalendarProperty, CascadingStormsMatchStableSortModel) {
  for (u64 seed = 10; seed <= 14; ++seed) {
    const Storm s = cascade_storm(seed, 64, 2000);
    ASSERT_GT(s.trace.size(), 64u) << "storm fizzled; seed=" << seed;
    EXPECT_EQ(s.trace, model_order(s.scheduled)) << "seed=" << seed;
  }
}

TEST(CalendarProperty, RunUntilWindowsMatchModel) {
  for (u64 seed = 20; seed <= 24; ++seed) {
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

TEST(CalendarProperty, StopPinsClockAtStoppingEvent) {
  Simulator sim;
  std::vector<u64> order;
  for (u64 id = 0; id < 10; ++id) {
    sim.schedule_at(id * 1000, [&, id] {
      order.push_back(id);
      if (id == 4) sim.stop();
    });
  }
  sim.run_until(8000);
  EXPECT_EQ(order.size(), 5u);
  EXPECT_EQ(sim.now(), 4000u);  // stop() pins the clock at the last event
  sim.run();
  EXPECT_EQ(order.size(), 10u);
  EXPECT_EQ(sim.now(), 9000u);
}

// ------------------------------------------------ geometry sweep --------
//
// CalendarOptions geometries chosen to stress every tier boundary: a tiny
// ring that pushes most events into the wheels, deep wheel stacks, a
// single coarse level, and levels=0 (ring + far heap only — the
// pre-hierarchy shape).  Every geometry must dispatch the model order.
const CalendarOptions kGeometries[] = {
    {},                // the default: 1024 x 2^16, two 64-slot levels
    {64, 12, 8, 3},    // tiny ring, three shallow wheels
    {256, 14, 16, 1},  // one coarse level only
    {1024, 16, 64, 0}, // no wheels: ring + far heap
    {4, 4, 2, 4},      // pathological: everything overflows somewhere
};

TEST(CalendarProperty, GeometriesMatchModelOnStaticStorms) {
  for (const CalendarOptions& g : kGeometries) {
    for (u64 seed = 30; seed <= 32; ++seed) {
      const Storm s = static_storm(seed, 500, g);
      EXPECT_EQ(s.trace, model_order(s.scheduled))
          << "buckets=" << g.bucket_count << " width=" << g.bucket_width_log2
          << " slots=" << g.coarse_slot_count << " levels=" << g.coarse_levels
          << " seed=" << seed;
    }
  }
}

TEST(CalendarProperty, GeometriesMatchModelOnCascadingStorms) {
  for (const CalendarOptions& g : kGeometries) {
    const Storm s = cascade_storm(40, 64, 2000, g);
    ASSERT_GT(s.trace.size(), 64u);
    EXPECT_EQ(s.trace, model_order(s.scheduled))
        << "buckets=" << g.bucket_count << " levels=" << g.coarse_levels;
  }
}

TEST(CalendarProperty, GeometriesMatchModelOnRunUntilWindows) {
  for (const CalendarOptions& g : kGeometries) {
    SCOPED_TRACE(testing::Message() << "buckets=" << g.bucket_count
                                    << " levels=" << g.coarse_levels);
    expect_windows_match_model(windowed_storm(50, 400, g));
  }
}

/// Draining-bucket storm: every event reschedules up to three follow-ups at
/// zero or sub-bucket delays, so nearly every key is inserted into the
/// bucket the cursor is draining (or the next one), among the remainder
/// still to dispatch.  The stable-sort model must hold on every geometry.
TEST(CalendarProperty, DrainingBucketStormsMatchModel) {
  for (const CalendarOptions& g : kGeometries) {
    const u64 bucket = u64{1} << g.bucket_width_log2;
    const auto sub_bucket = [bucket](Rng& rng) -> SimTime {
      switch (rng.uniform_u64(3)) {
        case 0: return 0;
        case 1: return rng.uniform_u64(8);  // a few ticks
        default: return rng.uniform_u64(bucket);
      }
    };
    for (u64 seed = 70; seed <= 72; ++seed) {
      const Storm s = cascade_storm(seed, 16, 6000, g, sub_bucket, 4);
      ASSERT_GT(s.trace.size(), 3000u) << "storm fizzled; seed=" << seed;
      EXPECT_EQ(s.trace, model_order(s.scheduled))
          << "buckets=" << g.bucket_count << " width=" << g.bucket_width_log2
          << " levels=" << g.coarse_levels << " seed=" << seed;
    }
  }
}

/// Slab reuse: the last event of each batch schedules the next batch only
/// after its siblings have run, so the new closures park in the slab cells
/// the siblings freed, in reverse order, while same-time events from the
/// previous batch are still pending.  Dispatch must still follow the
/// schedule: FIFO among same-time events, whatever cells they occupy.
TEST(CalendarProperty, ReusedSlabCellsKeepSameTimeFifo) {
  for (const CalendarOptions& g : kGeometries) {
    Simulator sim(g);
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
    EXPECT_EQ(s.trace, model_order(s.scheduled))
        << "buckets=" << g.bucket_count << " levels=" << g.coarse_levels;
  }
}

/// Same-instant lane: keys scheduled at the instant just dispatched skip the
/// draining bucket and queue in a FIFO lane beside it.  Roots share a few
/// instants on a grid of four per bucket, so the bucket holds keys filed
/// earlier for the instant whose zero-delay children fill the lane; children
/// are mostly zero-delay (chains several levels deep), otherwise on the next
/// grid instants, which other keys already occupy.  The run goes in
/// run_until windows ending on grid instants, and some events call stop()
/// right after filling the lane: the window then returns with lane keys
/// pending, and a zero-delay event scheduled from outside joins them.
TEST(CalendarProperty, SameInstantLaneMatchesModel) {
  for (const CalendarOptions& g : kGeometries) {
    const SimTime grid = u64{1} << (g.bucket_width_log2 - 2);
    for (u64 seed = 80; seed <= 82; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << "buckets=" << g.bucket_count
                   << " width=" << g.bucket_width_log2
                   << " levels=" << g.coarse_levels << " seed=" << seed);
      Rng rng(seed);
      Simulator sim(g);
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
}

/// Far-future storm spanning MULTIPLE coarse wheels: with a 64-bucket 2^12
/// ring and 8-slot wheels, level k covers 64*8^k buckets — delays up to
/// 2^40 ps populate every wheel level AND the far heap at once, and the
/// stable-sort model must still hold exactly.
TEST(CalendarProperty, FarFutureStormSpansMultipleCoarseWheels) {
  const CalendarOptions g{64, 12, 8, 3};
  for (u64 seed = 60; seed <= 62; ++seed) {
    Rng rng(seed);
    std::vector<TraceEntry> expect;
    for (u64 id = 0; id < 600; ++id) {
      // Mix block-boundary-straddling delays (exact multiples of wheel
      // block widths +- 1) with uniform far-future spreads.
      SimTime at;
      switch (rng.uniform_u64(4)) {
        case 0: {
          const u64 block = u64{1} << (12 + 6 + 3 * (rng.uniform_u64(3) + 1));
          at = block * (1 + rng.uniform_u64(4)) + rng.uniform_u64(3) - 1;
          break;
        }
        case 1: at = rng.uniform_u64(u64{1} << 18); break;  // ring
        default: at = rng.uniform_u64(u64{1} << 40); break; // anywhere
      }
      expect.push_back({at, id});
    }
    Simulator sim(g);
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

/// stop() agreement across geometries: cutting a run short mid-bucket must
/// leave the same clock and the same dispatched prefix of the stable-sort
/// model on every geometry.
TEST(CalendarProperty, StopAgreesAcrossGeometries) {
  for (const CalendarOptions& g : kGeometries) {
    Simulator sim(g);
    std::vector<u64> order;
    for (u64 id = 0; id < 10; ++id) {
      sim.schedule_at(id * 100000, [&, id] {
        order.push_back(id);
        if (id == 4) sim.stop();
      });
    }
    sim.run_until(800000);
    EXPECT_EQ(order.size(), 5u) << "buckets=" << g.bucket_count;
    EXPECT_EQ(sim.now(), 400000u);
    sim.run();
    EXPECT_EQ(order.size(), 10u);
    EXPECT_EQ(sim.now(), 900000u);
  }
}

TEST(CalendarPropertyDeathTest, RejectsNonPowerOfTwoGeometry) {
  EXPECT_DEATH(Simulator(CalendarOptions{1000, 16, 64, 2}), "bucket_count");
  EXPECT_DEATH(Simulator(CalendarOptions{1024, 16, 63, 2}),
               "coarse_slot_count");
  EXPECT_DEATH(Simulator(CalendarOptions{1024, 0, 64, 2}),
               "bucket_width_log2");
}

/// The far-future overflow path alone: everything beyond the ring horizon,
/// forcing the cursor jump and the horizon migration.
TEST(CalendarProperty, FarFutureOnlyStorm) {
  Rng rng(99);
  Simulator sim;
  std::vector<SimTime> times;
  std::vector<SimTime> seen;
  for (int i = 0; i < 200; ++i) {
    // All far beyond the 2^26 ps ring horizon, widely spread.
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
