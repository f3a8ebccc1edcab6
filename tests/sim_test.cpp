// Unit tests for the discrete-event core: ordering, determinism,
// same-timestamp FIFO, run_until semantics, stop(), closure lifetimes.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "sim/simulator.hpp"

namespace flare::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, SameTimestampIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<SimTime> times;
  std::function<void()> chain = [&] {
    times.push_back(sim.now());
    if (times.size() < 5) sim.schedule_after(7, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{0, 7, 14, 21, 28}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime inner = 0;
  sim.schedule_at(100, [&] {
    sim.schedule_after(11, [&] { inner = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner, 111u);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(10, [&] { ++ran; });
  sim.schedule_at(20, [&] { ++ran; });
  sim.schedule_at(21, [&] { ++ran; });
  sim.run_until(20);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(ran, 3);
}

// Uniform run_until clock semantics: the clock lands on the window end in
// BOTH exits — calendar drained, or next event beyond the window.  Before
// the hot-path PR only the drained exit advanced, so back-to-back windows
// (the congestion monitor's arm_until sampling cadence) saw a clock
// lagging at the last dispatched event.
TEST(Simulator, RunUntilAdvancesClockWhenNextEventIsBeyondWindow) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.schedule_at(500, [] {});
  sim.run_until(100);
  EXPECT_EQ(sim.now(), 100u);  // not 10: the window end is the clock
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(200);  // an empty window still advances the clock
  EXPECT_EQ(sim.now(), 200u);
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, RunUntilAdvancesClockWhenDrained) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run_until(100);
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, RunUntilInThePastIsANoOp) {
  Simulator sim;
  sim.schedule_at(50, [] {});
  sim.run();
  EXPECT_EQ(sim.now(), 50u);
  sim.run_until(20);  // window already closed: clock must not rewind
  EXPECT_EQ(sim.now(), 50u);
}

TEST(Simulator, StopLeavesClockAtLastEventNotWindowEnd) {
  Simulator sim;
  sim.schedule_at(10, [&] { sim.stop(); });
  sim.schedule_at(30, [] {});
  sim.run_until(100);
  // stop() cut the window short with an event still pending before the
  // window end; jumping to 100 would dispatch it "in the past".
  EXPECT_EQ(sim.now(), 10u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(100);
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, StopInterruptsRun) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(1, [&] {
    ++ran;
    sim.stop();
  });
  sim.schedule_at(2, [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, StepRunsExactlyOne) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(1, [&] { ++ran; });
  sim.schedule_at(2, [&] { ++ran; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, CountsEvents) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule_at(static_cast<SimTime>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.total_events_run(), 10u);
  EXPECT_TRUE(sim.empty());
}

/// Counts live-instance destructions and invocations of a closure;
/// moved-from shells are not counted, so each scheduled closure must add
/// exactly one destruction however often the calendar moves it.
struct LifetimeProbe {
  u64* destroyed;
  u64* invoked;
  bool live = true;

  LifetimeProbe(u64* d, u64* i) : destroyed(d), invoked(i) {}
  LifetimeProbe(LifetimeProbe&& o) noexcept
      : destroyed(o.destroyed), invoked(o.invoked), live(o.live) {
    o.live = false;
  }
  LifetimeProbe(const LifetimeProbe&) = delete;
  LifetimeProbe& operator=(const LifetimeProbe&) = delete;
  LifetimeProbe& operator=(LifetimeProbe&&) = delete;
  ~LifetimeProbe() {
    if (live) *destroyed += 1;
  }
  void operator()() { *invoked += 1; }
};

/// Larger than EventFn's inline buffer: takes the heap-cell fallback.
struct BigProbe {
  LifetimeProbe probe;
  std::array<u64, 16> pad{};
  void operator()() { probe(); }
};
static_assert(sizeof(BigProbe) > EventFn::kInlineBytes);

/// Destroying a Simulator with events pending across the calendar's radix
/// buckets (bucket 0, the keys at the current instant, and low, middle and
/// high buckets) destroys each parked closure exactly once, inline and
/// heap-fallback alike, and runs none of them.
TEST(Simulator, DestroyingWithPendingEventsDestroysEachClosureOnce) {
  u64 destroyed = 0;
  u64 invoked = 0;
  u64 scheduled = 0;
  {
    Simulator sim;
    const SimTime kTierTimes[] = {
        1000,            // dispatched below, freeing its slots
        u64{1} << 20,    // bucket 21 while the clock reads 1500
        u64{1} << 30,    // bucket 31
        u64{1} << 36,    // bucket 37
        u64{1} << 45,    // bucket 46
    };
    for (const SimTime at : kTierTimes) {
      for (int i = 0; i < 3; ++i) {
        sim.schedule_at(at + static_cast<SimTime>(i),
                        LifetimeProbe(&destroyed, &invoked));
        sim.schedule_at(at + static_cast<SimTime>(i),
                        BigProbe{LifetimeProbe(&destroyed, &invoked)});
        scheduled += 2;
      }
    }
    // Zero-delay children join bucket 0, and stop() returns with all of
    // them still pending there.
    sim.schedule_at(1500, [&] {
      for (int i = 0; i < 3; ++i) {
        sim.schedule_after(0, LifetimeProbe(&destroyed, &invoked));
        sim.schedule_after(0, BigProbe{LifetimeProbe(&destroyed, &invoked)});
        scheduled += 2;
      }
      sim.stop();
    });
    sim.run_until(2000);
    EXPECT_EQ(sim.now(), 1500u);
    EXPECT_EQ(invoked, 6u);
    EXPECT_EQ(destroyed, 6u);
    EXPECT_EQ(sim.pending_events(), scheduled - 6);
  }
  EXPECT_EQ(invoked, 6u);
  EXPECT_EQ(destroyed, scheduled);
}

TEST(SimulatorDeath, PastSchedulingAborts) {
  Simulator sim;
  sim.schedule_at(10, [&] {
    EXPECT_DEATH(sim.schedule_at(5, [] {}), "scheduled in the past");
  });
  sim.run();
}

}  // namespace
}  // namespace flare::sim
