// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.hpp"

namespace rvma::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, FifoTieBreakAtEqualTimes) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, RelativeSchedule) {
  Engine e;
  Time seen = 0;
  e.schedule_at(50, [&] {
    e.schedule(25, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 75u);
}

TEST(Engine, EventsCanScheduleAtSameTime) {
  Engine e;
  int count = 0;
  e.schedule_at(10, [&] {
    e.schedule(0, [&] { ++count; });
    ++count;
  });
  e.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(e.now(), 10u);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.schedule_at(10, [&] { ++fired; });
  e.schedule_at(20, [&] { ++fired; });
  e.schedule_at(30, [&] { ++fired; });
  e.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine e;
  e.run_until(500);
  EXPECT_EQ(e.now(), 500u);
}

TEST(Engine, RunUntilAdvancesClockWithPendingFutureEvents) {
  // Regression: run_until used to leave now() at the last executed event
  // when events remained beyond the deadline, so a subsequent relative
  // schedule(delay) fired `deadline - now()` early.
  Engine e;
  Time late_fired_at = 0;
  e.schedule_at(10, [] {});
  e.schedule_at(1000, [&] { late_fired_at = e.now(); });
  e.run_until(500);
  EXPECT_EQ(e.now(), 500u);  // clock reached the deadline
  EXPECT_EQ(e.pending(), 1u);

  // A relative schedule issued after run_until anchors at the deadline.
  Time rel_fired_at = 0;
  e.schedule(100, [&] { rel_fired_at = e.now(); });
  e.run();
  EXPECT_EQ(rel_fired_at, 600u);
  EXPECT_EQ(late_fired_at, 1000u);
}

TEST(Engine, RunUntilStoppedDoesNotJumpToDeadline) {
  // stop() aborts the span: the clock stays at the stopping event so the
  // caller can observe where simulation actually halted.
  Engine e;
  e.schedule_at(10, [&] { e.stop(); });
  e.schedule_at(20, [&] {});
  e.run_until(500);
  EXPECT_EQ(e.now(), 10u);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, MoveOnlyCaptureAndLargeCaptureCallbacks) {
  // The SBO callback must handle move-only captures (std::function could
  // not) and captures larger than the inline buffer (pooled heap fallback).
  Engine e;
  int via_unique = 0;
  auto owned = std::make_unique<int>(7);
  e.schedule_at(1, [&via_unique, p = std::move(owned)] { via_unique = *p; });

  struct Big {
    char bytes[200];
  };
  Big big{};
  big.bytes[0] = 42;
  char seen = 0;
  e.schedule_at(2, [&seen, big] { seen = big.bytes[0]; });
  e.run();
  EXPECT_EQ(via_unique, 7);
  EXPECT_EQ(seen, 42);
}

TEST(Engine, RunUntilStoppedMidWindow) {
  // run_until's stop contract (engine.hpp): an un-stopped window advances
  // the clock exactly to the deadline; a stop() mid-window leaves now()
  // on the last executed event and is consumed by the next run call.
  Engine e;
  std::vector<Time> fired;
  e.schedule_at(10, [&] { fired.push_back(e.now()); });
  e.schedule_at(20, [&] {
    fired.push_back(e.now());
    e.stop();
  });
  e.schedule_at(30, [&] { fired.push_back(e.now()); });

  EXPECT_EQ(e.run_until(40), 20u);  // stopped: clock stays on the event
  EXPECT_EQ(e.now(), 20u);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20}));

  // The stop was consumed: the next window runs normally and, with no
  // event at the deadline, still lands the clock exactly on the edge.
  EXPECT_EQ(e.run_until(35), 35u);
  EXPECT_EQ(e.now(), 35u);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20, 30}));
  EXPECT_TRUE(e.empty());
}

TEST(Engine, SteadyStateSchedulingReusesSlots) {
  // Steady-state: a long self-rescheduling chain keeps pending() at 1 and
  // must not grow internal storage (zero-allocation invariant; the
  // allocation count itself is asserted by bench/engine_throughput).
  Engine e;
  int depth = 0;
  struct Hop {
    Engine& e;
    int& depth;
    std::uint64_t payload[6];  // 48-byte capture: stays inline
    void operator()() const {
      if (++depth < 100000) e.schedule(1, *this);
    }
  };
  e.schedule_at(0, Hop{e, depth, {}});
  e.run();
  EXPECT_EQ(depth, 100000);
  EXPECT_EQ(e.executed_events(), 100000u);
}

TEST(Engine, StopHaltsRun) {
  Engine e;
  int fired = 0;
  e.schedule_at(10, [&] {
    ++fired;
    e.stop();
  });
  e.schedule_at(20, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, StepExecutesOne) {
  Engine e;
  int fired = 0;
  e.schedule_at(1, [&] { ++fired; });
  e.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, CountsExecutedEvents) {
  Engine e;
  for (int i = 0; i < 17; ++i) e.schedule_at(i, [] {});
  e.run();
  EXPECT_EQ(e.executed_events(), 17u);
}

TEST(Engine, CascadedEventsLargeFanout) {
  // A chain of events each spawning the next: exercises queue reuse.
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10000) e.schedule(1, chain);
  };
  e.schedule_at(0, chain);
  e.run();
  EXPECT_EQ(depth, 10000);
  EXPECT_EQ(e.now(), 9999u);
}

}  // namespace
}  // namespace rvma::sim
