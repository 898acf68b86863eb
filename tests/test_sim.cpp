// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
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

TEST(Engine, SetClockMovesAnIdleClockBackToItsLastEvent) {
  Engine e;
  e.schedule_at(10, [] {});
  e.run_until(50);
  EXPECT_EQ(e.now(), 50u);
  EXPECT_EQ(e.last_event_time(), 10u);
  e.set_clock(10);
  Time fired_at = 0;
  e.schedule(3, [&] { fired_at = e.now(); });
  e.run();
  EXPECT_EQ(fired_at, 13u);
}

TEST(EngineDeathTest, SetClockOnABusyEngineAborts) {
  Engine e;
  e.schedule_at(10, [] {});
  EXPECT_DEATH(e.set_clock(5), "set_clock on an engine with pending events");
}

TEST(EngineDeathTest, SetClockBeforeTheLastEventAborts) {
  Engine e;
  e.schedule_at(10, [] {});
  e.run();
  EXPECT_DEATH(e.set_clock(9), "set_clock before the last executed event");
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

// --- Exact-order differential test ------------------------------------
// One seeded random program runs on the Engine and on a reference queue
// (a std::set ordered by the tie-break model's (time, rank, tie, seq));
// both must execute the same events in the same order and answer every
// step()/run_until()/next_time()/pending() call alike. Times come from at
// most 16 distinct values per batch, so equal times — where (rank, tie)
// and seq decide — are the common case rather than the rare one.

/// The Engine's scheduling and run surface over a std::set.
class RefQueue {
 public:
  Time now() const { return now_; }

  template <typename F>
  void schedule_at_ranked(Time t, Time rank, std::uint64_t tie, F&& fn) {
    const std::uint64_t seq = next_seq_++;
    queue_.emplace(t, rank, tie, seq);
    fns_.emplace(seq, std::function<void()>(std::forward<F>(fn)));
  }
  template <typename F>
  void schedule_at(Time t, F&& fn) {
    schedule_at_ranked(t, now_, 0, std::forward<F>(fn));
  }
  template <typename F>
  void schedule(Time delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  bool step() {
    if (queue_.empty()) return false;
    const Key top = *queue_.begin();
    queue_.erase(queue_.begin());
    now_ = std::get<0>(top);
    const auto it = fns_.find(std::get<3>(top));
    const std::function<void()> fn = std::move(it->second);
    fns_.erase(it);
    fn();
    return true;
  }
  Time run_until(Time deadline) {
    while (!queue_.empty() && std::get<0>(*queue_.begin()) <= deadline) {
      step();
    }
    if (now_ < deadline) now_ = deadline;
    return now_;
  }
  Time next_time() const {
    return queue_.empty() ? kTimeInfinity : std::get<0>(*queue_.begin());
  }
  std::size_t pending() const { return queue_.size(); }

 private:
  using Key = std::tuple<Time, Time, std::uint64_t, std::uint64_t>;
  std::set<Key> queue_;
  std::map<std::uint64_t, std::function<void()>> fns_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic stream of draws.
struct Draw {
  std::uint64_t state;
  std::uint64_t next() { return state = splitmix64(state); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Runs the random program on queue `Q` and returns everything it saw:
/// each executed event's id and time, and each run call's result.
/// Event ids are handed out in scheduling order and an event's children
/// are drawn from its id alone, so the two queues schedule identical
/// events for as long as they execute in identical order.
template <typename Q>
class RandomProgram {
 public:
  RandomProgram(Q& q, std::uint64_t seed) : q_(q), seed_(seed) {}

  std::vector<std::uint64_t> run(int batch_count, int roots_per_batch) {
    Draw plan{seed_};
    for (int b = 0; b < batch_count; ++b) {
      // Up to 16 distinct times, at or a little after now().
      std::array<Time, 16> times{};
      const Time gap = plan.below(4);
      const Time base = q_.now() + gap * plan.below(32);
      for (Time& t : times) t = base + plan.below(48);
      batches_.push_back(times);
      for (int r = 0; r < roots_per_batch; ++r) {
        schedule_event(b, times[plan.below(16)], 0, plan);
      }
      // Mixed run calls until most of the batch has run; the rest
      // stays pending into the next batch.
      while (q_.pending() > static_cast<std::size_t>(roots_per_batch / 4)) {
        switch (plan.below(4)) {
          case 0:
            for (std::uint64_t k = 1 + plan.below(40); k > 0; --k) {
              log_.push_back(q_.step() ? 1 : 0);
            }
            break;
          case 1: {
            const Time next = q_.next_time();
            log_.push_back(q_.run_until(next + plan.below(12)));
            break;
          }
          case 2:
            log_.push_back(q_.run_until(times[plan.below(16)]));
            break;
          default:
            log_.push_back(q_.next_time());
            log_.push_back(q_.pending());
            break;
        }
      }
    }
    while (q_.step()) {
    }
    log_.push_back(q_.now());
    return log_;
  }

  std::uint64_t events() const { return events_; }

 private:
  /// Schedule one event at `t` through one of the three scheduling calls,
  /// with a rank at or below `t` and a tie that is often 0.
  void schedule_event(int batch, Time t, int depth, Draw& d) {
    static constexpr std::uint64_t kTies[] = {0, 0, 1, 2, 3, 1ULL << 40};
    static constexpr Time kRankLags[] = {0, 1, 3, 7, 16};
    const std::uint64_t id = next_id_++;
    auto fn = [this, id, batch, depth] { execute(id, batch, depth); };
    switch (d.below(4)) {
      case 0:
        q_.schedule_at(t, fn);
        break;
      case 1:
        q_.schedule(t - q_.now(), fn);
        break;
      default: {
        const Time lag = kRankLags[d.below(5)];
        const Time rank = t >= lag ? t - lag : 0;
        q_.schedule_at_ranked(t, rank, kTies[d.below(6)], fn);
        break;
      }
    }
  }

  /// An event logs itself, then schedules up to two children at now() or
  /// a later time of its batch, two generations deep.
  void execute(std::uint64_t id, int batch, int depth) {
    ++events_;
    log_.push_back(id);
    log_.push_back(q_.now());
    if (depth >= 2) return;
    Draw d{splitmix64(seed_ ^ (id * 0x2545f4914f6cdd1dULL))};
    for (std::uint64_t c = d.below(3); c > 0; --c) {
      const Time t = batches_[batch][d.below(16)];
      schedule_event(batch, t < q_.now() ? q_.now() : t, depth + 1, d);
    }
  }

  Q& q_;
  std::uint64_t seed_;
  std::vector<std::array<Time, 16>> batches_;
  std::vector<std::uint64_t> log_;
  std::uint64_t next_id_ = 0;
  std::uint64_t events_ = 0;
};

TEST(Engine, ExecutionOrderMatchesReferenceQueue) {
  for (const std::uint64_t seed : {2021ULL, 7001ULL}) {
    Engine engine;
    RefQueue ref;
    RandomProgram<Engine> on_engine(engine, seed);
    RandomProgram<RefQueue> on_ref(ref, seed);
    const std::vector<std::uint64_t> got = on_engine.run(200, 250);
    const std::vector<std::uint64_t> want = on_ref.run(200, 250);
    ASSERT_GE(on_ref.events(), 100000u) << "seed " << seed;
    std::size_t first_diff = 0;
    while (first_diff < got.size() && first_diff < want.size() &&
           got[first_diff] == want[first_diff]) {
      ++first_diff;
    }
    EXPECT_EQ(first_diff, want.size())
        << "seed " << seed << ": first divergence at log entry "
        << first_diff << " of " << want.size();
    EXPECT_EQ(got.size(), want.size()) << "seed " << seed;
    EXPECT_EQ(on_engine.events(), on_ref.events()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rvma::sim
