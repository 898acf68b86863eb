#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

namespace rvma::sim {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Sense-reversing spin barrier with a completion step. Windows are short
/// (often microseconds of wall time), so a bounded spin beats
/// std::barrier's futex sleep for the common case; past the bound the
/// waiters yield so oversubscribed hosts still make progress. The last
/// arriver runs the completion while the others spin — arrive_and_wait()
/// returns whether the caller was that thread, which is how the profiled
/// loop attributes the completion step's wall time.
///
/// Memory ordering: every arriver's prior writes happen-before the
/// completion (the acq_rel RMW chain on arrived_), and the completion's
/// writes happen-before every waiter's return (generation_ release store /
/// acquire load) — the edges the unsynchronized channel buffers and round
/// state rely on.
class SpinBarrier {
 public:
  SpinBarrier(int n, std::function<void()> completion)
      : n_(n), completion_(std::move(completion)) {}

  bool arrive_and_wait() {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      completion_();
      // Reset before release: a waiter cannot re-arrive until it observes
      // the new generation, which orders this store before its increment.
      arrived_.store(0, std::memory_order_relaxed);
      generation_.store(gen + 1, std::memory_order_release);
      return true;
    }
    std::uint32_t spins = 0;
    while (generation_.load(std::memory_order_acquire) == gen) {
      if (++spins < kSpinIters) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
    return false;
  }

 private:
  static constexpr std::uint32_t kSpinIters = 1u << 12;
  const int n_;
  std::function<void()> completion_;
  alignas(64) std::atomic<int> arrived_{0};
  alignas(64) std::atomic<std::uint64_t> generation_{0};
};

}  // namespace

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::attach(Engine* e) {
  assert(!windowed_ && "cannot attach a shard while windows are running");
  engines_.push_back(e);
  const std::size_t ks = engines_.size();
  channels_.clear();
  channels_.resize(2 * ks * ks);
  window_end_.assign(ks, PaddedTime{});
  eff_.assign(ks, kTimeInfinity);
  earliest_ = std::make_unique<PaddedAtomicTime[]>(ks);
}

void ShardedEngine::set_lookahead(Time la) {
  scalar_lookahead_ = la;
  matrix_mode_ = false;
  la_.clear();
}

void ShardedEngine::set_lookahead_matrix(std::vector<Time> la) {
  const std::size_t ks = static_cast<std::size_t>(num_shards());
  assert(la.size() == ks * ks &&
         "lookahead matrix must be K x K (attach all shards first)");
  la_ = std::move(la);
  matrix_mode_ = true;
  // Minimum round trip per shard: the cheapest way an event can leave
  // shard s, touch any other shard, and come back. This bounds s's window
  // against its OWN pending events — without it a shard whose peers are
  // all idle would run unboundedly ahead, and a peer woken by its posts
  // could answer into its already-executed past (see compute_windows).
  cycle_.assign(ks, kTimeInfinity);
  for (std::size_t s = 0; s < ks; ++s) {
    for (std::size_t m = 0; m < ks; ++m) {
      if (m == s) continue;
      const Time out = la_[s * ks + m], back = la_[m * ks + s];
      if (out == kTimeInfinity || back == kTimeInfinity) continue;
      const Time rt =
          (kTimeInfinity - out < back) ? kTimeInfinity : out + back;
      cycle_[s] = std::min(cycle_[s], rt);
    }
  }
}

Time ShardedEngine::lookahead(int src, int dst) const {
  if (!matrix_mode_) return scalar_lookahead_;
  return la_[static_cast<std::size_t>(src) *
                 static_cast<std::size_t>(num_shards()) +
             static_cast<std::size_t>(dst)];
}

void ShardedEngine::post(int src, int dst, Time when, Callback fn) {
  assert(src >= 0 && src < num_shards() && dst >= 0 && dst < num_shards());
  if (!windowed_) {
    // Merged mode: every engine's clock is synced at or before the global
    // time, and `when` is in the (possibly immediate) future — the hook
    // can schedule on the destination engine right now.
    assert(engines_[static_cast<std::size_t>(dst)]->now() <= when);
    fn();
    return;
  }
  Channel& ch = channel(write_parity_, src, dst);
  ch.descs.push_back(Desc{when, static_cast<std::uint32_t>(ch.fns.size())});
  ch.fns.push_back(std::move(fn));
  if (when < ch.min_when) ch.min_when = when;
}

void ShardedEngine::run_merged_until(const std::function<bool()>& stop_pred) {
  assert(!windowed_);
  while (!stop_pred()) {
    Time t = kTimeInfinity;
    int best = -1;
    for (int k = 0; k < num_shards(); ++k) {
      const Time nt = engines_[static_cast<std::size_t>(k)]->next_time();
      if (nt < t) {
        t = nt;
        best = k;
      }
    }
    if (best < 0) return;  // every queue drained before the predicate fired
    // Sync every idle engine to the global frontier first, so anything the
    // stepped event schedules on a *different* engine (via a transport's
    // engine_for(...).schedule(delay, ...)) anchors at the same absolute
    // time a single serial engine would have used.
    for (auto& e : engines_) e->sync_clock(t);
    engines_[static_cast<std::size_t>(best)]->step();
  }
}

std::size_t ShardedEngine::drain_incoming(int k,
                                          std::vector<std::uint32_t>& heads) {
  const int K = num_shards();
  std::size_t total = 0;
  int active_channels = 0;
  for (int src = 0; src < K; ++src) {
    Channel& ch = channel(drain_parity_, src, k);
    if (ch.descs.empty()) continue;
    // Per-channel sort of the POD descriptors: (when, fifo). `idx` is the
    // append position, i.e. the FIFO index.
    std::sort(ch.descs.begin(), ch.descs.end(),
              [](const Desc& a, const Desc& b) {
                return a.when != b.when ? a.when < b.when : a.idx < b.idx;
              });
    total += ch.descs.size();
    ++active_channels;
  }
  if (total == 0) return 0;
  // Deterministic admission order across channels: by event time, then
  // source shard, then the per-channel FIFO index — the exact order one
  // big sort of all items would give, so equal-time arrivals tie-break
  // run-invariantly regardless of thread timing. Each hook immediately
  // schedules its real event(s) on this shard's engine.
  if (active_channels == 1) {
    for (int src = 0; src < K; ++src) {
      Channel& ch = channel(drain_parity_, src, k);
      for (const Desc& d : ch.descs) ch.fns[d.idx]();
    }
  } else {
    // K-way merge over the sorted channels; K is small (<= hardware
    // threads), so a linear scan of the head cursors beats a heap.
    heads.assign(static_cast<std::size_t>(K), 0);
    for (std::size_t admitted = 0; admitted < total; ++admitted) {
      int best = -1;
      Time best_when = kTimeInfinity;
      for (int src = 0; src < K; ++src) {
        Channel& ch = channel(drain_parity_, src, k);
        const std::uint32_t h = heads[static_cast<std::size_t>(src)];
        if (h >= ch.descs.size()) continue;
        const Time when = ch.descs[h].when;
        if (best < 0 || when < best_when) {  // ties: lowest src wins
          best = src;
          best_when = when;
        }
      }
      Channel& ch = channel(drain_parity_, best, k);
      const Desc& d = ch.descs[heads[static_cast<std::size_t>(best)]++];
      ch.fns[d.idx]();
    }
  }
  for (int src = 0; src < K; ++src) {
    Channel& ch = channel(drain_parity_, src, k);
    ch.descs.clear();  // keeps capacity: reserve-ahead scratch across rounds
    ch.fns.clear();
    ch.min_when = kTimeInfinity;
  }
  return total;
}

void ShardedEngine::compute_windows() {
  const int K = num_shards();
  // The buffers written during the round that just ended become this
  // round's drain set; posts made during the upcoming round go to the
  // other buffer, so drains never race writes.
  drain_parity_ = write_parity_;
  write_parity_ ^= 1;
  // Effective earliest time per shard: its engine's earliest pending
  // event, or an undrained queued arrival destined to it, whichever is
  // sooner. Drains happen after this barrier, so the channel backlog is
  // not yet visible in the published next_time().
  bool any_pending = false;
  for (int s = 0; s < K; ++s) {
    Time e = earliest_[s].v.load(std::memory_order_relaxed);
    for (int src = 0; src < K; ++src) {
      e = std::min(e, channel(drain_parity_, src, s).min_when);
    }
    eff_[static_cast<std::size_t>(s)] = e;
    any_pending = any_pending || e != kTimeInfinity;
  }
  if (!any_pending) {
    done_ = true;
    return;
  }
  Time frontier = kTimeInfinity;
  if (!matrix_mode_) {
    // Scalar baseline: one global window [t_min, t_min + la) for every
    // shard — including the shard holding t_min itself, which is what
    // pins the old behavior to the global minimum and what the matrix
    // ablation gates measure against.
    Time tmin = kTimeInfinity;
    for (int s = 0; s < K; ++s) {
      tmin = std::min(tmin, eff_[static_cast<std::size_t>(s)]);
    }
    const Time w = tmin + scalar_lookahead_;
    for (int dst = 0; dst < K; ++dst) {
      window_end_[static_cast<std::size_t>(dst)].v = w;
    }
    frontier = w;
  } else {
    // Per-destination window: bounded by every OTHER shard's effective
    // earliest plus the (path-closed) pair lookahead, and by the shard's
    // own effective earliest plus its minimum round trip (cycle_). The
    // self term replaces the scalar mode's blanket self-inclusion: a
    // shard's own event at t can re-enter it no earlier than t + cycle —
    // at least twice the pair minimum — so the globally-last shard
    // catches up at double the scalar stride instead of creeping at the
    // global minimum, and a shard whose peers are all idle still cannot
    // outrun its own echoes. Unreachable sources (la == inf) and
    // drained-dry sources (eff == inf) drop out entirely.
    const std::size_t ks = static_cast<std::size_t>(K);
    for (int dst = 0; dst < K; ++dst) {
      Time w = kTimeInfinity;
      for (int src = 0; src < K; ++src) {
        const Time la = src == dst
                            ? cycle_[static_cast<std::size_t>(dst)]
                            : la_[static_cast<std::size_t>(src) * ks +
                                  static_cast<std::size_t>(dst)];
        const Time e = eff_[static_cast<std::size_t>(src)];
        if (la == kTimeInfinity || e == kTimeInfinity) continue;
        const Time cand = (kTimeInfinity - e < la) ? kTimeInfinity : e + la;
        if (cand < w) w = cand;
      }
      window_end_[static_cast<std::size_t>(dst)].v = w;
      if (w < frontier) frontier = w;
    }
  }
  ++windows_;
  // Stride = simulated time a barrier round bought, measured at the
  // frontier (minimum window edge): deterministic, a pure function of the
  // event timeline and the lookahead, unlike the wall clocks. The closure
  // property makes the frontier monotone, so the stride is well-defined.
  if (frontier != kTimeInfinity) {
    if (prev_frontier_ != 0 && frontier > prev_frontier_) {
      window_stride_ps_.record(frontier - prev_frontier_);
    }
    prev_frontier_ = frontier;
  }
}

void ShardedEngine::run_window(Engine& eng, Time window_end) {
  if (window_end == kTimeInfinity) {
    // No other shard can ever influence this one (every pair lookahead
    // into it is infinite, or every other shard drained dry): run the
    // queue dry. Engine::run() leaves the clock on the last executed
    // event instead of forcing it to the sentinel.
    eng.run();
  } else {
    // Strictly-exclusive window: every cross-shard arrival generated in
    // it lands at >= window_end, which this deadline never reaches.
    eng.run_until(window_end - 1);
  }
}

void ShardedEngine::enable_profiling(bool on) {
  assert(!windowed_ && "cannot toggle profiling while windows are running");
  profiling_ = on;
  profiles_.assign(static_cast<std::size_t>(num_shards()), ShardProfile{});
  last_completion_wall_ns_ = 0;
  critical_busy_wall_ns_ = 0;
  windows_ = 0;
  prev_frontier_ = 0;
  window_stride_ps_ = obs::Histogram{};
}

Time ShardedEngine::run_windowed() {
  const int K = num_shards();
  if (matrix_mode_) {
    assert(la_.size() == static_cast<std::size_t>(K) *
                             static_cast<std::size_t>(K) &&
           "lookahead matrix size mismatch (attach all shards first)");
#ifndef NDEBUG
    for (int src = 0; src < K; ++src) {
      for (int dst = 0; dst < K; ++dst) {
        if (src == dst) continue;
        const Time la = lookahead(src, dst);
        assert((la >= 1 || la == kTimeInfinity) &&
               "windowed execution requires pair lookahead >= 1ps");
      }
    }
#endif
  } else {
    assert(scalar_lookahead_ >= 1 &&
           "windowed execution requires lookahead >= 1ps");
  }
  done_ = false;
  windowed_ = true;
  write_parity_ = 0;
  drain_parity_ = 1;
  if (profiling_ && profiles_.size() != static_cast<std::size_t>(K)) {
    profiles_.assign(static_cast<std::size_t>(K), ShardProfile{});
  }
  // The first completion of this run must not count a window of an
  // earlier one.
  for (ShardProfile& prof : profiles_) prof.last_busy_wall_ns = 0;

  using Clock = std::chrono::steady_clock;
  SpinBarrier barrier(K, [this]() noexcept {
    if (profiling_) {
      const auto c0 = Clock::now();
      std::uint64_t busiest = 0;
      for (const ShardProfile& prof : profiles_) {
        busiest = std::max(busiest, prof.last_busy_wall_ns);
      }
      critical_busy_wall_ns_ += busiest;
      compute_windows();
      last_completion_wall_ns_ = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               c0)
              .count());
    } else {
      compute_windows();
    }
  });

  // One barrier round per window: publish earliest -> arrive (completion
  // computes every shard's window edge, or the done flag) -> drain the
  // previous round's incoming posts -> run the window.
  auto body = [&](int k) {
    Engine& eng = *engines_[static_cast<std::size_t>(k)];
    std::vector<std::uint32_t> heads;  // k-way merge cursors, reused
    if (profiling_) {
      // Profiled variant of the loop below: identical publish/barrier/
      // drain/run structure, plus wall-clock attribution (barrier wait vs
      // completion step vs drain vs useful work) and per-drain depth
      // accounting. Wall clocks are observation only — they never
      // influence event execution.
      auto ns_between = [](Clock::time_point a, Clock::time_point b) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                .count());
      };
      ShardProfile& prof = profiles_[static_cast<std::size_t>(k)];
      for (;;) {
        earliest_[k].v.store(eng.next_time(), std::memory_order_relaxed);
        const auto t0 = Clock::now();
        const bool ran_completion = barrier.arrive_and_wait();
        const auto t1 = Clock::now();
        std::uint64_t wait_ns = ns_between(t0, t1);
        if (ran_completion) {
          // The completion ran inside this thread's arrive: split its
          // cost out of the wait.
          prof.completion_wall_ns += last_completion_wall_ns_;
          wait_ns -= std::min(wait_ns, last_completion_wall_ns_);
        }
        prof.barrier_wait_wall_ns += wait_ns;
        if (done_) return;
        const auto t2 = Clock::now();
        const std::size_t n = drain_incoming(k, heads);
        const auto t3 = Clock::now();
        prof.drain_wall_ns += ns_between(t2, t3);
        prof.items_drained += n;
        prof.drain_depth.record(n);
        run_window(eng, window_end_[static_cast<std::size_t>(k)].v);
        prof.last_busy_wall_ns = ns_between(t3, Clock::now());
        prof.busy_wall_ns += prof.last_busy_wall_ns;
      }
    }
    for (;;) {
      earliest_[k].v.store(eng.next_time(), std::memory_order_relaxed);
      barrier.arrive_and_wait();
      if (done_) return;
      drain_incoming(k, heads);
      run_window(eng, window_end_[static_cast<std::size_t>(k)].v);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) {
    threads.emplace_back(body, k);
  }
  for (std::thread& t : threads) t.join();

  windowed_ = false;
  Time max_now = 0;
  for (auto& e : engines_) max_now = std::max(max_now, e->now());
  return max_now;
}

}  // namespace rvma::sim
