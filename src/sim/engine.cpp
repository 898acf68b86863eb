#include "sim/engine.hpp"

#include <cassert>
#include <utility>

#include "obs/sampler.hpp"

namespace rvma::sim {

void Engine::set_sampler(obs::Sampler* sampler) {
  sampler_ = sampler;
  sampler_due_ =
      sampler_ != nullptr ? sampler_->next_due() : kTimeInfinity;
}

Engine::HeapEntry Engine::heap_pop() {
  const HeapEntry top = heap_.front();
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    // Sift `last` down from the root.
    HeapEntry* const h = heap_.data();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      if (first + 4 <= n) {
        best += earliest_of_four(h + first);
      } else {
        // The one partial group, at the bottom level.
        for (std::size_t c = first + 1; c < n; ++c) {
          if (before(h[c], h[best])) best = c;
        }
      }
      if (!before(h[best], last)) break;
      h[i] = h[best];
      i = best;
    }
    h[i] = last;
  }
  return top;
}

std::size_t Engine::earliest_of_four(const HeapEntry* c) {
  // Earliest time by a select tournament with no data-dependent branch;
  // strict `<` keeps the lowest index of equal times. The winning index
  // is mask arithmetic, which the compiler keeps branch-free where a `?:`
  // on the final comparison comes out as a jump.
  const Time t0 = c[0].time, t1 = c[1].time, t2 = c[2].time, t3 = c[3].time;
  const Time ta = t1 < t0 ? t1 : t0;
  const Time tb = t3 < t2 ? t3 : t2;
  const Time tmin = tb < ta ? tb : ta;
  const std::size_t a = t1 < t0;
  const std::size_t b = 2 + (t3 < t2);
  const std::size_t take_b = std::size_t{0} - (tb < ta);
  std::size_t best = a ^ ((a ^ b) & take_b);
  const int sharing = (t0 == tmin) + (t1 == tmin) + (t2 == tmin) + (t3 == tmin);
  if (sharing > 1) [[unlikely]] {
    // Siblings share the earliest time: (rank, tie, seq) decides.
    for (std::size_t k = best + 1; k < 4; ++k) {
      if (before(c[k], c[best])) best = k;
    }
  }
  return best;
}

bool Engine::step() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_pop();
  now_ = top.time;
  last_event_ = top.time;
  ++executed_;
  // Sampling hook: the callback for `top` has not run yet, so the state
  // visible here is exactly the state at every period boundary in
  // (previous event, now] — the sampler stamps those rows without adding
  // engine events. One comparison when no sampler is armed.
  if (now_ >= sampler_due_) {
    sampler_due_ = sampler_->on_tick(now_);
  }
  Slot& s = slot(top.slot());
  // Invoke in place: slot pages never move, so callbacks scheduled during
  // fn() (which may grow the pool) cannot invalidate the running callable.
  // The slot is released only after fn() returns, so a nested schedule can
  // never reuse the storage of the callback currently executing.
  s.fn.invoke_and_reset();
  release_slot(top.slot());
  return true;
}

Time Engine::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
  return now_;
}

Time Engine::run_until(Time deadline) {
  stopped_ = false;
  while (!stopped_ && !heap_.empty() && heap_.front().time <= deadline) {
    step();
  }
  // Advance the clock to the deadline unconditionally (unless stopped):
  // callers treat run_until as "simulate this span", so relative schedules
  // issued afterwards must be anchored at the deadline even when events
  // remain queued beyond it.
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
  return now_;
}

}  // namespace rvma::sim
