// Parallel executor for independent simulation jobs.
//
// The evaluation suite (Figures 7/8 motif grids, the validation sweep,
// the ablation benches) is a grid of self-contained (config -> result)
// simulations: each job builds its own Cluster/Engine (and, when armed,
// its own flight recorders), so nothing is shared between jobs but the
// log sink, which formats whole lines before one write. This executor runs
// such grids across all cores with a small work-stealing thread pool and
// returns results indexed by job, so callers print tables in
// deterministic grid order no matter which worker finished what first.
//
// Determinism contract: jobs must not read or write process-global
// mutable state (seed every run from its grid coordinates, never from a
// shared RNG), and results are written to per-index slots — then the
// output is bit-identical to running the same jobs serially.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

namespace rvma::exec {

/// Worker count used for `jobs <= 0`: the hardware concurrency, at least 1.
int hardware_jobs();

class SweepExecutor {
 public:
  /// `jobs <= 0` selects hardware_jobs().
  explicit SweepExecutor(int jobs = 0);

  int jobs() const { return jobs_; }

  /// Run fn(i) for every i in [0, n) across min(jobs, n) workers and block
  /// until all jobs finished. A throwing job stores its exception at its
  /// index and does not affect the other jobs. With one effective worker
  /// (jobs()==1 or n<=1) everything runs inline on the calling thread, in
  /// index order — the serial baseline path spawns no threads at all.
  ///
  /// Returns the per-index exceptions; entry i is null when job i
  /// succeeded. The vector is empty when n == 0.
  std::vector<std::exception_ptr> run(
      std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  int jobs_ = 1;
};

/// Map [0, n) through `fn` with `jobs` workers and return the results in
/// index order. R must be default-constructible and movable. The first
/// job exception (lowest index) is rethrown after all jobs finished.
template <typename R, typename Fn>
std::vector<R> sweep_map(int jobs, std::size_t n, Fn&& fn) {
  std::vector<R> out(n);
  SweepExecutor executor(jobs);
  auto errors =
      executor.run(n, [&](std::size_t i) { out[i] = fn(i); });
  for (std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return out;
}

}  // namespace rvma::exec
