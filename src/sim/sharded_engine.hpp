// Sharded parallel discrete-event scheduler (conservative PDES).
//
// K worker Engines advance in lock-step windows. Each shard has its own
// window edge, derived from a per-shard-pair lookahead matrix la[src][dst]
// — the minimum simulated latency for an event on shard src to influence
// shard dst over ANY shard path (a min-plus closed matrix, see
// set_lookahead_matrix): no event executed inside shard dst's window can
// be affected by anything another shard has not yet committed, so each
// shard may run its slice independently and the inter-shard queues only
// need draining at window boundaries. Windows are half-open — workers
// run_until(window_end - 1), strictly before the earliest possible
// cross-shard arrival — which removes the tie hazard of an arrival landing
// exactly on an edge a shard already executed past. See DESIGN.md §12 for
// the model, the closure requirement, and the bit-identity argument.
//
// Two execution modes:
//  * merged (serial emulation) — one thread steps the globally earliest
//    event across all shards while keeping every engine's clock synced to
//    the global time, so cross-engine schedule(delay, ...) calls anchor
//    exactly as a single serial engine would. Used for transport setup,
//    whose handshakes ping-pong between shards with sub-lookahead logical
//    latencies (zero-delay ready callbacks).
//  * windowed — K threads, ONE barrier round per window: each worker
//    publishes its engine's earliest pending event time to a cache-line-
//    padded atomic and arrives at a spin-then-yield barrier; the last
//    arriver runs the completion step (the per-destination window
//    min-reduction) while the others spin; then every worker drains its
//    incoming cross-shard posts (k-way merged by (time, source shard,
//    FIFO index) for determinism) and runs its window. Channels are
//    double-buffered by round parity so a source's writes during round n
//    never race a destination's drain of round n-1 items; the barrier's
//    release sequence gives the unsynchronized single-producer/
//    single-consumer buffers their happens-before edges.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace rvma::sim {

class ShardedEngine {
 public:
  /// Non-owning: the caller (cluster::Cluster) owns the worker Engines —
  /// their count depends on the topology, which is only known after the
  /// first engine's network is built. Attach all engines before any run.
  ShardedEngine() = default;
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  void attach(Engine* e);

  int num_shards() const { return static_cast<int>(engines_.size()); }
  Engine& shard(int k) { return *engines_[static_cast<std::size_t>(k)]; }

  /// Scalar (global-minimum) lookahead: every shard's window is
  /// [t_min, t_min + la) where t_min is the globally earliest pending
  /// event. This is the pre-matrix behavior, kept as the ablation baseline
  /// the windows_executed regression gates compare against. `la` must be
  /// >= 1 (one picosecond) before run_windowed().
  void set_lookahead(Time la);

  /// Per-shard-pair lookahead, row-major [src * K + dst]: a lower bound on
  /// the simulated latency for any event on shard src to influence shard
  /// dst, with kTimeInfinity meaning src can never influence dst (the pair
  /// then never constrains dst's window). Entries MUST be closed under
  /// paths — la[i][j] <= la[i][m] + la[m][j] for all m — or a multi-round
  /// influence chain can outrun a window (DESIGN.md §12 has the
  /// counterexample); cluster::Cluster guarantees this by min-plus closing
  /// the direct crossing-link matrix (net::close_min_latency_matrix).
  /// Finite off-diagonal entries must be >= 1. Diagonal entries are
  /// ignored: the self bound is derived instead as the minimum round trip
  /// min over m != s of la[s][m] + la[m][s] — the earliest a shard's own
  /// event can echo back into it through any peer.
  void set_lookahead_matrix(std::vector<Time> la);

  /// Active per-pair lookahead (kTimeInfinity when src can never reach
  /// dst). Under scalar mode, the scalar for every pair.
  Time lookahead(int src, int dst) const;

  /// True when a per-pair matrix (not the scalar baseline) is active.
  bool lookahead_is_matrix() const { return matrix_mode_; }

  /// Post work onto shard `dst` from shard `src`. `fn` runs on the
  /// destination shard's thread with its engine clock <= `when` and must
  /// itself schedule the real event(s) at `when` (e.g. by calling
  /// Fabric::receive_remote). In merged mode fn runs immediately — every
  /// clock is already synced at or before `when`. In windowed mode it is
  /// queued and runs at the next window boundary; the conservative window
  /// guarantees `when` >= the destination's clock at that point.
  void post(int src, int dst, Time when, Callback fn);

  /// Merged (serial-emulation) phase: repeatedly execute the globally
  /// earliest pending event (ties broken by lowest shard index), keeping
  /// every engine's clock synced to the global time, until `stop_pred`
  /// returns true or every queue drains. Single-threaded.
  void run_merged_until(const std::function<bool()>& stop_pred);

  /// Windowed parallel phase: run all shards to completion on
  /// num_shards() threads. Requires set_lookahead() or
  /// set_lookahead_matrix() first. Returns the maximum engine time across
  /// shards.
  Time run_windowed();

  bool windowed() const { return windowed_; }

  /// Per-shard runtime profile of the windowed loop (ISSUE: PDES runtime
  /// profiling). Wall-clock numbers are measurement, not simulation: they
  /// never feed back into event order, so profiling cannot perturb
  /// results — but they do differ run to run, which is why they live in a
  /// separate profile document, never in the run's metrics registry
  /// (the jobs=1-vs-N and serial-vs-sharded byte-identity gates).
  struct alignas(64) ShardProfile {
    std::uint64_t busy_wall_ns = 0;     ///< inside run_until (working)
    /// Blocked in the window barrier waiting for other shards (for the
    /// last arriver: arrival cost minus its completion-step time).
    std::uint64_t barrier_wait_wall_ns = 0;
    /// Sorting + merging + admitting incoming cross-shard posts.
    std::uint64_t drain_wall_ns = 0;
    /// Running the window min-reduction (only the rounds where this
    /// shard's worker happened to be the last arriver).
    std::uint64_t completion_wall_ns = 0;
    std::uint64_t items_drained = 0;    ///< cross-shard arrivals admitted
    /// Busy time of this shard's most recent window. Stored before the
    /// worker arrives at the barrier, so the completion step that reads
    /// it (critical_busy_wall_ns) is ordered after the store.
    std::uint64_t last_busy_wall_ns = 0;
    obs::Histogram drain_depth;         ///< arrivals per window drain
    /// busy / (busy + wait + drain + completion) in percent; 100 when
    /// nothing ran.
    double utilization_pct() const {
      const std::uint64_t total = busy_wall_ns + barrier_wait_wall_ns +
                                  drain_wall_ns + completion_wall_ns;
      return total == 0 ? 100.0
                        : 100.0 * static_cast<double>(busy_wall_ns) /
                              static_cast<double>(total);
    }
  };

  /// Arm (or disarm) windowed-loop profiling. Call before run_windowed();
  /// costs a few clock reads per shard per window when on, nothing when
  /// off. Arming resets previously accumulated profile state.
  void enable_profiling(bool on);
  bool profiling() const { return profiling_; }

  /// Windows executed (barrier rounds that ran a window) and the
  /// simulated-time stride between consecutive window frontiers (the
  /// minimum window edge across shards) — how much simulated time each
  /// barrier round buys. Both are deterministic (functions of the event
  /// timeline and the lookahead, not of thread timing), so the bench
  /// regression gates can compare them across lookahead modes exactly.
  std::uint64_t windows_executed() const { return windows_; }
  const obs::Histogram& window_stride_ps() const { return window_stride_ps_; }

  const ShardProfile& profile(int k) const {
    return profiles_[static_cast<std::size_t>(k)];
  }

  /// Sum over windows of the busiest shard's busy time: the wall time the
  /// profiled run would take with free barriers. Against the mean shard's
  /// busy total it measures per-window imbalance, which even per-shard
  /// totals hide when the hot shard changes from window to window.
  std::uint64_t critical_busy_wall_ns() const {
    return critical_busy_wall_ns_;
  }

 private:
  /// POD descriptor of one queued cross-shard post. `idx` doubles as the
  /// per-channel FIFO index (posts are appended, so position == arrival
  /// order) and as the subscript of the matching Callback in Channel::fns
  /// — sorting moves 16-byte PODs, never Callbacks.
  struct Desc {
    Time when = 0;
    std::uint32_t idx = 0;
  };
  /// One single-producer/single-consumer queue per (round parity, src,
  /// dst) triple. Written only by src's worker during its window, read
  /// only by dst's worker (and the completion step, for min_when) in the
  /// NEXT round — the parity flip keeps a round's writes and drains in
  /// disjoint buffers, which is what lets one barrier replace two. Padded
  /// so producers on different shards never share a cache line. The
  /// vectors keep their capacity across rounds (reserve-ahead scratch).
  struct alignas(64) Channel {
    std::vector<Desc> descs;
    std::vector<Callback> fns;
    /// Earliest queued `when`; maintained on push, reset on drain. The
    /// completion step folds it into the source's effective earliest time
    /// (drains happen after the barrier, so queued arrivals are not yet
    /// visible in engine next_time()).
    Time min_when = kTimeInfinity;
  };
  /// Cache-line-padded per-shard slots the workers publish their earliest
  /// pending event time into right before arriving at the barrier.
  struct alignas(64) PaddedAtomicTime {
    std::atomic<Time> v{kTimeInfinity};
  };
  struct alignas(64) PaddedTime {
    Time v = 0;
  };

  Channel& channel(int parity, int src, int dst) {
    const std::size_t ks = static_cast<std::size_t>(num_shards());
    return channels_[(static_cast<std::size_t>(parity) * ks +
                      static_cast<std::size_t>(src)) *
                         ks +
                     static_cast<std::size_t>(dst)];
  }

  /// Admit all queued posts for shard k from the drain-parity buffers:
  /// per-channel sort of the POD descriptors by (when, fifo), then a
  /// k-way merge across source channels by (when, src, fifo). Returns the
  /// number of items admitted. `heads` is caller-owned scratch (one merge
  /// cursor per source shard), reused across rounds.
  std::size_t drain_incoming(int k, std::vector<std::uint32_t>& heads);

  /// Barrier completion: runs on exactly one thread (the last arriver)
  /// while all others spin. Flips the channel parity, folds published
  /// engine times with queued channel arrivals into per-shard effective
  /// earliest times, and computes every shard's next window edge — or
  /// flags completion when nothing is pending anywhere.
  void compute_windows();

  /// Run shard k's engine up to its window edge (exclusive). An infinite
  /// edge (no other shard can ever influence k) runs the engine dry
  /// without forcing its clock to the sentinel.
  static void run_window(Engine& eng, Time window_end);

  std::vector<Engine*> engines_;   ///< non-owning, attach() order = shard id
  std::vector<Channel> channels_;  ///< [parity][src][dst], 2 * K * K
  std::vector<Time> la_;           ///< [src * K + dst]; scalar mode fills
  /// Per-shard minimum round trip through any peer (matrix mode): the
  /// self bound in compute_windows(). kTimeInfinity when no peer can both
  /// receive from and send back to the shard.
  std::vector<Time> cycle_;
  Time scalar_lookahead_ = 0;      ///< scalar-mode window width
  bool matrix_mode_ = false;
  bool windowed_ = false;

  // Round state. Written only by compute_windows() (single thread, all
  // others spinning in the barrier); the barrier release gives readers
  // happens-before. write_parity_ is read by workers mid-window (their
  // post() calls), which the same release edge orders.
  std::vector<PaddedTime> window_end_;  ///< per-destination window edge
  /// Worker-published next_time slots (unique_ptr array: atomics are not
  /// movable, so a std::vector cannot hold them across attach() resizes).
  std::unique_ptr<PaddedAtomicTime[]> earliest_;
  std::vector<Time> eff_;  ///< completion scratch: effective earliest
  int write_parity_ = 0;   ///< buffer post() appends to this round
  int drain_parity_ = 1;   ///< buffer drained (and min_when-scanned)
  bool done_ = false;

  // Profiling state. profiles_ elements are single-writer (each shard's
  // worker touches only its own, cache-line padded); the globals below
  // are written only by compute_windows() / its runner thread.
  bool profiling_ = false;
  std::vector<ShardProfile> profiles_;
  std::uint64_t last_completion_wall_ns_ = 0;
  std::uint64_t critical_busy_wall_ns_ = 0;
  std::uint64_t windows_ = 0;
  Time prev_frontier_ = 0;
  obs::Histogram window_stride_ps_;
};

}  // namespace rvma::sim
