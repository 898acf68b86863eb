// Hot-path microbenchmark: event-engine throughput, fabric packet
// throughput, and per-event heap-allocation counts.
//
// Emits BENCH_engine.json (path via argv[1], default ./BENCH_engine.json)
// with a `baseline` block recorded from the pre-rewrite engine (seed
// d9148ab: std::function callbacks + std::priority_queue + per-packet
// hash-map dispatch) so every future PR can see the perf trajectory.
//
// Workloads mirror what the simulator actually does per event:
//  * chain  — one event schedules the next (a packet hopping switches),
//             carrying a ~64-byte capture (the size of a Packet closure).
//  * fanout — many events pending at once (heap depth stress).
//  * fabric — real Cluster: multi-packet messages through the star fabric
//             and the NIC dispatch path.
//  * api    — the rvma.h put/completion path: a closed loop of
//             single-packet puts into a catch-all window (the kv_store
//             pattern).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <vector>

#include "api/rvma.h"
#include "common/rss.hpp"
#include "net/topology.hpp"
#include "cluster/cluster.hpp"
#include "motifs/halo3d.hpp"
#include "motifs/runner.hpp"
#include "motifs/rvma_transport.hpp"
#include "motifs/sweep3d.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

// ------------------------------------------------------------------
// Counting allocator hook: every global new/delete in the process bumps
// a counter, so "allocations per steady-state event" is measured, not
// guessed. Relaxed atomics: the shard-scaling section below runs worker
// threads, and the single-threaded sections don't care about ordering.
static std::atomic<std::uint64_t> g_alloc_count{0};
static std::atomic<std::uint64_t> g_alloc_bytes{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using rvma::Time;
using rvma::sim::Engine;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// ~64-byte payload, the size of a fabric/NIC packet closure.
struct HopPayload {
  std::uint64_t words[8];
};

struct RunStats {
  double events_per_sec = 0;
  double allocs_per_event = 0;
  std::uint64_t events = 0;
};

/// `with_recorder` attaches an armed flight recorder for the whole run.
/// The chain workload hits no frecord() sites, so this measures exactly
/// what the recorder contract promises: an armed ring must not slow the
/// event loop itself (run_bench.sh bounds the delta at 5%).
RunStats bench_chain(std::uint64_t n, bool with_recorder = false) {
  Engine engine;
  rvma::obs::FlightRecorder recorder;
  if (with_recorder) engine.set_flight_recorder(&recorder);
  HopPayload payload{};
  std::uint64_t remaining = n;
  std::uint64_t sink = 0;
  // Warm the engine's internal storage, then count a steady-state window.
  struct Hop {
    Engine& engine;
    std::uint64_t& remaining;
    std::uint64_t& sink;
    HopPayload payload;
    void operator()() const {
      sink += payload.words[0];
      if (--remaining > 0) {
        Hop next = *this;
        ++next.payload.words[0];
        engine.schedule(100, next);
      }
    }
  };
  engine.schedule(0, Hop{engine, remaining, sink, payload});
  // Warm-up: run a slice of the chain so free lists / vectors are sized.
  while (remaining > n - n / 10 && engine.step()) {
  }
  const std::uint64_t allocs_before = g_alloc_count;
  const std::uint64_t events_before = engine.executed_events();
  const auto t0 = std::chrono::steady_clock::now();
  engine.run();
  const double dt = seconds_since(t0);
  const std::uint64_t events = engine.executed_events() - events_before;
  RunStats out;
  out.events = events;
  out.events_per_sec = static_cast<double>(events) / dt;
  out.allocs_per_event =
      static_cast<double>(g_alloc_count - allocs_before) / events;
  if (sink == 0xdeadbeef) std::printf("unreachable\n");
  return out;
}

RunStats bench_fanout(std::uint64_t n, std::uint64_t pending) {
  Engine engine;
  std::uint64_t sink = 0;
  HopPayload payload{};
  // Keep `pending` events outstanding; each executed event re-arms one at a
  // pseudo-random future time (heap churn at realistic depth).
  std::uint64_t scheduled = 0;
  std::uint64_t next_delay = 12345;
  struct Arm {
    Engine& engine;
    std::uint64_t& sink;
    std::uint64_t& scheduled;
    std::uint64_t& next_delay;
    std::uint64_t budget;
    HopPayload payload;
    void operator()() const {
      sink += payload.words[1];
      if (scheduled < budget) {
        ++scheduled;
        next_delay = next_delay * 6364136223846793005ULL + 1442695040888963407ULL;
        Arm next = *this;
        engine.schedule(1 + (next_delay >> 33) % 1000, next);
      }
    }
  };
  for (std::uint64_t i = 0; i < pending; ++i) {
    ++scheduled;
    next_delay = next_delay * 6364136223846793005ULL + 1442695040888963407ULL;
    engine.schedule_at(1 + (next_delay >> 33) % 1000,
                       Arm{engine, sink, scheduled, next_delay, n, payload});
  }
  // Warm-up slice.
  for (std::uint64_t i = 0; i < n / 10 && engine.step(); ++i) {
  }
  const std::uint64_t allocs_before = g_alloc_count;
  const std::uint64_t events_before = engine.executed_events();
  const auto t0 = std::chrono::steady_clock::now();
  engine.run();
  const double dt = seconds_since(t0);
  const std::uint64_t events = engine.executed_events() - events_before;
  RunStats out;
  out.events = events;
  out.events_per_sec = static_cast<double>(events) / dt;
  out.allocs_per_event =
      static_cast<double>(g_alloc_count - allocs_before) / events;
  if (sink == 0xdeadbeef) std::printf("unreachable\n");
  return out;
}

struct FabricStatsOut {
  double packets_per_sec = 0;
  double events_per_sec = 0;
  double allocs_per_packet = 0;
  std::uint64_t packets = 0;
};

/// Traffic shape: kRing streams node -> node+1 (disjoint paths, no
/// contention); kIncast streams every node -> node 0 (ejection
/// contention).
enum class Pattern { kRing, kIncast };

/// `record` arms the cluster's flight recorder, so every message/packet
/// actually writes span records (the armed-and-recording cost, as opposed
/// to bench_chain's armed-but-idle cost).
FabricStatsOut bench_fabric(std::uint64_t messages, std::uint64_t msg_bytes,
                            Pattern pattern, bool record = false) {
  namespace net = rvma::net;
  namespace nic = rvma::nic;
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kStar;
  cfg.nodes_hint = 8;
  rvma::cluster::Cluster cluster(cfg, nic::NicParams{});
  if (record) cluster.arm_flight_recorder();
  const int n = cluster.num_nodes();
  // Each sender keeps a small window of messages in flight and re-arms when
  // the *last packet of a message is delivered* (not when it is injected:
  // injection-time re-arm grows the in-flight population without bound,
  // which measures ramp allocation instead of steady state).
  constexpr int kWindow = 2;
  std::vector<int> outstanding(static_cast<std::size_t>(n), 0);
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::function<void(int)> send_next = [&](int node) {
    while (outstanding[static_cast<std::size_t>(node)] < kWindow &&
           sent < messages) {
      ++sent;
      ++outstanding[static_cast<std::size_t>(node)];
      net::Message msg;
      msg.src = node;
      msg.dst = pattern == Pattern::kIncast ? 0 : (node + 1) % n;
      msg.bytes = msg_bytes;
      msg.hdr.kind = net::make_kind(nic::kProtoRdma, 1);
      cluster.nic(node).send(std::move(msg), [] {});
    }
  };
  for (int node = 0; node < n; ++node) {
    cluster.nic(node).register_proto(
        nic::kProtoRdma, [&](const net::Packet& pkt) {
          ++received;
          if (pkt.seq + 1 == pkt.total) {
            --outstanding[static_cast<std::size_t>(pkt.src)];
            send_next(pkt.src);
          }
        });
  }
  for (int node = pattern == Pattern::kIncast ? 1 : 0; node < n; ++node) {
    send_next(node);
  }
  // Warm-up slice.
  for (int i = 0; i < 20000 && cluster.engine().step(); ++i) {
  }
  const std::uint64_t allocs_before = g_alloc_count;
  const std::uint64_t events_before = cluster.engine().executed_events();
  const std::uint64_t pkts_before =
      cluster.network().fabric().stats().packets_delivered;
  const auto t0 = std::chrono::steady_clock::now();
  cluster.engine().run();
  const double dt = seconds_since(t0);
  const std::uint64_t pkts =
      cluster.network().fabric().stats().packets_delivered - pkts_before;
  const std::uint64_t events =
      cluster.engine().executed_events() - events_before;
  FabricStatsOut out;
  out.packets = pkts;
  out.packets_per_sec = static_cast<double>(pkts) / dt;
  out.events_per_sec = static_cast<double>(events) / dt;
  out.allocs_per_packet =
      static_cast<double>(g_alloc_count - allocs_before) / pkts;
  if (received == 0) std::printf("unreachable\n");
  return out;
}

struct ApiStatsOut {
  double messages_per_sec = 0;
  double allocs_per_message = 0;
  std::uint64_t messages = 0;
};

/// The kv_store request path on rvma.h: node 0 keeps kLanes single-packet
/// rvma_puts in flight to node 1's catch-all window, whose observer
/// re-posts each completed buffer and releases the next put. After a
/// warm-up that fills the server's poll ring, `messages` completions are
/// timed and their allocations counted.
ApiStatsOut bench_api(std::uint64_t messages) {
  namespace net = rvma::net;
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kStar;
  cfg.nodes_hint = 2;
  rvma::cluster::Cluster cluster(cfg, rvma::nic::NicParams{});
  constexpr std::int64_t kRecord = 80;  // 16-byte header + 64-byte value
  constexpr int kLanes = 4;
  constexpr std::uint64_t kWarmup = 4096;
  constexpr std::uint64_t kRequestVaddr = 0x44D0DEADULL;
  struct Loop {
    rvma_ctx client = nullptr;
    rvma_win catch_all = nullptr;
    std::vector<std::byte> request;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t limit = 0;
    void put() {
      ++sent;
      rvma_put(client, request.data(), 1, kRequestVaddr, kRecord);
    }
  } loop;
  loop.client = rvma_initialize(&cluster, 0);
  rvma_ctx server = rvma_initialize(&cluster, 1);
  loop.request.assign(kRecord, std::byte{0x5A});
  loop.limit = kWarmup + messages;
  loop.catch_all = rvma_init_catch_all(server, kRecord, RVMA_EPOCH_BYTES);
  std::vector<std::byte> pool(static_cast<std::size_t>(kRecord) *
                              (kLanes + 8));
  for (std::size_t off = 0; off < pool.size();
       off += static_cast<std::size_t>(kRecord)) {
    rvma_post_buffer(loop.catch_all, pool.data() + off, kRecord, nullptr);
  }
  rvma_win_observe(
      loop.catch_all,
      [](void* arg, void* buf, std::int64_t) {
        auto* l = static_cast<Loop*>(arg);
        ++l->received;
        rvma_post_buffer(l->catch_all, buf, kRecord, nullptr);
        if (l->sent < l->limit) l->put();
      },
      &loop);
  for (int lane = 0; lane < kLanes; ++lane) loop.put();
  while (loop.received < kWarmup && cluster.engine().step()) {
  }
  const std::uint64_t allocs_before = g_alloc_count;
  const std::uint64_t received_before = loop.received;
  const auto t0 = std::chrono::steady_clock::now();
  cluster.engine().run();
  const double dt = seconds_since(t0);
  ApiStatsOut out;
  out.messages = loop.received - received_before;
  out.messages_per_sec = static_cast<double>(out.messages) / dt;
  out.allocs_per_message =
      static_cast<double>(g_alloc_count - allocs_before) /
      static_cast<double>(out.messages);
  rvma_finalize(loop.client);
  rvma_finalize(server);
  return out;
}

struct ShardRow {
  int shards = 1;         ///< requested --par-shards value
  int effective = 1;      ///< after the cluster's exactness clamps
  double wall_seconds = 0;
  double speedup = 1.0;   ///< vs the shards=1 row
  rvma::Time makespan = 0;
  rvma::obs::MetricsSnapshot profile;  ///< collect_pdes_profile() of the run
};

std::uint64_t profile_counter(const rvma::obs::MetricsSnapshot& snap,
                              const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

std::int64_t profile_gauge(const rvma::obs::MetricsSnapshot& snap,
                           const std::string& name) {
  const auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? 0 : it->second;
}

const rvma::obs::HistogramSnapshot* profile_hist(
    const rvma::obs::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? nullptr : &it->second;
}

/// PDES shard scaling: one 2,048-rank Fig 7 cell — torus3d-static
/// Sweep3D over RVMA with the fig7 motif parameters at 100 Gb/s — run
/// serially and with 2/4/8 shards. It lasts seconds serially, so the
/// speedup measures window execution, not thread start-up. The makespan
/// must be identical at every K (the bit-identity contract, DESIGN.md
/// §12) — a mismatch aborts the bench. Speedups are wall-clock only and
/// bounded by physical cores; on a single-core host every row degenerates
/// to ~1x plus window overhead.
std::vector<ShardRow> bench_pdes_shards() {
  namespace net = rvma::net;
  namespace nic = rvma::nic;
  using rvma::cluster::Cluster;
  using rvma::motifs::build_sweep3d;
  using rvma::motifs::MotifRunner;
  using rvma::motifs::RvmaTransport;
  using rvma::motifs::Sweep3DConfig;

  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kTorus3D;
  cfg.routing = net::Routing::kStatic;
  cfg.nodes_hint = 2048;
  cfg.seed = 11;

  // bench/fig7_sweep3d's parameters on the near-square process grid the
  // scenario layer derives for 2,048 ranks.
  Sweep3DConfig sweep;
  sweep.pex = sweep.pey = 45;  // 2,025 ranks
  sweep.nx = sweep.ny = 48;
  sweep.nz = 64;
  sweep.kba = 8;
  sweep.vars = 4;
  sweep.compute_per_cell = 20 * rvma::kPicosecond;

  std::vector<ShardRow> rows;
  for (int k : {1, 2, 4, 8}) {
    Cluster cluster(cfg, nic::NicParams{}, k);
    // Profile the timed run itself: per-window steady_clock reads are
    // noise next to window execution, and the profile then describes
    // exactly the run whose speedup is reported.
    cluster.enable_pdes_profiling();
    RvmaTransport transport(cluster, rvma::core::RvmaParams{});
    const auto t0 = std::chrono::steady_clock::now();
    const auto result =
        MotifRunner(cluster, transport, build_sweep3d(sweep)).run();
    ShardRow row;
    row.shards = k;
    row.effective = cluster.num_shards();
    row.wall_seconds = seconds_since(t0);
    row.makespan = result.makespan;
    row.profile = cluster.collect_pdes_profile();
    row.speedup = rows.empty() ? 1.0
                               : rows.front().wall_seconds / row.wall_seconds;
    if (!rows.empty() && row.makespan != rows.front().makespan) {
      std::fprintf(stderr,
                   "ERROR: pdes shards=%d makespan %llu != serial %llu\n", k,
                   static_cast<unsigned long long>(row.makespan),
                   static_cast<unsigned long long>(rows.front().makespan));
      std::exit(1);
    }
    rows.push_back(row);
  }
  return rows;
}

struct WindowGateRow {
  int effective = 1;                  ///< effective shard count (matrix run)
  std::uint64_t windows_matrix = 0;   ///< barrier rounds, per-pair matrix
  std::uint64_t windows_scalar = 0;   ///< barrier rounds, scalar ablation
  double reduction = 0;               ///< scalar / matrix
  double stride_mean_matrix_ps = 0;   ///< mean frontier stride per round
  double stride_mean_scalar_ps = 0;
  std::int64_t lookahead_min_ps = 0;  ///< matrix spread (gauges)
  std::int64_t lookahead_max_ps = 0;
  std::int64_t lookahead_mean_ps = 0;
  rvma::Time makespan = 0;
};

/// Deterministic windows_executed regression gate: a 1024-rank Sweep3D
/// wavefront on an 8-group dragonfly (a=1, h=7, p=128 — eight
/// single-switch groups fully meshed by 5us global links), run at K=8
/// twice — once with the per-shard-pair lookahead matrix (the default)
/// and once forced back to the scalar global-minimum lookahead (the
/// pre-matrix ablation). Each shard is exactly one group, so EVERY
/// cross-shard crossing is a 5us optical link while intra-shard hops
/// (node - switch - node) stay at ~100ns copper granularity. The 1-D
/// pipeline keeps a single shard active (all others publish +inf), so
/// the matrix window is the active shard's self bound — its minimum
/// round trip, 2 x 5us — and swallows twice the event clusters per
/// barrier round that the scalar window (global-min crossing, 5us)
/// does: the windows ratio lands at the self-cycle regime's 2.0 cap.
/// The spread between crossing latency and intra-shard event spacing is
/// what the matrix monetizes; on a topology whose slab boundaries are
/// crossed by short links (the balanced dragonfly, any torus slab
/// chain), cycle collapses to 2 x 100ns, below the per-rank event
/// spacing, and both modes pay one round per event cluster (measured
/// ratio 1.00-1.07 — see EXPERIMENTS.md). Window counts are pure
/// functions of the event timeline and the lookahead (no wall clock, no
/// thread timing), so run_bench.sh gates the reduction ratio hard on
/// any host, including single-core ones. All three runs (serial,
/// matrix, scalar) must agree on the makespan; a mismatch aborts the
/// bench.
WindowGateRow bench_pdes_windows() {
  namespace net = rvma::net;
  namespace nic = rvma::nic;
  using rvma::cluster::Cluster;
  using rvma::motifs::build_sweep3d;
  using rvma::motifs::MotifRunner;
  using rvma::motifs::RvmaTransport;
  using rvma::motifs::Sweep3DConfig;

  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kDragonfly;
  cfg.routing = net::Routing::kStatic;
  cfg.nodes_hint = 1024;
  cfg.df_p = 128;  // 8 groups x 1 switch x 128 nodes = 1024
  cfg.df_a = 1;
  cfg.df_h = 7;
  cfg.long_link_latency = 5000 * rvma::kNanosecond;  // 50x local links
  cfg.seed = 11;

  // 1-D pipeline decomposition: the wavefront crosses the 8 contiguous
  // rank slabs strictly one after another, so at any instant one shard is
  // active and seven are idle — the maximum-desynchronization case. (A
  // square pex x pey grid would put every row, and therefore every
  // shard, on the active diagonal simultaneously, and the window counts
  // would collapse back to the scalar's.)
  Sweep3DConfig sweep;
  sweep.pex = 1024;
  sweep.pey = 1;  // 1024 ranks
  sweep.nx = sweep.ny = 16;
  sweep.nz = 8;
  sweep.kba = 8;
  sweep.compute_per_cell = 0;

  auto run_once = [&](int k, bool scalar) {
    Cluster cluster(cfg, nic::NicParams{}, k);
    if (scalar) {
      cluster.sharded_engine().set_lookahead(cluster.lookahead());
    }
    RvmaTransport transport(cluster, rvma::core::RvmaParams{});
    const auto result =
        MotifRunner(cluster, transport, build_sweep3d(sweep)).run();
    struct Out {
      rvma::Time makespan;
      std::uint64_t windows;
      double stride_mean_ps;
      rvma::obs::MetricsSnapshot profile;
      int effective;
    } out;
    out.makespan = result.makespan;
    out.windows = cluster.sharded_engine().windows_executed();
    out.stride_mean_ps = cluster.sharded_engine().window_stride_ps().mean();
    out.profile = cluster.collect_pdes_profile();
    out.effective = cluster.num_shards();
    return out;
  };

  const auto serial = run_once(1, /*scalar=*/false);
  const auto matrix = run_once(8, /*scalar=*/false);
  const auto scalar = run_once(8, /*scalar=*/true);
  if (matrix.makespan != serial.makespan ||
      scalar.makespan != serial.makespan) {
    std::fprintf(stderr,
                 "ERROR: pdes windows-gate makespan mismatch: serial %llu, "
                 "matrix %llu, scalar %llu\n",
                 static_cast<unsigned long long>(serial.makespan),
                 static_cast<unsigned long long>(matrix.makespan),
                 static_cast<unsigned long long>(scalar.makespan));
    std::exit(1);
  }

  WindowGateRow row;
  row.effective = matrix.effective;
  row.windows_matrix = matrix.windows;
  row.windows_scalar = scalar.windows;
  row.reduction = static_cast<double>(scalar.windows) /
                  static_cast<double>(matrix.windows > 0 ? matrix.windows : 1);
  row.stride_mean_matrix_ps = matrix.stride_mean_ps;
  row.stride_mean_scalar_ps = scalar.stride_mean_ps;
  row.lookahead_min_ps = profile_gauge(matrix.profile, "pdes.lookahead_min_ps");
  row.lookahead_max_ps = profile_gauge(matrix.profile, "pdes.lookahead_max_ps");
  row.lookahead_mean_ps =
      profile_gauge(matrix.profile, "pdes.lookahead_mean_ps");
  row.makespan = matrix.makespan;
  return row;
}

struct PaperScaleRow {
  double construct_seconds = 0;  ///< Cluster build: wiring + NICs
  double sim_seconds = 0;        ///< halo3d motif execution
  std::size_t peak_rss_bytes = 0;  ///< process VmHWM after this row ran
  double packets_per_sec = 0;
  std::uint64_t packets = 0;
  rvma::Time makespan = 0;
};

/// Paper-scale (8,192-rank) torus halo exchange. Construction time is
/// reported separately from simulation time: static next hops are O(1)
/// arithmetic, so building the 8,400-switch machine costs milliseconds.
PaperScaleRow bench_paper_scale() {
  namespace net = rvma::net;
  namespace nic = rvma::nic;
  using rvma::cluster::Cluster;
  using rvma::motifs::build_halo3d;
  using rvma::motifs::Halo3DConfig;
  using rvma::motifs::MotifRunner;
  using rvma::motifs::RvmaTransport;

  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kTorus3D;
  cfg.routing = net::Routing::kStatic;
  cfg.nodes_hint = 8192;
  cfg.seed = 11;

  Halo3DConfig halo;
  halo.px = 32;
  halo.py = 16;
  halo.pz = 16;  // 8192 ranks
  halo.nx = halo.ny = halo.nz = 4;
  halo.iterations = 1;
  halo.compute_per_cell = 0;

  PaperScaleRow row;
  const auto t0 = std::chrono::steady_clock::now();
  Cluster cluster(cfg, nic::NicParams{});
  row.construct_seconds = seconds_since(t0);

  RvmaTransport transport(cluster, rvma::core::RvmaParams{});
  const auto t1 = std::chrono::steady_clock::now();
  const auto result = MotifRunner(cluster, transport, build_halo3d(halo)).run();
  row.sim_seconds = seconds_since(t1);
  row.makespan = result.makespan;
  row.packets = cluster.fabric_stats().packets_delivered;
  row.packets_per_sec = static_cast<double>(row.packets) / row.sim_seconds;
  row.peak_rss_bytes = rvma::peak_rss_bytes();
  return row;
}

// Pre-rewrite numbers, measured on the seed engine (commit d9148ab:
// std::function callbacks, std::priority_queue events, unordered_map NIC
// dispatch, per-packet fabric injection) with exactly this benchmark on
// the reference build machine. The acceptance bar for the rewrite is
// >= 2x chain events/sec and 0 allocations per steady-state event.
constexpr double kBaselineChainEventsPerSec = 27.3e6;
constexpr double kBaselineFanoutEventsPerSec = 4.88e6;
constexpr double kBaselinePacketsPerSec = 1.13e6;
constexpr double kBaselineAllocsPerEvent = 1.0;

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_engine.json";

  const RunStats chain = bench_chain(4'000'000);
  const RunStats fanout = bench_fanout(2'000'000, 4096);
  const FabricStatsOut fabric =
      bench_fabric(40'000, 64 * 1024, Pattern::kRing);
  const FabricStatsOut incast =
      bench_fabric(20'000, 64 * 1024, Pattern::kIncast);
  const ApiStatsOut api = bench_api(400'000);
  // Flight-recorder overhead: armed-but-idle on the chain (the event
  // loop must not slow down) and armed-and-recording on the fabric (the
  // real per-span cost). run_bench.sh bounds the chain delta at 5%.
  const RunStats chain_rec = bench_chain(4'000'000, /*with_recorder=*/true);
  const FabricStatsOut fabric_rec =
      bench_fabric(40'000, 64 * 1024, Pattern::kRing, /*record=*/true);
  const std::vector<ShardRow> shards = bench_pdes_shards();
  const WindowGateRow windows_gate = bench_pdes_windows();
  const PaperScaleRow paper = bench_paper_scale();

  const double speedup = chain.events_per_sec / kBaselineChainEventsPerSec;
  const double recorder_chain_overhead_pct =
      100.0 * (1.0 - chain_rec.events_per_sec / chain.events_per_sec);
  const double recorder_fabric_overhead_pct =
      100.0 * (1.0 - fabric_rec.packets_per_sec / fabric.packets_per_sec);

  std::printf("chain : %.2fM events/s, %.3f allocs/event\n",
              chain.events_per_sec / 1e6, chain.allocs_per_event);
  std::printf("fanout: %.2fM events/s, %.3f allocs/event\n",
              fanout.events_per_sec / 1e6, fanout.allocs_per_event);
  std::printf("fabric: %.2fM packets/s, %.2fM events/s, %.3f allocs/packet\n",
              fabric.packets_per_sec / 1e6, fabric.events_per_sec / 1e6,
              fabric.allocs_per_packet);
  std::printf("incast: %.2fM packets/s, %.3f allocs/packet\n",
              incast.packets_per_sec / 1e6, incast.allocs_per_packet);
  std::printf("api   : %.2fM messages/s, %.3f allocs/message\n",
              api.messages_per_sec / 1e6, api.allocs_per_message);
  std::printf(
      "recorder: chain %.2fM events/s armed (%.2f%% overhead), "
      "fabric %.2fM packets/s recording (%.2f%% overhead)\n",
      chain_rec.events_per_sec / 1e6, recorder_chain_overhead_pct,
      fabric_rec.packets_per_sec / 1e6, recorder_fabric_overhead_pct);
  for (const ShardRow& row : shards) {
    std::printf(
        "pdes  : shards=%d (effective %d) %.3fs wall, %.2fx vs serial, "
        "makespan %llu ps\n",
        row.shards, row.effective, row.wall_seconds, row.speedup,
        static_cast<unsigned long long>(row.makespan));
    std::int64_t util_min = 100, util_max = 0;
    std::uint64_t busy_ns = 0, wait_ns = 0, drain_ns = 0, completion_ns = 0;
    char name[64];
    for (int s = 0; s < row.effective; ++s) {
      std::snprintf(name, sizeof(name), "pdes.shard%d.busy_wall_ns", s);
      busy_ns += profile_counter(row.profile, name);
      std::snprintf(name, sizeof(name), "pdes.shard%d.utilization_pct", s);
      const std::int64_t util = profile_gauge(row.profile, name);
      util_min = util < util_min ? util : util_min;
      util_max = util > util_max ? util : util_max;
      std::snprintf(name, sizeof(name), "pdes.shard%d.barrier_wait_wall_ns",
                    s);
      wait_ns += profile_counter(row.profile, name);
      std::snprintf(name, sizeof(name), "pdes.shard%d.drain_wall_ns", s);
      drain_ns += profile_counter(row.profile, name);
      std::snprintf(name, sizeof(name), "pdes.shard%d.completion_wall_ns", s);
      completion_ns += profile_counter(row.profile, name);
    }
    // Busiest shard per window, summed, against the mean shard's busy
    // total: 1.00x is perfect per-window balance.
    const double critical = static_cast<double>(
        profile_counter(row.profile, "pdes.critical_busy_wall_ns"));
    const double busy_mean =
        static_cast<double>(busy_ns) / static_cast<double>(row.effective);
    std::printf(
        "        profile: %llu windows, utilization %lld-%lld%%, "
        "barrier wait %.3f ms / drain %.3f ms / completion %.3f ms total, "
        "critical busy %.3f ms (%.2fx mean)\n",
        static_cast<unsigned long long>(
            profile_counter(row.profile, "pdes.windows")),
        static_cast<long long>(util_min), static_cast<long long>(util_max),
        static_cast<double>(wait_ns) / 1e6,
        static_cast<double>(drain_ns) / 1e6,
        static_cast<double>(completion_ns) / 1e6, critical / 1e6,
        busy_mean > 0 ? critical / busy_mean : 0.0);
  }
  std::printf(
      "pdes windows gate: sweep3d 1024 ranks on 8-group dragonfly mesh, "
      "K=%d: matrix %llu windows "
      "vs scalar %llu (%.2fx fewer), lookahead %lld-%lld ps (mean %lld)\n",
      windows_gate.effective,
      static_cast<unsigned long long>(windows_gate.windows_matrix),
      static_cast<unsigned long long>(windows_gate.windows_scalar),
      windows_gate.reduction,
      static_cast<long long>(windows_gate.lookahead_min_ps),
      static_cast<long long>(windows_gate.lookahead_max_ps),
      static_cast<long long>(windows_gate.lookahead_mean_ps));
  std::printf(
      "8192-node torus: construct %.2fs, simulate %.2fs, %.2fM packets/s, "
      "peak rss %.0f MiB\n",
      paper.construct_seconds, paper.sim_seconds,
      paper.packets_per_sec / 1e6,
      static_cast<double>(paper.peak_rss_bytes) / (1024.0 * 1024.0));
  std::printf("speedup vs seed baseline (chain): %.2fx\n", speedup);

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"baseline\": {\n"
               "    \"recorded_at\": \"seed d9148ab (std::function + "
               "priority_queue + hash-map dispatch)\",\n"
               "    \"chain_events_per_sec\": %.0f,\n"
               "    \"fanout_events_per_sec\": %.0f,\n"
               "    \"fabric_packets_per_sec\": %.0f,\n"
               "    \"chain_allocs_per_event\": %.3f\n"
               "  },\n"
               "  \"current\": {\n"
               "    \"chain_events_per_sec\": %.0f,\n"
               "    \"chain_allocs_per_event\": %.3f,\n"
               "    \"fanout_events_per_sec\": %.0f,\n"
               "    \"fanout_allocs_per_event\": %.3f,\n"
               "    \"fabric_packets_per_sec\": %.0f,\n"
               "    \"fabric_events_per_sec\": %.0f,\n"
               "    \"fabric_allocs_per_packet\": %.3f,\n"
               "    \"incast_packets_per_sec\": %.0f,\n"
               "    \"incast_allocs_per_packet\": %.3f,\n"
               "    \"api_messages_per_sec\": %.0f,\n"
               "    \"api_allocs_per_message\": %.3f\n"
               "  },\n",
               kBaselineChainEventsPerSec, kBaselineFanoutEventsPerSec,
               kBaselinePacketsPerSec, kBaselineAllocsPerEvent,
               chain.events_per_sec, chain.allocs_per_event,
               fanout.events_per_sec, fanout.allocs_per_event,
               fabric.packets_per_sec, fabric.events_per_sec,
               fabric.allocs_per_packet, incast.packets_per_sec,
               incast.allocs_per_packet, api.messages_per_sec,
               api.allocs_per_message);
  // Key names must not collide with the "current" block's: run_bench.sh
  // extracts gate inputs with `sed | tail -n 1` over the whole file.
  std::fprintf(f,
               "  \"recorder\": {\n"
               "    \"armed_chain_events_per_sec\": %.0f,\n"
               "    \"chain_overhead_pct\": %.2f,\n"
               "    \"recording_fabric_packets_per_sec\": %.0f,\n"
               "    \"fabric_overhead_pct\": %.2f\n"
               "  },\n",
               chain_rec.events_per_sec, recorder_chain_overhead_pct,
               fabric_rec.packets_per_sec, recorder_fabric_overhead_pct);
  std::fprintf(f, "  \"pdes_shards\": [\n");
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardRow& row = shards[i];
    std::fprintf(f,
                 "    {\"shards\": %d, \"effective\": %d, "
                 "\"wall_seconds\": %.3f, \"speedup_vs_serial\": %.3f, "
                 "\"makespan_ps\": %llu}%s\n",
                 row.shards, row.effective, row.wall_seconds, row.speedup,
                 static_cast<unsigned long long>(row.makespan),
                 i + 1 < shards.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"pdes_profile\": [\n");
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardRow& row = shards[i];
    const rvma::obs::HistogramSnapshot* stride =
        profile_hist(row.profile, "pdes.window_stride_ps");
    std::fprintf(f,
                 "    {\"shards\": %d, \"windows\": %llu, "
                 "\"window_stride_ps_mean\": %.0f, "
                 "\"critical_busy_wall_ns\": %llu, \"per_shard\": [\n",
                 row.effective,
                 static_cast<unsigned long long>(
                     profile_counter(row.profile, "pdes.windows")),
                 stride != nullptr ? stride->mean() : 0.0,
                 static_cast<unsigned long long>(profile_counter(
                     row.profile, "pdes.critical_busy_wall_ns")));
    char name[64];
    for (int s = 0; s < row.effective; ++s) {
      std::snprintf(name, sizeof(name), "pdes.shard%d.busy_wall_ns", s);
      const std::uint64_t busy = profile_counter(row.profile, name);
      std::snprintf(name, sizeof(name), "pdes.shard%d.barrier_wait_wall_ns",
                    s);
      const std::uint64_t wait = profile_counter(row.profile, name);
      std::snprintf(name, sizeof(name), "pdes.shard%d.drain_wall_ns", s);
      const std::uint64_t drain = profile_counter(row.profile, name);
      std::snprintf(name, sizeof(name), "pdes.shard%d.completion_wall_ns", s);
      const std::uint64_t completion = profile_counter(row.profile, name);
      std::snprintf(name, sizeof(name), "pdes.shard%d.items_drained", s);
      const std::uint64_t drained = profile_counter(row.profile, name);
      std::snprintf(name, sizeof(name), "pdes.shard%d.utilization_pct", s);
      const std::int64_t util = profile_gauge(row.profile, name);
      std::snprintf(name, sizeof(name), "pdes.shard%d.drain_depth", s);
      const rvma::obs::HistogramSnapshot* depth =
          profile_hist(row.profile, name);
      std::fprintf(f,
                   "      {\"shard\": %d, \"busy_wall_ns\": %llu, "
                   "\"barrier_wait_wall_ns\": %llu, \"drain_wall_ns\": %llu, "
                   "\"completion_wall_ns\": %llu, \"items_drained\": %llu, "
                   "\"utilization_pct\": %lld, \"drain_depth_max\": %llu}%s\n",
                   s, static_cast<unsigned long long>(busy),
                   static_cast<unsigned long long>(wait),
                   static_cast<unsigned long long>(drain),
                   static_cast<unsigned long long>(completion),
                   static_cast<unsigned long long>(drained),
                   static_cast<long long>(util),
                   static_cast<unsigned long long>(depth != nullptr ? depth->max
                                                                    : 0),
                   s + 1 < row.effective ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < shards.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n"
      "  \"pdes_windows\": {\n"
      "    \"topology\": \"dragonfly-mesh8\",\n"
      "    \"ranks\": 1024,\n"
      "    \"shards\": %d,\n"
      "    \"windows_matrix\": %llu,\n"
      "    \"windows_scalar\": %llu,\n"
      "    \"window_reduction\": %.3f,\n"
      "    \"window_stride_ps_mean_matrix\": %.0f,\n"
      "    \"window_stride_ps_mean_scalar\": %.0f,\n"
      "    \"lookahead_min_ps\": %lld,\n"
      "    \"lookahead_max_ps\": %lld,\n"
      "    \"lookahead_mean_ps\": %lld,\n"
      "    \"makespan_ps\": %llu\n"
      "  },\n",
      windows_gate.effective,
      static_cast<unsigned long long>(windows_gate.windows_matrix),
      static_cast<unsigned long long>(windows_gate.windows_scalar),
      windows_gate.reduction, windows_gate.stride_mean_matrix_ps,
      windows_gate.stride_mean_scalar_ps,
      static_cast<long long>(windows_gate.lookahead_min_ps),
      static_cast<long long>(windows_gate.lookahead_max_ps),
      static_cast<long long>(windows_gate.lookahead_mean_ps),
      static_cast<unsigned long long>(windows_gate.makespan));
  std::fprintf(f,
               "  \"paper_scale_8192\": {\"construct_seconds\": %.3f, "
               "\"sim_seconds\": %.3f, \"packets_per_sec\": %.0f, "
               "\"peak_rss_bytes\": %llu, \"makespan_ps\": %llu},\n",
               paper.construct_seconds, paper.sim_seconds,
               paper.packets_per_sec,
               static_cast<unsigned long long>(paper.peak_rss_bytes),
               static_cast<unsigned long long>(paper.makespan));
  std::fprintf(f,
               "  \"peak_rss_bytes\": %llu,\n"
               "  \"speedup_chain_events_per_sec\": %.3f\n"
               "}\n",
               static_cast<unsigned long long>(rvma::peak_rss_bytes()),
               speedup);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
