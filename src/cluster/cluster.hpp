// Cluster: the composition root of every simulated experiment.
//
// Engine + network + one NIC per node + the shared metrics registry and
// sampler. This is the single place where the simulation layers are wired
// together; everything above it (protocol endpoints, transports, motifs,
// benches, examples) receives an already-assembled Cluster — either built
// directly from a NetworkConfig, fluently through ClusterBuilder, or
// declaratively through a scenario spec (src/scenario).
//
// Sharded mode (par_shards > 1): the switch order is cut into blocks dealt
// round-robin over the shards, each shard with its own Engine,
// MetricsRegistry, and a full copy of the Network (identical construction
// => identical wiring and routes; off-shard port state is dead weight that
// is never read). NICs attach on the shard owning their switch, so
// injection and ejection never cross a shard boundary — only transit hops
// do, handed across through sim::ShardedEngine's windowed channels
// (DESIGN.md §12). Every routing decision reads only the packet and its
// switch's own ports, so any topology and routing mode shards; the one
// fallback to a single shard is a partition without positive cross-shard
// lookahead (a zero-latency crossing link, or no crossing link at all).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "nic/nic.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"

namespace rvma::cluster {

class ClusterBuilder;

/// Engine + network + one NIC per node: the simulated machine every
/// experiment instantiates.
class Cluster {
 public:
  Cluster(const net::NetworkConfig& net_config,
          const nic::NicParams& nic_params, int par_shards = 1);
  explicit Cluster(const ClusterBuilder& builder);

  /// Shard 0's engine — THE engine of a serial (par_shards == 1) cluster.
  /// Sharded callers must anchor per-node work via engine_for().
  sim::Engine& engine() { return shards_[0]->engine; }
  net::Network& network() { return *shards_[0]->network; }
  nic::Nic& nic(net::NodeId node) { return *nics_[node]; }
  int num_nodes() const { return shards_[0]->network->num_nodes(); }

  // ---- sharding ----
  int num_shards() const { return static_cast<int>(shards_.size()); }
  bool sharded() const { return num_shards() > 1; }
  sim::ShardedEngine& sharded_engine() { return sharded_; }
  int shard_of_node(net::NodeId node) const {
    return shard_of_node_[static_cast<std::size_t>(node)];
  }
  /// The engine that simulates `node`'s NIC and protocol state.
  sim::Engine& engine_for(net::NodeId node) {
    return shards_[static_cast<std::size_t>(shard_of_node(node))]->engine;
  }
  sim::Engine& engine_for_shard(int k) {
    return shards_[static_cast<std::size_t>(k)]->engine;
  }
  net::Network& network_for(net::NodeId node) {
    return *shards_[static_cast<std::size_t>(shard_of_node(node))]->network;
  }
  /// Minimum cross-shard link latency (0 when serial) — the scalar the
  /// pre-matrix windowing used, kept for ablation baselines
  /// (sharded_engine().set_lookahead(lookahead())).
  Time lookahead() const { return lookahead_; }

  /// Per-shard-pair lookahead: the minimum summed link latency over any
  /// shard path src -> dst (min-plus closure of the direct crossing-link
  /// matrix), kTimeInfinity when src can never influence dst. This is the
  /// matrix driving the windowed run's per-destination window edges.
  /// Only valid when sharded().
  Time lookahead(int src, int dst) const {
    return lookahead_matrix_[static_cast<std::size_t>(src) *
                                 static_cast<std::size_t>(num_shards()) +
                             static_cast<std::size_t>(dst)];
  }
  const std::vector<Time>& lookahead_matrix() const {
    return lookahead_matrix_;
  }

  /// Run until no event is pending: shard 0's engine when serial, the
  /// windowed shard loop when sharded. Returns the instant of the last
  /// event executed (the clock when none ran); on return every shard
  /// engine is idle with its clock at that instant, so work scheduled
  /// between two runs anchors where a serial engine's would.
  Time run();

  /// Events executed so far, summed over every shard's engine.
  std::uint64_t events_executed() const;

  /// Whole-machine fabric view: counters summed across shards,
  /// max_port_backlog maxed. Equals network().fabric().stats() when serial.
  net::FabricStats fabric_stats() const;

  /// The cluster-wide instrument registry every layer records into
  /// (shard 0's registry when sharded — use collect_metrics() for totals).
  obs::MetricsRegistry& metrics() { return shards_[0]->metrics; }
  /// Shard k's registry: the one every NIC on shard k counts into.
  obs::MetricsRegistry& metrics_for_shard(int k) {
    return shards_[static_cast<std::size_t>(k)]->metrics;
  }
  obs::Sampler& sampler() { return *sampler_; }

  /// Arm simulated-time gauge sampling (engine.heap_depth, in-flight
  /// packets, port backlog, NIC tx queues, posted buffers...) with the
  /// given period. Call before running the simulation. Serial only — the
  /// scenario layer clamps par_shards to 1 whenever sampling is on.
  void enable_sampling(Time period);

  /// Registry snapshot plus the engine's own counters (events executed /
  /// scheduled, final heap depth). Sharded: shard snapshots merged in
  /// shard order (counters sum, gauges max, histograms bucket-sum — all
  /// order-invariant) and engine counters summed. Idempotent — engine
  /// values are stamped into the snapshot, not accumulated.
  obs::MetricsSnapshot collect_metrics() const;

  /// Arm the span-based flight recorder: one fixed-capacity ring per
  /// shard, attached to that shard's engine so record() stays
  /// single-threaded. Purely passive — arming changes no simulation
  /// output (see obs/flight_recorder.hpp). Call before running.
  void arm_flight_recorder(
      std::size_t capacity_per_shard = obs::FlightRecorder::kDefaultCapacity);
  bool flight_recorder_armed() const { return !recorders_.empty(); }
  obs::FlightRecorder* flight_recorder_for_shard(int k) {
    return recorders_.empty() ? nullptr
                              : recorders_[static_cast<std::size_t>(k)].get();
  }

  /// Write the armed recorders' rings as one multi-shard "RVFR1" dump.
  /// Shard sections are written in shard order; FlightDump::merged()
  /// orders their records by content, the same at any shard count.
  bool write_flight_dump(const std::string& path,
                         std::string* error = nullptr) const;

  /// Arm PDES runtime profiling of the windowed loop (no-op when serial).
  void enable_pdes_profiling();

  /// Per-shard PDES runtime profile as rvma-metrics-v1 instruments:
  /// pdes.windows / pdes.window_stride_ps and the lookahead spread gauges
  /// pdes.lookahead_{min,max,mean}_ps / pdes.lookahead_unreachable_pairs
  /// (deterministic) plus per-shard pdes.shard<k>.{busy_wall_ns,
  /// barrier_wait_wall_ns, drain_wall_ns, completion_wall_ns,
  /// items_drained, utilization_pct, drain_depth} and
  /// pdes.critical_busy_wall_ns (the busiest shard's busy time summed over
  /// windows). Wall-clock values differ run to run —
  /// this snapshot is intentionally separate from collect_metrics() so
  /// the run metrics stay byte-identical across jobs/shard counts. A
  /// serial cluster reports one shard at 100% utilization, zero barrier
  /// wait.
  obs::MetricsSnapshot collect_pdes_profile() const;

 private:
  /// Everything one shard owns. Declaration order is lifetime order: the
  /// registry and engine must outlive the network/NICs holding pointers
  /// into them (destruction runs in reverse).
  struct Shard {
    obs::MetricsRegistry metrics;
    sim::Engine engine;
    std::unique_ptr<net::Network> network;
  };

  /// Arena of one shard's NICs: a single aligned allocation holding all of
  /// the shard's Nic objects contiguously (placement-new in node order,
  /// destroyed in reverse). A NIC is ~memory-heavy per-node state; packing
  /// a shard's NICs into one block replaces N individual heap allocations
  /// and keeps neighbor NICs on shared cache lines during event bursts.
  class NicSlab {
   public:
    explicit NicSlab(std::size_t capacity);
    ~NicSlab();
    NicSlab(const NicSlab&) = delete;
    NicSlab& operator=(const NicSlab&) = delete;
    nic::Nic* emplace(sim::Engine& engine, net::Network& network,
                      net::NodeId node, const nic::NicParams& params,
                      obs::MetricsRegistry* metrics);

   private:
    nic::Nic* slots_ = nullptr;
    std::size_t capacity_ = 0;
    std::size_t count_ = 0;
  };

  sim::ShardedEngine sharded_;  ///< non-owning view over shard engines
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::int32_t> shard_of_node_;
  /// Declared after shards_ so the NICs (which hold references into their
  /// shard's engine/network/registry) are destroyed first.
  std::vector<std::unique_ptr<NicSlab>> nic_slabs_;  ///< one per shard
  std::vector<nic::Nic*> nics_;  ///< node -> NIC, non-owning (slab storage)
  std::unique_ptr<obs::Sampler> sampler_;  ///< serial clusters only
  /// One recorder per shard when armed (index == shard id), else empty.
  std::vector<std::unique_ptr<obs::FlightRecorder>> recorders_;
  Time lookahead_ = 0;  ///< min direct crossing latency (scalar baseline)
  /// Path-closed per-pair lookahead, [src * K + dst]; empty when serial.
  std::vector<Time> lookahead_matrix_;
};

/// Fluent front-end over (NetworkConfig, NicParams) for callers that wire
/// a machine inline — examples, benches, perf harnesses. Keeps the
/// "construct Engine/Fabric/NIC" knowledge inside this library: callers
/// describe the machine, Cluster assembles it.
///
///   cluster::Cluster c(cluster::ClusterBuilder()
///                          .topology(net::TopologyKind::kFatTree)
///                          .routing(net::Routing::kAdaptive)
///                          .nodes(17)
///                          .link_bandwidth(Bandwidth::gbps(400)));
class ClusterBuilder {
 public:
  ClusterBuilder& topology(net::TopologyKind kind) {
    net_.topology = kind;
    return *this;
  }
  ClusterBuilder& routing(net::Routing routing) {
    net_.routing = routing;
    return *this;
  }
  ClusterBuilder& nodes(int n) {
    net_.nodes_hint = n;
    return *this;
  }
  ClusterBuilder& link_bandwidth(Bandwidth bw) {
    net_.link.bw = bw;
    return *this;
  }
  ClusterBuilder& link_latency(Time t) {
    net_.link.latency = t;
    return *this;
  }
  /// Latency for the topology's long link tier (0 = uniform); see
  /// NetworkConfig::long_link_latency.
  ClusterBuilder& long_link_latency(Time t) {
    net_.long_link_latency = t;
    return *this;
  }
  ClusterBuilder& switch_latency(Time t) {
    net_.switch_latency = t;
    return *this;
  }
  ClusterBuilder& xbar_factor(double factor) {
    net_.xbar_factor = factor;
    return *this;
  }
  ClusterBuilder& concentration(int c) {
    net_.concentration = c;
    return *this;
  }
  ClusterBuilder& seed(std::uint64_t s) {
    net_.seed = s;
    return *this;
  }
  /// Number of parallel engine shards (1 = serial; clamped to the switch
  /// count, and to 1 without positive cross-shard lookahead — see Cluster).
  ClusterBuilder& par_shards(int k) {
    par_shards_ = k;
    return *this;
  }
  /// Wholesale overrides for callers that already hold a config.
  ClusterBuilder& net_config(const net::NetworkConfig& config) {
    net_ = config;
    return *this;
  }
  ClusterBuilder& nic_params(const nic::NicParams& params) {
    nic_ = params;
    return *this;
  }

  const net::NetworkConfig& net_config() const { return net_; }
  const nic::NicParams& nic_params() const { return nic_; }
  int par_shards() const { return par_shards_; }

  std::unique_ptr<Cluster> build() const {
    return std::make_unique<Cluster>(net_, nic_, par_shards_);
  }

 private:
  net::NetworkConfig net_;
  nic::NicParams nic_;
  int par_shards_ = 1;
};

}  // namespace rvma::cluster
