#include "scenario/runner.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string_view>
#include <vector>

#include "common/rss.hpp"
#include "motifs/runner.hpp"
#include "scenario/registry.hpp"

namespace rvma::scenario {

namespace {

bool resolve(const ScenarioSpec& spec, net::NetworkConfig* cfg,
             const TransportEntry** transport, const MotifEntry** motif,
             std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  const TopologyEntry* topo = topologies().find(spec.topology);
  if (topo == nullptr)
    return fail("unknown topology \"" + spec.topology + "\"");
  net::Routing routing = net::Routing::kStatic;
  if (!parse_routing(spec.routing, &routing))
    return fail("unknown routing \"" + spec.routing + "\"");
  *transport = transports().find(spec.transport);
  if (*transport == nullptr)
    return fail("unknown transport \"" + spec.transport + "\"");
  *motif = motifs_registry().find(spec.motif);
  if (*motif == nullptr) return fail("unknown motif \"" + spec.motif + "\"");

  cfg->topology = topo->kind;
  cfg->routing = routing;
  cfg->nodes_hint = spec.nodes;
  cfg->link.bw = spec.link_bandwidth;
  cfg->link.latency = spec.link_latency;
  cfg->long_link_latency = spec.long_link_latency;
  cfg->switch_latency = spec.switch_latency;
  cfg->xbar_factor = spec.xbar_factor;
  cfg->concentration = spec.concentration;
  cfg->seed = spec.seed;
  // Spec validation already constrains the string to these two values;
  // anything else is a programming error upstream, so fail loudly here too.
  if (spec.route_table == "materialized") {
    cfg->route_table = net::RouteTable::kMaterialized;
  } else if (spec.route_table == "algebraic") {
    cfg->route_table = net::RouteTable::kAlgebraic;
  } else {
    return fail("unknown route_table \"" + spec.route_table + "\"");
  }
  return true;
}

/// Every record() line opens {"t":<ps>, — recover <ps> for the merge key.
Time parse_trace_time(std::string_view line) {
  constexpr std::string_view kPrefix = "{\"t\":";
  if (line.substr(0, kPrefix.size()) != kPrefix) return 0;
  Time t = 0;
  for (std::size_t i = kPrefix.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c < '0' || c > '9') break;
    t = t * 10 + static_cast<Time>(c - '0');
  }
  return t;
}

/// Merge the per-shard JSONL buffers into the armed sink, ordered by
/// (event time, shard, per-shard line index). Each shard's buffer is
/// already time-sorted (its engine records in execution order), so this
/// total order is a pure function of the event timeline — the merged file
/// is byte-identical across reruns at any thread schedule.
void merge_shard_traces(
    const std::vector<std::unique_ptr<Tracer>>& shard_tracers, Tracer* sink) {
  struct Line {
    Time t;
    std::size_t shard;
    std::size_t index;
    std::string_view text;  ///< one JSONL line, '\n' included
  };
  std::vector<Line> lines;
  for (std::size_t k = 0; k < shard_tracers.size(); ++k) {
    const std::string& buffer = shard_tracers[k]->buffer();
    std::size_t start = 0;
    std::size_t index = 0;
    while (start < buffer.size()) {
      std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) nl = buffer.size() - 1;
      const std::string_view text(buffer.data() + start, nl - start + 1);
      lines.push_back(Line{parse_trace_time(text), k, index++, text});
      start = nl + 1;
    }
  }
  std::sort(lines.begin(), lines.end(), [](const Line& a, const Line& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.index < b.index;
  });
  for (const Line& line : lines) sink->write_line(line.text);
}

}  // namespace

bool validate_scenario(const ScenarioSpec& spec, std::string* error) {
  net::NetworkConfig cfg;
  const TransportEntry* transport = nullptr;
  const MotifEntry* motif = nullptr;
  if (!resolve(spec, &cfg, &transport, &motif, error)) return false;
  std::string build_error;
  if (motif->build_api) {
    if (motif->build_api(spec, &build_error) == nullptr) {
      if (error != nullptr) *error = build_error;
      return false;
    }
    return true;
  }
  if (motif->build(spec, &build_error).empty() && !build_error.empty()) {
    if (error != nullptr) *error = build_error;
    return false;
  }
  return true;
}

bool run_scenario(const ScenarioSpec& spec, ScenarioResult* out,
                  std::string* error, Tracer* trace_sink,
                  std::int64_t eng_id, RunTiming* timing) {
  net::NetworkConfig cfg;
  const TransportEntry* transport_entry = nullptr;
  const MotifEntry* motif_entry = nullptr;
  if (!resolve(spec, &cfg, &transport_entry, &motif_entry, error))
    return false;

  // Sharded execution must be exact; mid-run gauge sampling reads one
  // shard's engine mid-window, so it clamps back to serial here (Cluster
  // itself additionally clamps for routing that draws from the RNG
  // (dragonfly adaptive), the global tracer, and zero-lookahead
  // topologies). An armed per-run trace sink no longer
  // clamps: sharded runs record into per-shard buffered tracers and merge
  // them deterministically below.
  int shards = spec.par_shards;
  if (spec.sample_period > 0) shards = 1;
  const auto t_build0 = std::chrono::steady_clock::now();
  nic::NicParams nic_params;
  nic_params.doorbell_batch = static_cast<std::uint32_t>(spec.doorbell_batch);
  cluster::Cluster cluster(cfg, nic_params, shards);
  const auto t_build1 = std::chrono::steady_clock::now();
  // Stamp the run id even when keeping the process-default sink: serial
  // grids funnel every run through Tracer::global(), and without distinct
  // "eng" fields trace analyses would mix (and double-count) the runs.
  std::vector<std::unique_ptr<Tracer>> shard_tracers;
  if (trace_sink != nullptr && trace_sink->enabled() && cluster.sharded()) {
    // Shard-safe tracing: each shard engine records into its own
    // in-memory buffer (single-threaded by construction), merged into the
    // armed sink after the run. The sink itself is never touched from a
    // worker thread.
    for (int k = 0; k < cluster.num_shards(); ++k) {
      auto tracer = std::make_unique<Tracer>();
      tracer->open_buffer();
      cluster.engine_for_shard(k).set_tracer(tracer.get(), eng_id);
      shard_tracers.push_back(std::move(tracer));
    }
  } else {
    cluster.engine().set_tracer(
        trace_sink != nullptr ? trace_sink : cluster.engine().tracer(),
        eng_id);
  }
  if (spec.sample_period > 0) cluster.enable_sampling(spec.sample_period);
  if (!spec.flight_recorder_path.empty()) {
    cluster.arm_flight_recorder(
        spec.flight_recorder_capacity != 0
            ? static_cast<std::size_t>(spec.flight_recorder_capacity)
            : obs::FlightRecorder::kDefaultCapacity);
  }
  if (!spec.pdes_profile_path.empty()) cluster.enable_pdes_profiling();

  // Either interpret per-rank programs over a transport (classic path)
  // or run an API-layer motif straight against rvma.h contexts. The API
  // path builds no transport at all: transports create endpoints, and a
  // second endpoint per (node, pid) would replace the packet handler the
  // motif's own contexts registered.
  std::string build_error;
  Time makespan = 0;
  std::uint64_t engine_events = 0;
  std::chrono::steady_clock::time_point t_sim0, t_sim1;
  if (motif_entry->build_api) {
    std::unique_ptr<motifs::ApiMotif> api_motif =
        motif_entry->build_api(spec, &build_error);
    if (api_motif == nullptr) {
      if (error != nullptr) *error = build_error;
      return false;
    }
    t_sim0 = std::chrono::steady_clock::now();
    const motifs::ApiMotifResult result = api_motif->run(cluster);
    t_sim1 = std::chrono::steady_clock::now();
    makespan = result.makespan;
    for (int k = 0; k < cluster.num_shards(); ++k) {
      engine_events += cluster.engine_for_shard(k).executed_events();
    }
  } else {
    auto programs = motif_entry->build(spec, &build_error);
    if (programs.empty() && !build_error.empty()) {
      if (error != nullptr) *error = build_error;
      return false;
    }
    std::unique_ptr<motifs::Transport> transport =
        transport_entry->make(cluster, spec);
    t_sim0 = std::chrono::steady_clock::now();
    const motifs::MotifResult result =
        motifs::MotifRunner(cluster, *transport, std::move(programs)).run();
    t_sim1 = std::chrono::steady_clock::now();
    makespan = result.makespan;
    engine_events = result.engine_events;
  }
  if (!shard_tracers.empty()) merge_shard_traces(shard_tracers, trace_sink);
  if (!spec.flight_recorder_path.empty()) {
    std::string dump_error;
    if (!cluster.write_flight_dump(spec.flight_recorder_path, &dump_error)) {
      if (error != nullptr) *error = dump_error;
      return false;
    }
  }
  if (!spec.pdes_profile_path.empty()) {
    obs::MetricsDoc doc;
    doc.tool = "pdes_profile";
    if (!spec.name.empty()) doc.meta["scenario"] = spec.name;
    doc.meta["topology"] = spec.topology;
    doc.meta["motif"] = spec.motif;
    doc.meta["nodes"] = std::to_string(spec.nodes);
    doc.meta["par_shards"] = std::to_string(cluster.num_shards());
    doc.totals.merge(cluster.collect_pdes_profile());
    if (!obs::write_metrics_file(doc, spec.pdes_profile_path)) {
      if (error != nullptr)
        *error = "cannot write pdes profile " + spec.pdes_profile_path;
      return false;
    }
  }
  if (timing != nullptr) {
    const auto secs = [](auto a, auto b) {
      return std::chrono::duration<double>(b - a).count();
    };
    timing->construct_wall_s = secs(t_build0, t_build1);
    timing->sim_wall_s = secs(t_sim0, t_sim1);
    timing->route_table_bytes = cluster.route_table_bytes();
    timing->peak_rss_bytes = rvma::peak_rss_bytes();
  }

  const net::FabricStats fabric = cluster.fabric_stats();
  ScenarioResult res;
  res.makespan = makespan;
  res.packets_injected = fabric.packets_injected;
  res.packets_delivered = fabric.packets_delivered;
  res.route_cache_hits = fabric.route_cache_hits;
  res.engine_events = engine_events;
  res.trace_events = trace_sink != nullptr ? trace_sink->events_written() : 0;
  res.metrics = cluster.collect_metrics();
  if (spec.sample_period > 0) res.series = cluster.sampler().take_series();
  *out = std::move(res);
  return true;
}

obs::MetricsDoc build_scenario_metrics_doc(const ScenarioSpec& spec,
                                           const ScenarioResult& result) {
  obs::MetricsDoc doc;
  doc.tool = "rvma_run";
  if (!spec.name.empty()) doc.meta["scenario"] = spec.name;
  doc.meta["topology"] = spec.topology;
  doc.meta["routing"] = spec.routing;
  doc.meta["transport"] = spec.transport;
  doc.meta["motif"] = spec.motif;
  doc.meta["nodes"] = std::to_string(spec.nodes);
  doc.meta["seed"] = std::to_string(spec.seed);
  if (spec.sample_period > 0) {
    doc.meta["sample_period_us"] =
        std::to_string(spec.sample_period / kMicrosecond);
  }
  doc.totals.merge(result.metrics);
  if (!result.series.empty()) {
    doc.timeseries.push_back(result.series);
    if (doc.timeseries.back().label.empty()) {
      doc.timeseries.back().label = spec.topology + "-" + spec.routing + "@" +
                                    format_bandwidth(spec.link_bandwidth) +
                                    "/" + spec.transport;
    }
  }
  return doc;
}

}  // namespace rvma::scenario
