// ScenarioRunner: materialize and execute one ScenarioSpec.
//
// The single place a declarative spec becomes a live simulation: resolve
// the topology/transport/motif names through the registries, assemble the
// Cluster (composition root, src/cluster), run the motif, and return
// everything observable — makespan, fabric stats, the merged metrics
// snapshot, and the sampled timeseries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/metrics_io.hpp"
#include "obs/sampler.hpp"
#include "scenario/spec.hpp"

namespace rvma::scenario {

/// Everything observable from one scenario run, for table printing and
/// the jobs=N vs jobs=1 determinism checks.
struct ScenarioResult {
  Time makespan = 0;
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t engine_events = 0;
  /// Full registry dump for the run (counters, gauge high-waters,
  /// histograms) — mergeable across grids in grid order.
  obs::MetricsSnapshot metrics;
  /// Sampled gauge timeseries; empty unless spec.sample_period > 0.
  obs::Timeseries series;

  bool operator==(const ScenarioResult&) const = default;
};

/// Host-side timing and memory for one run. Deliberately NOT part of
/// ScenarioResult: wall clocks differ run-to-run, and ScenarioResult's
/// defaulted operator== anchors the jobs=N vs jobs=1 and shards=K vs
/// serial byte-identity gates.
struct RunTiming {
  double construct_wall_s = 0;     ///< Cluster build (topology + NICs)
  double sim_wall_s = 0;           ///< motif execution only
  std::size_t peak_rss_bytes = 0;  ///< process VmHWM after the run
};

/// Resolve every registry name in `spec` and build the motif programs
/// once, without running anything. Returns false with *error set on an
/// unknown topology/routing/transport/motif or bad motif params — call
/// before fanning a grid out so workers cannot fail mid-sweep.
bool validate_scenario(const ScenarioSpec& spec, std::string* error);

/// Run one scenario. `timing`, when non-null, receives host wall clocks
/// and memory.
bool run_scenario(const ScenarioSpec& spec, ScenarioResult* out,
                  std::string* error, RunTiming* timing = nullptr);

/// Metrics document for a single (non-grid) run.
obs::MetricsDoc build_scenario_metrics_doc(const ScenarioSpec& spec,
                                           const ScenarioResult& result);

}  // namespace rvma::scenario
