// ScenarioSpec: one declarative description of one simulation run.
//
// A scenario names everything an experiment needs — topology + routing +
// link parameters, transport backend, motif + parameters, seed, sampling
// and output paths — as plain data. Specs round-trip through a canonical
// JSON form (same byte-stability discipline as rvma-metrics-v1): parsing
// a written spec and re-writing it reproduces the bytes exactly, so specs
// can anchor golden tests and be diffed meaningfully. CLI flags overlay
// onto a parsed spec (--nodes=64, --motif.vars=8, ...), keeping every
// field reachable from both files and the command line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/units.hpp"

namespace rvma::scenario {

inline constexpr const char* kScenarioSchema = "rvma-scenario-v1";
inline constexpr const char* kGridSchema = "rvma-scenario-grid-v1";

/// Motif parameters as a sorted name -> value map. Values are unit
/// strings ("32", "50ps", "16KiB") parsed with the src/common/units
/// parsers when the motif builder reads them.
using MotifParams = std::map<std::string, std::string>;

struct ScenarioSpec {
  std::string name;  ///< optional label, carried into outputs

  // ---- topology ----
  std::string topology = "star";    ///< TopologyRegistry key
  std::string routing = "static";   ///< "static" | "adaptive"
  int nodes = 2;
  Bandwidth link_bandwidth = Bandwidth::gbps(100);
  Time link_latency = 100 * kNanosecond;
  /// Latency for the topology's long link tier (torus wrap-around,
  /// dragonfly global, fat-tree agg<->core, HyperX dim-1); 0 keeps every
  /// link at link_latency. See net::NetworkConfig::long_link_latency.
  Time long_link_latency = 0;
  Time switch_latency = 100 * kNanosecond;
  double xbar_factor = 1.5;  ///< crossbar bw = factor * link bw (paper §V-B1)
  int concentration = 1;     ///< endpoints per switch where applicable
  bool express = true;  ///< Unread; kept until perfbench stops setting it.
  /// Static next-hop resolution: "algebraic" (O(1) coordinate arithmetic,
  /// zero route-table bytes) or "materialized" (the full O(S*N) LUT
  /// ablation). Results are bit-identical either way; only memory and
  /// construction time move. Ignored under adaptive routing.
  std::string route_table = "algebraic";

  // ---- transport ----
  std::string transport = "rvma";  ///< TransportRegistry key
  /// RDMA credit-pipeline depth (registered slots per channel); read only
  /// by the rdma backend.
  int rdma_slots = 2;
  /// NIC doorbell batching depth (nic::NicParams::doorbell_batch): how
  /// many send descriptors may ride one PCIe doorbell crossing. 1 rings
  /// per message and reproduces the unbatched model byte-for-byte.
  int doorbell_batch = 1;

  // ---- motif ----
  std::string motif = "halo3d";  ///< MotifRegistry key
  MotifParams motif_params;

  // ---- run ----
  std::uint64_t seed = 2021;
  /// Parallel engine shards (conservative PDES; DESIGN.md §12). 1 runs
  /// serial; K > 1 shards the switches over K lock-step worker engines.
  /// Results are bit-identical either way — this knob only trades wall
  /// clock. Clamped back to 1 whenever exact sharding is impossible
  /// (dragonfly adaptive routing, sampling, tracing, zero lookahead).
  int par_shards = 1;
  /// Simulated-time gauge sampling period; 0 disables sampling.
  Time sample_period = 0;

  // ---- outputs ----
  std::string metrics_path;  ///< write rvma-metrics-v1 doc here when set
  /// Write the flight recorder's binary "RVFR1" span dump here when set.
  /// Arming the recorder is purely passive — it never changes tables,
  /// metrics, or traces (obs/flight_recorder.hpp), so this field is an
  /// output path, not a simulation parameter.
  std::string flight_recorder_path;
  /// Per-shard recorder ring capacity in records; 0 uses the default
  /// (obs::FlightRecorder::kDefaultCapacity). Oldest records are
  /// overwritten once the ring fills.
  std::uint64_t flight_recorder_capacity = 0;
  /// Write the PDES runtime profile (rvma-metrics-v1 doc: per-shard
  /// utilization, barrier wait, window stride) here when set. Wall-clock
  /// values differ run to run, which is why the profile is a separate
  /// document and never part of the run metrics.
  std::string pdes_profile_path;

  bool operator==(const ScenarioSpec&) const = default;
};

/// A figure-style grid: one base scenario swept over (topology case x
/// link speed x {rdma, rvma}). Expanding a grid yields one ScenarioSpec
/// per cell half, each with its coordinate-derived seed.
struct GridSpec {
  std::string figure = "grid";      ///< table/doc header, e.g. "Figure 8"
  std::string motif_label;          ///< display name, e.g. "Halo3D"
  ScenarioSpec base;                ///< transport/topology fields overridden per cell
  /// Topology-routing case names ("torus3d-static", "hyperx-DOR", ...).
  std::vector<std::string> cases;
  std::vector<double> gbps = {100, 200, 400, 2000};

  bool operator==(const GridSpec&) const = default;
};

/// Canonical JSON rendering: fixed key order, unit strings from the
/// canonical_* writers, two-space indentation. write(parse(write(s))) ==
/// write(s) for every representable spec.
std::string to_json(const ScenarioSpec& spec);
std::string to_json(const GridSpec& grid);

/// Parse a scenario document. Returns false with *error set on malformed
/// JSON, wrong schema, or unparsable unit strings.
bool spec_from_json(const std::string& text, ScenarioSpec* out,
                    std::string* error);
bool grid_from_json(const std::string& text, GridSpec* out,
                    std::string* error);

/// True when `text` carries the grid schema (dispatch helper for tools
/// that accept either document kind).
bool looks_like_grid(const std::string& text);

/// Overlay CLI flags onto `spec`: --name, --topology, --routing, --nodes,
/// --bandwidth, --link-latency, --long-link-latency, --switch-latency,
/// --xbar-factor,
/// --concentration, --route-table, --transport,
/// --rdma-slots, --doorbell-batch, --motif, --motif.<param>=<value>,
/// --seed, --par-shards,
/// --sample-period, --metrics, --flight-recorder,
/// --flight-recorder-capacity, --pdes-profile.
/// Flags win over file values. Returns false with *error set on
/// unparsable values.
bool apply_cli_overlay(const Cli& cli, ScenarioSpec* spec,
                       std::string* error);

/// Typed readers over MotifParams; each returns the default when the key
/// is absent and records the key as consumed. `bad` collects keys whose
/// values failed to parse.
class ParamReader {
 public:
  explicit ParamReader(const MotifParams& params) : params_(&params) {}

  int get_int(const std::string& key, int fallback);
  double get_double(const std::string& key, double fallback);
  std::uint64_t get_size(const std::string& key, std::uint64_t fallback);
  Time get_duration(const std::string& key, Time fallback);

  /// Keys present in the params but never read — typo'd motif parameters
  /// must fail loudly, not silently simulate the defaults.
  std::vector<std::string> unconsumed() const;
  const std::vector<std::string>& bad_values() const { return bad_; }
  bool ok() const { return bad_.empty(); }

 private:
  const std::string* raw(const std::string& key);

  const MotifParams* params_;
  std::map<std::string, bool> consumed_;
  std::vector<std::string> bad_;
};

}  // namespace rvma::scenario
