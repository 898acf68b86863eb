// Benchmark workloads and the layer-by-layer composition of one run.
//
// A workload is a list of cells (one ScenarioSpec each) fanned out with
// exec::sweep_map. Each cell is composed here from the modules' public
// entry points — Cluster construction, MotifEntry::build / build_api,
// TransportEntry::make, MotifRunner::run / ApiMotif::run and
// Cluster::collect_metrics — so every layer call can be timed and traced
// from outside the program. self_check() proves the composition equals
// scenario::run_scenario on one cell of every workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "motifs/transport.hpp"
#include "obs/metrics.hpp"
#include "scenario/spec.hpp"
#include "spans.hpp"

namespace perfbench {

struct Cell {
  std::string label;  ///< e.g. "fig7/torus3d-static@100G/rdma"
  rvma::scenario::ScenarioSpec spec;
};

/// One published paper value a workload's simulated speed-ups are held to.
struct PaperRef {
  std::string label;
  /// (rdma cell, rvma cell) index pairs; the simulated value is the mean
  /// speed-up (rdma makespan / rvma makespan) over the pairs.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  double paper = 0;
  /// A floor ("RVMA >= 2x everywhere") compares the smallest speed-up and
  /// counts only a shortfall; otherwise the gap is |sim - paper| / paper.
  bool floor = false;
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;
  int jobs = 1;                ///< exec::sweep_map workers
  std::size_t check_cell = 0;  ///< cell re-run through run_scenario
  std::vector<PaperRef> refs;  ///< empty: no RDMA half to compare
};

/// The named workload with cell seeds derived from `seed`; false when the
/// name is unknown.
bool make_workload(const std::string& name, std::uint64_t seed, Workload* out);
std::vector<std::string> workload_names();

/// Everything one cell produced: simulated outputs (deterministic) and
/// host-side measurements of each layer call.
struct CellRun {
  // ---- simulated ----
  rvma::Time makespan = 0;
  rvma::Time setup_done = 0;  ///< transport setup finish (sim time)
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t ops_built = 0;
  std::uint64_t ops_executed = 0;
  std::uint64_t engine_events = 0;
  rvma::motifs::TransportStats transport;
  rvma::obs::MetricsSnapshot metrics;
  int shards = 1;  ///< effective engine shards after Cluster's clamps
  bool api = false;   ///< ApiMotif cell (no transport, no programs)
  bool rdma = false;  ///< MotifRunner cell over the RDMA baseline
  // ---- host ----
  double construct_s = 0;  ///< cluster::Cluster constructor
  double build_s = 0;      ///< MotifEntry::build / build_api
  double make_s = 0;       ///< TransportEntry::make
  double run_s = 0;        ///< MotifRunner::run / ApiMotif::run
  double cell_s = 0;       ///< the whole cell
  double program_bytes = 0;  ///< materialized Op storage
  double rss_build_bytes = 0;  ///< resident-set growth across the build
  double rss_run_bytes = 0;    ///< peak-RSS growth across the run
  rvma::obs::MetricsSnapshot pdes;  ///< PDES profile (profiled runs only)
  /// Why the output check failed; empty when it passed.
  std::string failure;

  double setup_s() const { return construct_s + build_s + make_s; }
};

struct WorkloadRun {
  std::vector<CellRun> cells;
  double wall_s = 0;
  double cpu_s = 0;
  double exec_wall_s = 0;  ///< exec::sweep_map alone
  std::uint64_t digest = 0;
  std::size_t failed = 0;
};

/// Value of a registry counter, 0 when the run never created it.
std::uint64_t counter(const rvma::obs::MetricsSnapshot& m,
                      const std::string& name);

/// Run every cell of the workload. With `spans` set, records workload ->
/// exec -> cell -> layer-call spans and arms PDES profiling.
WorkloadRun run_workload(const Workload& wl, SpanLog* spans);

/// Only the set-up calls of every cell (construction, program build,
/// transport make), one cell after another, so that worker contention
/// does not blur the sample; returns the summed set-up seconds.
double setup_workload(const Workload& wl);

/// Re-run cell wl.check_cell through scenario::run_scenario and compare
/// makespan, packet counts and the metrics snapshot with `run`.
bool self_check(const Workload& wl, const WorkloadRun& run, std::string* why);

struct RefGap {
  std::string label;
  double sim = 0;    ///< simulated speed-up (the smallest one for a floor)
  double paper = 0;
  double gap_pct = 0;
};
/// Relative gap between each paper value and its simulated speed-up.
std::vector<RefGap> paper_gaps(const Workload& wl, const WorkloadRun& run);

}  // namespace perfbench
