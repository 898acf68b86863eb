// The Figure 7 / Figure 8 grid driver: one motif over every (topology,
// routing, link speed) x (RDMA, RVMA) combination, described by a
// GridSpec and expanded into per-cell ScenarioSpecs.
//
// Each grid cell is an independent simulation with its own
// Cluster/Engine, seeded from its grid coordinates — so the grid can run
// serially or across all cores (exec::SweepExecutor) with bit-identical
// results, printed in deterministic grid order either way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "obs/metrics_io.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace rvma::scenario {

/// One (topology, routing) row of the paper's Figure 7/8 grids.
struct TopoCase {
  std::string name;
  net::TopologyKind kind = net::TopologyKind::kStar;
  net::Routing routing = net::Routing::kStatic;
};

/// The eight (topology, routing) rows the paper evaluates — also the
/// default case list of every GridSpec.
const std::vector<TopoCase>& figure_topo_cases();
std::vector<std::string> figure_topo_case_names();

/// Resolve a case name: one of the canonical figure rows, or any
/// "<topology>-<routing>" pair of registered names.
bool resolve_topo_case(const std::string& name, TopoCase* out,
                       std::string* error);

/// Seed for one grid run, derived from the base seed and the run's grid
/// coordinates. Stable across job counts and execution orders — the heart
/// of the parallel sweep's determinism contract.
std::uint64_t derive_run_seed(std::uint64_t base_seed,
                              std::uint64_t case_index,
                              std::uint64_t speed_index, bool use_rvma);

/// The per-cell-half scenario: the grid's base with the case's topology
/// and routing, the speed's bandwidth, the protocol's transport, and the
/// coordinate-derived seed.
ScenarioSpec expand_cell(const GridSpec& grid, const TopoCase& tc,
                         std::size_t case_index, std::size_t speed_index,
                         bool use_rvma);

struct GridCell {
  ScenarioResult rdma;
  ScenarioResult rvma;
  double speedup() const {
    return rvma.makespan == 0
               ? 0.0
               : static_cast<double>(rdma.makespan) /
                     static_cast<double>(rvma.makespan);
  }
  bool operator==(const GridCell&) const = default;
};

/// Run the whole grid — cases x grid.gbps x {RDMA, RVMA} — with `jobs`
/// workers (<= 0: all cores; 1: inline serial). Cells come back in grid
/// order (row-major: case, then speed) regardless of completion order.
/// Returns false with *error set when a case name or the base scenario
/// fails validation (checked before any simulation starts).
bool run_grid(const GridSpec& grid, int jobs, std::vector<GridCell>* out,
              std::string* error);

/// Merge every grid cell's metrics (in grid order) and collect the
/// per-run timeseries into one self-describing metrics document. The
/// document deliberately carries no job count or wall-clock data, so it
/// is byte-identical at any --jobs (see obs/metrics_io.hpp).
obs::MetricsDoc build_grid_metrics_doc(const GridSpec& grid,
                                       const std::vector<GridCell>& cells);

/// Options for the printing/output tail shared by the figure benches and
/// `rvma_run` on a grid document.
struct GridRunOptions {
  int jobs = 0;
  std::string json_path;
  std::string metrics_path;
  /// Serial-run wall-clock handed in by tools/run_bench.sh so the
  /// parallel run can report its speedup over the serial baseline.
  double serial_wall_s = 0.0;
};

/// Run the grid and print the figure table plus wall-clock footers;
/// writes the JSON/metrics outputs when requested. Returns process exit
/// code.
int run_grid_with_output(const GridSpec& grid, const GridRunOptions& opts);

/// CLI driver shared by fig7_sweep3d / fig8_halo3d: parses --nodes,
/// --rdma-slots, --quick, --jobs, --seed, --json,
/// --metrics, --metrics-period-us, --serial-wall-s, --flight-recorder,
/// --pdes-profile; runs the grid and
/// prints the table plus a wall-clock footer. `--emit-grid=<path>`
/// writes the configured GridSpec as a scenario-grid document (for
/// rvma_run) instead of running it.
int run_figure_cli(GridSpec grid, int argc, char** argv);

}  // namespace rvma::scenario
