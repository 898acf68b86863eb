// Figure 7 — RVMA vs RDMA, Sweep3D motif.
//
// Paper setup: SST motifs at 8,192 nodes (262,144 cores), message sizes
// medium-to-large, crossbar 1.5x link bw, PCIe 150 ns, topologies x routing
// x link speeds {100, 200, 400 Gbps, 2 Tbps}. Paper headlines: RVMA >= 2x
// everywhere, 4.4x best (2 Tbps adaptively routed dragonfly), 3.56x mean.
//
// Thin grid-spec emitter over the scenario layer: the bench just names
// the motif and its parameters; src/scenario/figure_grid runs the grid.
// `--emit-grid=<path>` writes the equivalent rvma-scenario-grid-v1
// document for rvma_run. Default scale here is 64 ranks, which keeps the
// grid interactive. The speedup is not scale-invariant: the 8,192-rank
// grid reads lower (EXPERIMENTS.md, Figure 7 at paper scale). Use
// --nodes=<N> to scale up (the process grid re-derives near-squarely).
#include "scenario/figure_grid.hpp"

using namespace rvma::scenario;

int main(int argc, char** argv) {
  GridSpec grid;
  grid.figure = "Figure 7";
  grid.motif_label = "Sweep3D";
  grid.base.nodes = 64;
  grid.base.motif = "sweep3d";
  // Medium-size wavefront messages (paper: "medium to large"): 12 KiB
  // faces, so serialization matters at 100 Gbps while the per-step
  // control messages dominate at 2 Tbps — the crossover the paper shows.
  // Minimal compute (paper: motifs "use minimal compute to compare the
  // impact of communication") keeps block work under the message costs.
  grid.base.motif_params = {{"nx", "48"},
                            {"ny", "48"},
                            {"nz", "64"},
                            {"kba", "8"},
                            {"vars", "4"},
                            {"compute_per_cell", "20ps"}};
  return run_figure_cli(std::move(grid), argc, argv);
}
