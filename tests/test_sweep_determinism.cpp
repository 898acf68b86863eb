// Parallel-sweep determinism: the whole point of the SweepExecutor is
// that running the figure grids with jobs=N produces bit-identical
// results to jobs=1. These tests pin that contract on a mini Figure-8
// style grid (expressed as a scenario GridSpec) and on the seed
// derivation.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "scenario/figure_grid.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace rvma::scenario {
namespace {

GridSpec mini_grid() {
  GridSpec grid;
  grid.figure = "test";
  grid.motif_label = "Halo3D";
  grid.base.nodes = 8;
  grid.base.motif = "halo3d";
  grid.base.motif_params = {{"nx", "8"},
                            {"ny", "8"},
                            {"nz", "8"},
                            {"vars", "2"},
                            {"iterations", "2"},
                            {"compute_per_cell", "50ps"}};
  grid.gbps = {100, 400};
  // First three rows of the figure grid keep the tests under a second
  // while still covering torus, fat-tree, and adaptive routing.
  grid.cases = {"torus3d-static", "torus3d-adaptive", "fattree-static"};
  return grid;
}

TEST(SweepDeterminism, ParallelGridMatchesSerial) {
  const GridSpec grid = mini_grid();

  std::vector<GridCell> serial, parallel;
  std::string error;
  ASSERT_TRUE(run_grid(grid, 1, &serial, &error)) << error;
  ASSERT_TRUE(run_grid(grid, 4, &parallel, &error)) << error;

  ASSERT_EQ(serial.size(), grid.cases.size() * grid.gbps.size());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
    EXPECT_GT(serial[i].rdma.makespan, 0) << "cell " << i;
    EXPECT_GT(serial[i].rvma.makespan, 0) << "cell " << i;
    EXPECT_GT(serial[i].rdma.packets_delivered, 0u) << "cell " << i;
  }
}

TEST(SweepDeterminism, MetricsJsonIdenticalAcrossJobCounts) {
  GridSpec grid = mini_grid();
  grid.base.sample_period = 2 * kMicrosecond;

  std::vector<GridCell> serial, parallel;
  std::string error;
  ASSERT_TRUE(run_grid(grid, 1, &serial, &error)) << error;
  ASSERT_TRUE(run_grid(grid, 4, &parallel, &error)) << error;
  const obs::MetricsDoc doc_s = build_grid_metrics_doc(grid, serial);
  const obs::MetricsDoc doc_p = build_grid_metrics_doc(grid, parallel);

  // The serialized document — the exact bytes --metrics writes — must be
  // identical at any job count.
  const std::string json_s = obs::to_json(doc_s);
  EXPECT_EQ(json_s, obs::to_json(doc_p));

  // And it must actually contain the observability payload: counters,
  // a populated latency histogram, and sampled gauge timeseries.
  EXPECT_GT(doc_s.totals.counters.at("fabric.packets_delivered"), 0u);
  ASSERT_TRUE(doc_s.totals.histograms.count("fabric.pkt_latency_ns"));
  EXPECT_GT(doc_s.totals.histograms.at("fabric.pkt_latency_ns").count, 0u);
  ASSERT_FALSE(doc_s.timeseries.empty());
  for (const obs::Timeseries& ts : doc_s.timeseries) {
    EXPECT_FALSE(ts.empty());
    EXPECT_FALSE(ts.label.empty());
    EXPECT_EQ(ts.period, grid.base.sample_period);
  }

  // Sampling must not perturb the simulation: same makespans and event
  // counts as the unsampled grid.
  std::vector<GridCell> unsampled;
  ASSERT_TRUE(run_grid(mini_grid(), 1, &unsampled, &error)) << error;
  ASSERT_EQ(unsampled.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].rvma.makespan, unsampled[i].rvma.makespan) << i;
    EXPECT_EQ(serial[i].rdma.engine_events, unsampled[i].rdma.engine_events)
        << i;
  }
}

TEST(SweepDeterminism, StaticRoutingUsesNextHopCache) {
  const GridSpec grid = mini_grid();
  ScenarioSpec spec = grid.base;
  spec.topology = "torus3d";
  spec.routing = "static";
  spec.transport = "rvma";
  spec.seed = 1;

  ScenarioResult cached, adaptive;
  std::string error;
  ASSERT_TRUE(run_scenario(spec, &cached, &error)) << error;
  EXPECT_GT(cached.metrics.counters.at("fabric.route_cache_hits"), 0u);

  spec.routing = "adaptive";
  ASSERT_TRUE(run_scenario(spec, &adaptive, &error)) << error;
  EXPECT_EQ(adaptive.metrics.counters.at("fabric.route_cache_hits"), 0u);
}

TEST(SweepDeterminism, RunSeedsAreStableAndDistinct) {
  const std::uint64_t base = 2021;
  EXPECT_EQ(derive_run_seed(base, 3, 1, true), derive_run_seed(base, 3, 1, true));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t c = 0; c < 8; ++c) {
    for (std::uint64_t s = 0; s < 4; ++s) {
      seeds.insert(derive_run_seed(base, c, s, false));
      seeds.insert(derive_run_seed(base, c, s, true));
    }
  }
  EXPECT_EQ(seeds.size(), 8u * 4u * 2u);  // no collisions across the grid
  EXPECT_NE(derive_run_seed(base, 0, 0, false), derive_run_seed(base + 1, 0, 0, false));
}

}  // namespace
}  // namespace rvma::scenario
