// rvma_run — execute one scenario document, or a whole figure grid.
//
// Usage:
//   rvma_run --list
//       Print every registered topology, transport, and motif.
//   rvma_run <scenario.json> [overlay flags] [--print]
//       Run one scenario (rvma-scenario-v1). Overlay flags (--nodes=64,
//       --transport=rdma, --motif.vars=8, ...) win over file values;
//       --print dumps the effective spec as canonical JSON and exits.
//   rvma_run <grid.json> [--jobs=N] [--quick] [--json=...] [--metrics=...]
//       Expand a sweep grid (rvma-scenario-grid-v1) through the parallel
//       sweep executor and print the figure table — the same driver the
//       fig7/fig8 benches use, so outputs are byte-identical.
//
// The document kind is dispatched on the "format" field; every run is
// deterministic in its spec (same file + flags => same tables, metrics
// and flight-recorder spans at any --jobs).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "obs/metrics_io.hpp"
#include "scenario/figure_grid.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

using namespace rvma;
using namespace rvma::scenario;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rvma_run --list\n"
               "       rvma_run <scenario.json> [--nodes=N --transport=T "
               "--motif.<k>=<v> --par-shards=K ...] [--print]\n"
               "       rvma_run <grid.json> [--jobs=N --par-shards=K --quick "
               "--json=PATH --metrics=PATH]\n");
  return 2;
}

int list_registries() {
  std::printf("topologies:\n");
  for (const auto& [name, entry] : topologies().entries())
    std::printf("  %-12s %s\n", name.c_str(), entry.description.c_str());
  std::printf("transports:\n");
  for (const auto& [name, entry] : transports().entries())
    std::printf("  %-12s %s\n", name.c_str(), entry.description.c_str());
  std::printf("motifs:\n");
  for (const auto& [name, entry] : motifs_registry().entries())
    std::printf("  %-12s %s\n", name.c_str(), entry.description.c_str());
  return 0;
}

int run_single(const std::string& text, int argc, char** argv) {
  ScenarioSpec spec;
  std::string error;
  if (!spec_from_json(text, &spec, &error)) {
    std::fprintf(stderr, "rvma_run: %s\n", error.c_str());
    return 2;
  }
  Cli cli(argc, argv);
  if (!apply_cli_overlay(cli, &spec, &error)) {
    std::fprintf(stderr, "rvma_run: %s\n", error.c_str());
    return 2;
  }
  const bool print_only = cli.get_bool("print", false);
  const bool want_timing = cli.get_bool("timing", false);
  for (const auto& key : cli.unconsumed()) {
    std::fprintf(stderr, "unknown option --%s\n", key.c_str());
    return 2;
  }
  if (print_only) {
    std::fputs(to_json(spec).c_str(), stdout);
    return 0;
  }
  if (!validate_scenario(spec, &error)) {
    std::fprintf(stderr, "rvma_run: %s\n", error.c_str());
    return 2;
  }
  if (spec.sample_period > 0 && spec.par_shards > 1) {
    std::fprintf(stderr,
                 "note: a sampled cell (sample_period %s) runs on one "
                 "shard, not %d; --sample-period=0 shards it\n",
                 format_time(spec.sample_period).c_str(), spec.par_shards);
  }

  ScenarioResult result;
  RunTiming timing;
  if (!run_scenario(spec, &result, &error, want_timing ? &timing : nullptr)) {
    std::fprintf(stderr, "rvma_run: %s\n", error.c_str());
    return 1;
  }
  if (want_timing) {
    // Wall clocks and memory go to stderr: stdout is the deterministic
    // summary that run_bench byte-diffs across jobs/shards/ablations.
    std::fprintf(stderr,
                 "timing: construct %.3f s, simulate %.3f s, "
                 "peak_rss %zu bytes\n",
                 timing.construct_wall_s, timing.sim_wall_s,
                 timing.peak_rss_bytes);
  }

  // Deterministic summary: simulated quantities only, no wall clock, so
  // two runs of the same spec byte-diff clean.
  std::printf("scenario: %s\n",
              spec.name.empty() ? "(unnamed)" : spec.name.c_str());
  std::printf("  %s on %s-%s, %d nodes @ %s, transport %s\n",
              spec.motif.c_str(), spec.topology.c_str(), spec.routing.c_str(),
              spec.nodes, format_bandwidth(spec.link_bandwidth).c_str(),
              spec.transport.c_str());
  std::printf("  makespan: %.6f ms\n", to_ms(result.makespan));
  std::printf("  packets: %llu injected, %llu delivered\n",
              static_cast<unsigned long long>(result.packets_injected),
              static_cast<unsigned long long>(result.packets_delivered));
  std::printf("  engine events: %llu\n",
              static_cast<unsigned long long>(result.engine_events));

  if (!spec.metrics_path.empty()) {
    const obs::MetricsDoc doc = build_scenario_metrics_doc(spec, result);
    if (!obs::write_metrics_file(doc, spec.metrics_path)) {
      std::fprintf(stderr, "cannot write %s\n", spec.metrics_path.c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", spec.metrics_path.c_str());
  }
  return 0;
}

int run_grid_doc(const std::string& text, int argc, char** argv) {
  GridSpec grid;
  std::string error;
  if (!grid_from_json(text, &grid, &error)) {
    std::fprintf(stderr, "rvma_run: %s\n", error.c_str());
    return 2;
  }
  // Same flag set as the figure benches — a grid document run here and a
  // bench binary run with the matching flags print identical bytes.
  return run_figure_cli(std::move(grid), argc, argv);
}

}  // namespace

int main(int argc, char** argv) {
  Cli probe(argc, argv);
  if (probe.get_bool("list", false)) return list_registries();
  if (probe.positional().size() != 1) return usage();
  const std::string path = probe.positional()[0];

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "rvma_run: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  return looks_like_grid(text) ? run_grid_doc(text, argc, argv)
                               : run_single(text, argc, argv);
}
