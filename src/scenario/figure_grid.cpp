#include "scenario/figure_grid.hpp"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "exec/sweep_executor.hpp"
#include "scenario/registry.hpp"

namespace rvma::scenario {

const std::vector<TopoCase>& figure_topo_cases() {
  static const std::vector<TopoCase> cases = {
      {"torus3d-static", net::TopologyKind::kTorus3D, net::Routing::kStatic},
      {"torus3d-adaptive", net::TopologyKind::kTorus3D, net::Routing::kAdaptive},
      {"fattree-static", net::TopologyKind::kFatTree, net::Routing::kStatic},
      {"fattree-adaptive", net::TopologyKind::kFatTree, net::Routing::kAdaptive},
      {"dragonfly-static", net::TopologyKind::kDragonfly, net::Routing::kStatic},
      {"dragonfly-adaptive", net::TopologyKind::kDragonfly,
       net::Routing::kAdaptive},
      {"hyperx-DOR", net::TopologyKind::kHyperX, net::Routing::kStatic},
      {"hyperx-adaptive", net::TopologyKind::kHyperX, net::Routing::kAdaptive},
  };
  return cases;
}

std::vector<std::string> figure_topo_case_names() {
  std::vector<std::string> names;
  for (const TopoCase& tc : figure_topo_cases()) names.push_back(tc.name);
  return names;
}

bool resolve_topo_case(const std::string& name, TopoCase* out,
                       std::string* error) {
  for (const TopoCase& tc : figure_topo_cases()) {
    if (tc.name == name) {
      *out = tc;
      return true;
    }
  }
  // "<topology>-<routing>": split at the last '-' so topology names may
  // themselves contain dashes.
  const auto dash = name.rfind('-');
  if (dash != std::string::npos) {
    const std::string topo_name = name.substr(0, dash);
    const std::string routing_name = name.substr(dash + 1);
    const TopologyEntry* topo = topologies().find(topo_name);
    net::Routing routing = net::Routing::kStatic;
    if (topo != nullptr && parse_routing(routing_name, &routing)) {
      out->name = name;
      out->kind = topo->kind;
      out->routing = routing;
      return true;
    }
  }
  if (error != nullptr) *error = "unknown topology case \"" + name + "\"";
  return false;
}

std::uint64_t derive_run_seed(std::uint64_t base_seed,
                              std::uint64_t case_index,
                              std::uint64_t speed_index, bool use_rvma) {
  // Chain the coordinates through splitmix64: neighboring cells get
  // decorrelated streams, and a fixed (base, coordinates) tuple maps to
  // the same seed under any job count or execution order.
  // Each step folds the *mixed* output back into the state — XORing the
  // raw (linear) splitmix state instead would let nearby coordinates
  // cancel and collide.
  std::uint64_t state = base_seed;
  state = splitmix64(state) ^ case_index;
  state = splitmix64(state) ^ speed_index;
  state = splitmix64(state) ^ (use_rvma ? 0x5256ULL : 0x5244ULL);  // 'RV'/'RD'
  return splitmix64(state);
}

ScenarioSpec expand_cell(const GridSpec& grid, const TopoCase& tc,
                         std::size_t case_index, std::size_t speed_index,
                         bool use_rvma) {
  ScenarioSpec spec = grid.base;
  // Registry names for the case: canonical figure rows carry their kind
  // and routing directly; recover the registry names from them.
  spec.topology = to_string(tc.kind);
  spec.routing = tc.routing == net::Routing::kStatic ? "static" : "adaptive";
  spec.link_bandwidth = Bandwidth::gbps(grid.gbps[speed_index]);
  spec.transport = use_rvma ? "rvma" : "rdma";
  spec.seed = derive_run_seed(grid.base.seed, case_index, speed_index,
                              use_rvma);
  return spec;
}

bool run_grid(const GridSpec& grid, int jobs, std::vector<GridCell>* out,
              std::string* error) {
  std::vector<TopoCase> cases;
  for (const std::string& name :
       grid.cases.empty() ? figure_topo_case_names() : grid.cases) {
    TopoCase tc;
    if (!resolve_topo_case(name, &tc, error)) return false;
    cases.push_back(std::move(tc));
  }
  // Fail before fanning out: one cell half per (case, protocol) resolves
  // every registry name the workers will touch, and checks the motif
  // against each case's machine (every topology rounds the node count
  // its own way).
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (const bool use_rvma : {false, true}) {
      if (!validate_scenario(expand_cell(grid, cases[c], c, 0, use_rvma),
                             error)) {
        return false;
      }
    }
  }

  const std::size_t speeds = grid.gbps.size();
  const std::size_t runs = cases.size() * speeds * 2;
  // Run index -> (case, speed, protocol) in row-major grid order; the
  // executor may finish them in any order, sweep_map restores this one.
  auto outputs = exec::sweep_map<ScenarioResult>(
      jobs, runs, [&](std::size_t i) {
        const std::size_t case_index = i / (speeds * 2);
        const std::size_t speed_index = (i / 2) % speeds;
        const bool use_rvma = (i % 2) != 0;
        const TopoCase& tc = cases[case_index];
        ScenarioResult result;
        std::string run_error;
        ScenarioSpec spec =
            expand_cell(grid, tc, case_index, speed_index, use_rvma);
        // Observability outputs get a per-run suffix: a grid produces one
        // dump/profile per cell half, named by the (stable) run index, so
        // parallel workers never race on one file.
        if (!spec.flight_recorder_path.empty()) {
          spec.flight_recorder_path += ".run" + std::to_string(i);
        }
        if (!spec.pdes_profile_path.empty()) {
          spec.pdes_profile_path += ".run" + std::to_string(i);
        }
        const bool ok = run_scenario(spec, &result, &run_error);
        assert(ok && "grid cell failed after validation");
        (void)ok;
        // Label from grid coordinates, not completion order: the same run
        // gets the same label at any job count.
        result.series.label =
            tc.name + "@" +
            format_bandwidth(Bandwidth::gbps(grid.gbps[speed_index])) +
            (use_rvma ? "/rvma" : "/rdma");
        return result;
      });

  std::vector<GridCell> cells(cases.size() * speeds);
  for (std::size_t i = 0; i < runs; i += 2) {
    cells[i / 2].rdma = outputs[i];
    cells[i / 2].rvma = outputs[i + 1];
  }
  *out = std::move(cells);
  return true;
}

obs::MetricsDoc build_grid_metrics_doc(const GridSpec& grid,
                                       const std::vector<GridCell>& cells) {
  const std::size_t num_cases =
      grid.cases.empty() ? figure_topo_cases().size() : grid.cases.size();
  obs::MetricsDoc doc;
  doc.tool = grid.figure;
  doc.meta["motif"] = grid.motif_label;
  doc.meta["nodes"] = std::to_string(grid.base.nodes);
  doc.meta["rdma_slots"] = std::to_string(grid.base.rdma_slots);
  doc.meta["seed"] = std::to_string(grid.base.seed);
  doc.meta["grid_cases"] = std::to_string(num_cases);
  doc.meta["grid_speeds"] = std::to_string(grid.gbps.size());
  if (grid.base.sample_period > 0) {
    doc.meta["sample_period_us"] =
        std::to_string(grid.base.sample_period / kMicrosecond);
  }
  for (const GridCell& cell : cells) {
    doc.totals.merge(cell.rdma.metrics);
    doc.totals.merge(cell.rvma.metrics);
    if (!cell.rdma.series.empty()) doc.timeseries.push_back(cell.rdma.series);
    if (!cell.rvma.series.empty()) doc.timeseries.push_back(cell.rvma.series);
  }
  return doc;
}

namespace {

void write_grid_json(const std::string& path, const GridSpec& grid,
                     const std::vector<TopoCase>& cases,
                     const std::vector<GridCell>& cells, int jobs,
                     double wall_seconds, double serial_wall_seconds) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"figure\": \"%s\",\n"
               "  \"motif\": \"%s\",\n"
               "  \"nodes\": %d,\n"
               "  \"seed\": %llu,\n"
               "  \"jobs\": %d,\n"
               "  \"host_cores\": %d,\n"
               "  \"wall_seconds\": %.3f,\n",
               grid.figure.c_str(), grid.motif_label.c_str(), grid.base.nodes,
               static_cast<unsigned long long>(grid.base.seed), jobs,
               exec::hardware_jobs(), wall_seconds);
  if (serial_wall_seconds > 0.0) {
    std::fprintf(out, "  \"speedup_vs_serial\": %.2f,\n",
                 serial_wall_seconds / wall_seconds);
  }
  std::fprintf(out, "  \"cells\": [\n");
  const std::size_t speeds = grid.gbps.size();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const GridCell& cell = cells[i];
    std::fprintf(
        out,
        "    {\"case\": \"%s\", \"gbps\": %g, \"rdma_ms\": %.6f, "
        "\"rvma_ms\": %.6f, \"speedup\": %.4f, \"packets\": %llu}%s\n",
        cases[i / speeds].name.c_str(), grid.gbps[i % speeds],
        to_ms(cell.rdma.makespan), to_ms(cell.rvma.makespan), cell.speedup(),
        static_cast<unsigned long long>(cell.rdma.packets_delivered +
                                        cell.rvma.packets_delivered),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

}  // namespace

int run_grid_with_output(const GridSpec& grid, const GridRunOptions& opts) {
  std::vector<TopoCase> cases;
  std::string error;
  for (const std::string& name :
       grid.cases.empty() ? figure_topo_case_names() : grid.cases) {
    TopoCase tc;
    if (!resolve_topo_case(name, &tc, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    cases.push_back(std::move(tc));
  }
  const int effective_jobs =
      opts.jobs <= 0 ? exec::hardware_jobs() : opts.jobs;

  std::printf("%s: %s motif, RVMA vs RDMA across topologies, routing, and "
              "link speeds (%d ranks)\n",
              grid.figure.c_str(), grid.motif_label.c_str(), grid.base.nodes);
  std::printf("crossbar = 1.5x link bw, PCIe 150 ns (paper model "
              "parameters); seed %llu\n\n",
              static_cast<unsigned long long>(grid.base.seed));

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<GridCell> cells;
  if (!run_grid(grid, opts.jobs, &cells, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::vector<std::string> headers = {"topology-routing"};
  for (double g : grid.gbps) {
    headers.push_back(format_bandwidth(Bandwidth::gbps(g)) + " rdma");
    headers.push_back("rvma");
    headers.push_back("speedup");
  }
  Table table(headers);

  RunningStat all_speedups;
  double best = 0.0;
  std::string best_case;
  const std::size_t speeds = grid.gbps.size();
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    std::vector<std::string> row = {cases[ci].name};
    for (std::size_t si = 0; si < speeds; ++si) {
      const GridCell& cell = cells[ci * speeds + si];
      const double speedup = cell.speedup();
      all_speedups.add(speedup);
      if (speedup > best) {
        best = speedup;
        best_case = cases[ci].name + " @ " +
                    format_bandwidth(Bandwidth::gbps(grid.gbps[si]));
      }
      row.push_back(Table::num(to_ms(cell.rdma.makespan), 3) + " ms");
      row.push_back(Table::num(to_ms(cell.rvma.makespan), 3) + " ms");
      row.push_back(Table::num(speedup, 2) + "x");
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("\naverage RVMA speedup across all topologies/speeds: %.2fx\n",
              all_speedups.mean());
  std::printf("best case: %.2fx (%s)\n", best, best_case.c_str());
  std::printf("min speedup: %.2fx\n", all_speedups.min());
  std::printf("grid wall-clock: %.2f s (jobs=%d, host cores=%d)\n",
              wall_seconds, effective_jobs, exec::hardware_jobs());
  if (opts.serial_wall_s > 0.0) {
    std::printf("speedup vs serial sweep: %.2fx (serial %.2f s)\n",
                opts.serial_wall_s / wall_seconds, opts.serial_wall_s);
  }
  if (!opts.json_path.empty()) {
    write_grid_json(opts.json_path, grid, cases, cells, effective_jobs,
                    wall_seconds, opts.serial_wall_s);
  }
  if (!opts.metrics_path.empty()) {
    const obs::MetricsDoc doc = build_grid_metrics_doc(grid, cells);
    if (!obs::write_metrics_file(doc, opts.metrics_path)) return 1;
    std::printf("metrics written to %s\n", opts.metrics_path.c_str());
  }
  return 0;
}

namespace {

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) parts.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

}  // namespace

int run_figure_cli(GridSpec grid, int argc, char** argv) {
  Cli cli(argc, argv);
  grid.base.nodes = static_cast<int>(cli.get_int("nodes", grid.base.nodes));
  grid.base.rdma_slots =
      static_cast<int>(cli.get_int("rdma-slots", grid.base.rdma_slots));
  grid.base.seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<std::int64_t>(grid.base.seed)));
  grid.base.par_shards =
      static_cast<int>(cli.get_int("par-shards", grid.base.par_shards));
  // Comma-list overlays narrow the sweep without editing the document —
  // --cases=torus3d-static,fattree-static --gbps=100,2000. Case names are
  // validated by resolve_topo_case before any cell runs.
  const std::string cases_flag = cli.get("cases", "");
  if (!cases_flag.empty()) grid.cases = split_commas(cases_flag);
  const std::string gbps_flag = cli.get("gbps", "");
  if (!gbps_flag.empty()) {
    grid.gbps.clear();
    for (const std::string& part : split_commas(gbps_flag)) {
      char* end = nullptr;
      const double g = std::strtod(part.c_str(), &end);
      if (end == part.c_str() || *end != '\0' || g <= 0) {
        std::fprintf(stderr, "bad --gbps entry \"%s\"\n", part.c_str());
        return 2;
      }
      grid.gbps.push_back(g);
    }
  }
  const bool quick = cli.get_bool("quick", false);
  // Per-run observability outputs; run_grid suffixes ".run<i>" per cell
  // half. Arming the recorder never changes the printed table or metrics.
  grid.base.flight_recorder_path =
      cli.get("flight-recorder", grid.base.flight_recorder_path);
  grid.base.pdes_profile_path =
      cli.get("pdes-profile", grid.base.pdes_profile_path);
  GridRunOptions opts;
  opts.jobs = static_cast<int>(cli.get_int("jobs", 0));
  opts.json_path = cli.get("json", "");
  opts.metrics_path = cli.get("metrics", "");
  const std::int64_t metrics_period_us = cli.get_int("metrics-period-us", 10);
  if (!opts.metrics_path.empty() && metrics_period_us > 0) {
    grid.base.sample_period =
        static_cast<Time>(metrics_period_us) * kMicrosecond;
  }
  opts.serial_wall_s = cli.get_double("serial-wall-s", 0.0);
  const std::string emit_path = cli.get("emit-grid", "");
  for (const auto& key : cli.unconsumed()) {
    std::fprintf(stderr, "unknown option --%s\n", key.c_str());
    return 2;
  }
  if (quick) grid.gbps = {100, 2000};

  if (!emit_path.empty()) {
    std::ofstream out(emit_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", emit_path.c_str());
      return 1;
    }
    out << to_json(grid);
    std::printf("grid spec written to %s\n", emit_path.c_str());
    return 0;
  }
  if (grid.base.sample_period > 0 && grid.base.par_shards > 1) {
    // stderr: stdout is the table that run_bench byte-compares.
    std::fprintf(stderr,
                 "note: --metrics samples gauges every %lld us, and sampled "
                 "cells run on one shard, not %d; --metrics-period-us=0 "
                 "shards them\n",
                 static_cast<long long>(grid.base.sample_period /
                                        kMicrosecond),
                 grid.base.par_shards);
  }
  return run_grid_with_output(grid, opts);
}

}  // namespace rvma::scenario
