#include "cells.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "cluster/cluster.hpp"
#include "common/rss.hpp"
#include "exec/sweep_executor.hpp"
#include "motifs/api_motif.hpp"
#include "motifs/runner.hpp"
#include "scenario/figure_grid.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace perfbench {

namespace sc = rvma::scenario;

namespace {

// ------------------------------------------------------------ workloads

/// Base scenarios of the paper's two figure grids, with the motif
/// parameters of bench/fig7_sweep3d.cpp and bench/fig8_halo3d.cpp.
sc::GridSpec fig7_grid(int nodes, std::uint64_t seed) {
  sc::GridSpec grid;
  grid.figure = "fig7";
  grid.base.nodes = nodes;
  grid.base.seed = seed;
  grid.base.motif = "sweep3d";
  grid.base.motif_params = {{"nx", "48"},  {"ny", "48"},
                            {"nz", "64"},  {"kba", "8"},
                            {"vars", "4"}, {"compute_per_cell", "20ps"}};
  return grid;
}

sc::GridSpec fig8_grid(int nodes, std::uint64_t seed) {
  sc::GridSpec grid;
  grid.figure = "fig8";
  grid.base.nodes = nodes;
  grid.base.seed = seed;
  grid.base.motif = "halo3d";
  grid.base.motif_params = {{"nx", "32"},         {"ny", "32"},
                            {"nz", "32"},         {"vars", "4"},
                            {"iterations", "4"},  {"compute_per_cell", "50ps"}};
  return grid;
}

std::size_t case_index(const std::string& name) {
  const auto& cases = sc::figure_topo_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (cases[i].name == name) return i;
  }
  return cases.size();
}

/// One grid cell half, labelled "<figure>/<case>@<speed>/<transport>" and
/// seeded from its grid coordinates (scenario::derive_run_seed).
Cell grid_cell(const sc::GridSpec& grid, std::size_t ci, std::size_t si,
               bool use_rvma) {
  const sc::TopoCase& tc = sc::figure_topo_cases()[ci];
  Cell cell;
  cell.spec = sc::expand_cell(grid, tc, ci, si, use_rvma);
  cell.label = grid.figure + "/" + tc.name + "@" +
               std::to_string(static_cast<int>(grid.gbps[si])) + "G/" +
               cell.spec.transport;
  return cell;
}

/// Appends the full grid (case-major, then speed, rdma before rvma) and
/// returns the index of its first cell.
std::size_t append_grid(const sc::GridSpec& grid, std::vector<Cell>* cells) {
  const std::size_t base = cells->size();
  for (std::size_t ci = 0; ci < sc::figure_topo_cases().size(); ++ci) {
    for (std::size_t si = 0; si < grid.gbps.size(); ++si) {
      for (const bool use_rvma : {false, true}) {
        cells->push_back(grid_cell(grid, ci, si, use_rvma));
      }
    }
  }
  return base;
}

PaperRef grid_ref(const sc::GridSpec& grid, std::size_t base,
                  const std::string& label, double paper,
                  const std::string& only_case = {}, double only_gbps = 0) {
  PaperRef ref;
  ref.label = label;
  ref.paper = paper;
  const auto& cases = sc::figure_topo_cases();
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    if (!only_case.empty() && cases[ci].name != only_case) continue;
    for (std::size_t si = 0; si < grid.gbps.size(); ++si) {
      if (only_gbps > 0 && grid.gbps[si] != only_gbps) continue;
      const std::size_t rdma = base + (ci * grid.gbps.size() + si) * 2;
      ref.pairs.emplace_back(rdma, rdma + 1);
    }
  }
  return ref;
}

constexpr std::size_t kKvCells = 16;

}  // namespace

std::vector<std::string> workload_names() {
  return {"grid64", "sweep3d_8192", "kv_store_1024"};
}

bool make_workload(const std::string& name, std::uint64_t seed,
                   Workload* out) {
  Workload wl;
  wl.name = name;
  if (name == "grid64") {
    // Paper Fig 7 / Fig 8 published values (SST, 8,192 nodes).
    const sc::GridSpec f7 = fig7_grid(64, seed);
    const sc::GridSpec f8 = fig8_grid(64, seed);
    const std::size_t b7 = append_grid(f7, &wl.cells);
    const std::size_t b8 = append_grid(f8, &wl.cells);
    wl.jobs = 4;
    // A cell whose routing draws from the seeded RNG, so the self-check
    // also covers seed handling.
    wl.check_cell =
        grid_ref(f7, b7, {}, 0, "dragonfly-adaptive", 2000).pairs[0].second;
    wl.refs.push_back(grid_ref(f7, b7, "fig7 mean", 3.56));
    wl.refs.push_back(grid_ref(f7, b7, "fig7 dragonfly-adaptive@2000G", 4.4,
                               "dragonfly-adaptive", 2000));
    wl.refs.push_back(grid_ref(f8, b8, "fig8 mean", 1.57));
    wl.refs.push_back(grid_ref(f8, b8, "fig8 hyperx-DOR@400G", 1.64,
                               "hyperx-DOR", 400));
    wl.refs.push_back(grid_ref(f8, b8, "fig8 hyperx-DOR@2000G", 1.89,
                               "hyperx-DOR", 2000));
  } else if (name == "sweep3d_8192") {
    sc::GridSpec f7 = fig7_grid(8192, seed);
    f7.base.par_shards = 4;
    wl.cells.push_back(grid_cell(f7, case_index("torus3d-static"), 0, false));
    wl.cells.push_back(grid_cell(f7, case_index("torus3d-static"), 0, true));
    wl.check_cell = 1;
    PaperRef floor;
    floor.label = "fig7 floor";
    floor.paper = 2.0;
    floor.floor = true;
    floor.pairs.emplace_back(0, 1);
    wl.refs.push_back(floor);
  } else if (name == "kv_store_1024") {
    // Independently seeded instances fanned out like grid64: a serial
    // single cell times whichever host core it lands on, many cells
    // over the workers average over all of them. 64 servers rather than
    // 256 shrink the posted request pools (servers x clients x
    // outstanding records), which with 256 servers took most of a cell's
    // time in zero-filling some 200 MiB and swung with the host's memory
    // load more than anything else measured here.
    const std::size_t ci = case_index("fattree-static");
    for (std::size_t k = 0; k < kKvCells; ++k) {
      Cell cell;
      cell.label = "kv_store/fattree-static@100G#" + std::to_string(k);
      cell.spec.topology = "fattree";
      cell.spec.routing = "static";
      cell.spec.nodes = 1024;
      cell.spec.motif = "kv_store";
      cell.spec.motif_params = {{"servers", "64"},
                                {"requests", "32"},
                                {"outstanding", "4"}};
      cell.spec.doorbell_batch = 1;
      cell.spec.seed = sc::derive_run_seed(seed, ci, k, true);
      wl.cells.push_back(std::move(cell));
    }
    wl.jobs = 4;
  } else {
    return false;
  }
  *out = std::move(wl);
  return true;
}

// ------------------------------------------------------------- one cell

namespace {

double resident_bytes() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// The NetworkConfig run_scenario derives from a spec (scenario/runner.cpp).
rvma::net::NetworkConfig network_config(const sc::ScenarioSpec& spec) {
  rvma::net::NetworkConfig cfg;
  cfg.topology = sc::topologies().find(spec.topology)->kind;
  sc::parse_routing(spec.routing, &cfg.routing);
  cfg.nodes_hint = spec.nodes;
  cfg.link.bw = spec.link_bandwidth;
  cfg.link.latency = spec.link_latency;
  cfg.long_link_latency = spec.long_link_latency;
  cfg.switch_latency = spec.switch_latency;
  cfg.xbar_factor = spec.xbar_factor;
  cfg.concentration = spec.concentration;
  cfg.seed = spec.seed;
  cfg.express = spec.express;
  cfg.route_table = spec.route_table == "materialized"
                        ? rvma::net::RouteTable::kMaterialized
                        : rvma::net::RouteTable::kAlgebraic;
  return cfg;
}

std::uint64_t sum_prefixed(const rvma::obs::MetricsSnapshot& m,
                           const std::string& prefix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : m.counters) {
    if (name.compare(0, prefix.size(), prefix) == 0) total += value;
  }
  return total;
}

/// The per-cell output check; returns the first violated condition.
std::string check_outputs(const Cell& cell, const CellRun& r) {
  if (r.packets_injected != r.packets_delivered) {
    return "packets injected " + std::to_string(r.packets_injected) +
           " != delivered " + std::to_string(r.packets_delivered);
  }
  if (r.ops_executed != r.ops_built) {
    return "ops executed " + std::to_string(r.ops_executed) +
           " != built " + std::to_string(r.ops_built);
  }
  if (const std::uint64_t drops = sum_prefixed(r.metrics, "rvma.drops_") +
                                  counter(r.metrics, "nic.drops_no_handler");
      drops != 0) {
    return std::to_string(drops) + " dropped packets";
  }
  if (!r.api && cell.spec.transport == "rvma" &&
      counter(r.metrics, "rvma.completions") != r.transport.data_messages) {
    return "rvma completions " +
           std::to_string(counter(r.metrics, "rvma.completions")) +
           " != messages sent " + std::to_string(r.transport.data_messages);
  }
  if (cell.spec.motif == "kv_store") {
    const auto& p = cell.spec.motif_params;
    const std::uint64_t expected =
        static_cast<std::uint64_t>(cell.spec.nodes - std::stoi(p.at("servers"))) *
        static_cast<std::uint64_t>(std::stoi(p.at("requests")));
    const std::uint64_t requests = counter(r.metrics, "kv.requests");
    const std::uint64_t replies = counter(r.metrics, "kv.replies");
    if (requests != expected || replies != requests) {
      return "kv requests " + std::to_string(requests) + ", replies " +
             std::to_string(replies) + ", expected " + std::to_string(expected);
    }
    if (counter(r.metrics, "rvma.completions") != requests + replies) {
      return "rvma completions " +
             std::to_string(counter(r.metrics, "rvma.completions")) +
             " != requests + replies " + std::to_string(requests + replies);
    }
  }
  return {};
}

/// Compose one cell from the modules' entry points, exactly as
/// scenario::run_scenario does. `setup_only` stops after the set-up calls.
CellRun run_cell(const Cell& cell, SpanLog* spans, std::uint32_t parent,
                 bool setup_only) {
  const sc::ScenarioSpec& spec = cell.spec;
  CellRun r;
  Timed whole(spans, parent, "cell", "bench", cell.label);
  const std::uint32_t id = whole.id();

  const sc::MotifEntry* motif = sc::motifs_registry().find(spec.motif);
  const sc::TransportEntry* transport = sc::transports().find(spec.transport);
  rvma::nic::NicParams nic_params;
  nic_params.doorbell_batch = static_cast<std::uint32_t>(spec.doorbell_batch);

  Timed construct(spans, id, "cluster::Cluster", "cluster", cell.label);
  auto cluster = std::make_unique<rvma::cluster::Cluster>(
      network_config(spec), nic_params, spec.par_shards);
  r.construct_s = construct.stop();
  r.shards = cluster->num_shards();
  if (spans != nullptr) cluster->enable_pdes_profiling();

  // Declared here so their teardown is timed below, not hidden in a scope
  // exit. A cell has either an API motif or a transport.
  std::unique_ptr<rvma::motifs::ApiMotif> api_motif;
  std::unique_ptr<rvma::motifs::Transport> tr;
  std::string error;
  const double rss0 = resident_bytes();
  if (motif->build_api) {
    r.api = true;
    Timed build(spans, id, "MotifEntry::build_api", "motifs", cell.label);
    api_motif = motif->build_api(spec, &error);
    r.build_s = build.stop();
    r.rss_build_bytes = resident_bytes() - rss0;
    if (api_motif == nullptr) {
      r.failure = "build_api: " + error;
      return r;
    }
    if (setup_only) return r;
    const double rss1 = resident_bytes();
    Timed run(spans, id, "ApiMotif::run", "api", cell.label);
    const rvma::motifs::ApiMotifResult res = api_motif->run(*cluster);
    r.run_s = run.stop();
    r.rss_run_bytes = static_cast<double>(rvma::peak_rss_bytes()) - rss1;
    r.makespan = res.makespan;
    r.ops_executed = res.ops_executed;
    r.ops_built = res.ops_executed;
    for (int k = 0; k < cluster->num_shards(); ++k) {
      r.engine_events += cluster->engine_for_shard(k).executed_events();
    }
  } else {
    Timed build(spans, id, "MotifEntry::build", "motifs", cell.label);
    std::vector<rvma::motifs::RankProgram> programs = motif->build(spec, &error);
    r.build_s = build.stop();
    r.rss_build_bytes = resident_bytes() - rss0;
    if (programs.empty()) {
      r.failure = "build: " + error;
      return r;
    }
    for (const auto& program : programs) {
      r.ops_built += program.size();
      r.program_bytes += static_cast<double>(
          sizeof(program) + program.capacity() * sizeof(rvma::motifs::Op));
    }
    r.rdma = spec.transport == "rdma";
    Timed make(spans, id, "TransportEntry::make", r.rdma ? "rdma" : "core",
               cell.label);
    tr = transport->make(*cluster, spec);
    r.make_s = make.stop();
    if (setup_only) return r;
    const double rss1 = resident_bytes();
    Timed run(spans, id, "MotifRunner::run", "sim", cell.label);
    const rvma::motifs::MotifResult res =
        rvma::motifs::MotifRunner(*cluster, *tr, std::move(programs)).run();
    r.run_s = run.stop();
    r.rss_run_bytes = static_cast<double>(rvma::peak_rss_bytes()) - rss1;
    r.makespan = res.makespan;
    r.setup_done = res.setup_done;
    r.ops_executed = res.ops_executed;
    r.engine_events = res.engine_events;
    r.transport = res.transport;
  }

  Timed collect(spans, id, "Cluster::collect_metrics", "obs", cell.label);
  r.metrics = cluster->collect_metrics();
  if (spans != nullptr) r.pdes = cluster->collect_pdes_profile();
  collect.stop();
  const rvma::net::FabricStats fabric = cluster->fabric_stats();
  r.packets_injected = fabric.packets_injected;
  r.packets_delivered = fabric.packets_delivered;
  r.failure = check_outputs(cell, r);

  Timed teardown(spans, id, r.api ? "~ApiMotif" : "~Transport",
                 r.api ? "api" : r.rdma ? "rdma" : "core", cell.label);
  api_motif.reset();
  tr.reset();
  teardown.stop();
  Timed destroy(spans, id, "~Cluster", "cluster", cell.label);
  cluster.reset();
  destroy.stop();
  r.cell_s = whole.stop();
  return r;
}

// --------------------------------------------------------------- digest

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void add(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    add(s.size());
  }
};

/// Hash of every simulated output: makespans, packet and op counts,
/// transport counters and the full metrics snapshot of every cell.
std::uint64_t digest_of(const Workload& wl, const std::vector<CellRun>& cells) {
  Fnv f;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellRun& r = cells[i];
    f.add(wl.cells[i].label);
    for (const std::uint64_t v :
         {r.makespan, r.setup_done, r.packets_injected, r.packets_delivered,
          r.ops_built, r.ops_executed, r.engine_events,
          r.transport.data_messages, r.transport.control_messages,
          r.transport.credit_stalls}) {
      f.add(v);
    }
    for (const auto& [name, v] : r.metrics.counters) {
      f.add(name);
      f.add(v);
    }
    for (const auto& [name, v] : r.metrics.gauges) {
      f.add(name);
      f.add(static_cast<std::uint64_t>(v));
    }
    for (const auto& [name, h] : r.metrics.histograms) {
      f.add(name);
      for (const std::uint64_t v : {h.count, h.sum, h.min, h.max}) f.add(v);
      for (const auto& [bucket, count] : h.buckets) {
        f.add(static_cast<std::uint64_t>(bucket));
        f.add(count);
      }
    }
  }
  return f.h;
}

}  // namespace

// ----------------------------------------------------------------- runs

std::uint64_t counter(const rvma::obs::MetricsSnapshot& m,
                      const std::string& name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

WorkloadRun run_workload(const Workload& wl, SpanLog* spans) {
  WorkloadRun out;
  const double cpu0 = cpu_seconds();
  Timed root(spans, SpanLog::kNoParent, "workload " + wl.name, "bench");
  {
    Timed fan(spans, root.id(), "exec::sweep_map", "exec", {}, wl.jobs);
    out.cells = rvma::exec::sweep_map<CellRun>(
        wl.jobs, wl.cells.size(), [&](std::size_t i) {
          return run_cell(wl.cells[i], spans, fan.id(), false);
        });
    out.exec_wall_s = fan.stop();
  }
  {
    Timed digest(spans, root.id(), "digest", "bench");
    out.digest = digest_of(wl, out.cells);
  }
  out.wall_s = root.stop();
  out.cpu_s = cpu_seconds() - cpu0;
  for (const CellRun& c : out.cells) {
    if (!c.failure.empty()) ++out.failed;
  }
  return out;
}

double setup_workload(const Workload& wl) {
  double total = 0;
  for (const Cell& cell : wl.cells) {
    total += run_cell(cell, nullptr, SpanLog::kNoParent, true).setup_s();
  }
  return total;
}

bool self_check(const Workload& wl, const WorkloadRun& run, std::string* why) {
  const Cell& cell = wl.cells[wl.check_cell];
  const CellRun& mine = run.cells[wl.check_cell];
  sc::ScenarioResult ref;
  std::string error;
  if (!sc::run_scenario(cell.spec, &ref, &error)) {
    *why = cell.label + ": run_scenario failed: " + error;
    return false;
  }
  if (ref.makespan != mine.makespan ||
      ref.packets_injected != mine.packets_injected ||
      ref.packets_delivered != mine.packets_delivered ||
      ref.engine_events != mine.engine_events || !(ref.metrics == mine.metrics)) {
    *why = cell.label + ": composed run differs from run_scenario";
    return false;
  }
  return true;
}

std::vector<RefGap> paper_gaps(const Workload& wl, const WorkloadRun& run) {
  std::vector<RefGap> out;
  for (const PaperRef& ref : wl.refs) {
    double sum = 0;
    double lowest = 0;
    for (std::size_t k = 0; k < ref.pairs.size(); ++k) {
      const CellRun& rdma = run.cells[ref.pairs[k].first];
      const CellRun& rv = run.cells[ref.pairs[k].second];
      const double s = static_cast<double>(rdma.makespan) /
                       static_cast<double>(rv.makespan);
      sum += s;
      lowest = k == 0 ? s : std::min(lowest, s);
    }
    RefGap g;
    g.label = ref.label;
    g.paper = ref.paper;
    g.sim = ref.floor ? lowest : sum / static_cast<double>(ref.pairs.size());
    g.gap_pct = 100.0 * (ref.floor ? std::max(0.0, ref.paper - g.sim)
                                   : std::fabs(g.sim - ref.paper)) /
                ref.paper;
    out.push_back(g);
  }
  return out;
}

}  // namespace perfbench
