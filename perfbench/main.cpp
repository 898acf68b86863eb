// perfbench: end-to-end benchmark of the simulator on three workloads
// derived from the paper's experiments (see README.md in this directory).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// Repeats the workload for about --seconds (at least once) and
// prints, as its last stdout line, one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics of traced repetitions
// (--trace 1). Every cell's outputs are checked, every repetition must
// reproduce the same sim_digest, and traced runs re-run one cell through
// scenario::run_scenario.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cells.hpp"
#include "common/rss.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Set-up-only passes per run: after each repetition, passes for this
/// share of its wall time (at least one), and at least kSetupPasses in all.
/// Spread over the run like the repetitions, their median averages over
/// the same host-speed swings as the wall-clock median does.
constexpr double kSetupShare = 0.1;
constexpr std::size_t kSetupPasses = 9;

struct Args {
  std::string workload;
  std::uint64_t seed = 2021;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (key == "--trace-dir") {
      a->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Per-layer metrics of one traced repetition (see README.md for the
/// metric -> layer -> workload table). Memory growth metrics come from
/// `fresh`, the process's first repetition, before allocator reuse.
std::vector<Metric> layer_metrics(const Workload& wl, const WorkloadRun& run,
                                  const WorkloadRun& fresh,
                                  const SpanLog::Attribution& attr) {
  double construct = 0, build = 0, run_s = 0, api_run = 0, program = 0;
  double shards = 0, barrier_ns = 0, busy_min = 100, rdma_setup_ps = 0;
  double rdma_cells = 0;
  std::uint64_t ops = 0, events = 0, windows = 0;
  rvma::motifs::TransportStats rdma;
  rvma::obs::MetricsSnapshot merged;  ///< every cell's registry snapshot
  std::vector<double> cell_s;
  for (const CellRun& c : run.cells) {
    construct += c.construct_s;
    build += c.build_s;
    run_s += c.run_s;
    if (c.api) api_run += c.run_s;
    program = std::max(program, c.program_bytes);
    ops += c.ops_built;
    events += c.engine_events;
    shards += c.shards;
    cell_s.push_back(c.cell_s);
    merged.merge(c.metrics);
    windows += counter(c.pdes, "pdes.windows");
    for (int k = 0; k < c.shards; ++k) {
      const std::string p = "pdes.shard" + std::to_string(k) + ".";
      barrier_ns += static_cast<double>(
          counter(c.pdes, p + "barrier_wait_wall_ns"));
      const auto it = c.pdes.gauges.find(p + "utilization_pct");
      if (it != c.pdes.gauges.end()) {
        busy_min = std::min(busy_min, static_cast<double>(it->second));
      }
    }
    if (c.rdma) {
      rdma.data_messages += c.transport.data_messages;
      rdma.control_messages += c.transport.control_messages;
      rdma.credit_stalls += c.transport.credit_stalls;
      rdma_setup_ps += static_cast<double>(c.setup_done);
      rdma_cells += 1;
    }
  }
  double rss_build = 0, rss_run = 0, api_rss_per_request = 0;
  for (const CellRun& c : fresh.cells) {
    rss_build = std::max(rss_build, c.rss_build_bytes);
    rss_run = std::max(rss_run, c.rss_run_bytes);
    if (c.api) {
      api_rss_per_request = std::max(
          api_rss_per_request,
          ratio(c.rss_run_bytes,
                static_cast<double>(counter(c.metrics, "kv.requests"))));
    }
  }
  const auto hist_p = [&](const char* name, double p) {
    const auto it = merged.histograms.find(name);
    return it == merged.histograms.end() ? 0.0 : it->second.percentile(p);
  };
  const auto gauge = [&](const char* name) {
    const auto it = merged.gauges.find(name);
    return it == merged.gauges.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto count = [&](const char* name) {
    return static_cast<double>(counter(merged, name));
  };
  double core_drops = 0;
  for (const auto& [name, v] : merged.counters) {
    if (name.rfind("rvma.drops_", 0) == 0) core_drops += static_cast<double>(v);
  }
  const double cells = static_cast<double>(run.cells.size());
  const double packets = count("fabric.packets_delivered");
  double cell_total = 0;
  for (const double s : cell_s) cell_total += s;

  std::vector<Metric> m = {
      {"cluster.construct_s", "s", construct},
      {"cluster.builds", "count", cells},
      {"motifs.build_s", "s", build},
      {"motifs.ops", "count", static_cast<double>(ops)},
      {"motifs.program_mib", "MiB", program / kMiB},
      {"motifs.rss_build_mib", "MiB", rss_build / kMiB},
      {"motifs.rss_run_mib", "MiB", rss_run / kMiB},
      {"sim.run_s", "s", run_s},
      {"sim.events", "count", static_cast<double>(events)},
      {"sim.ns_per_event", "ns", ratio(run_s * 1e9, static_cast<double>(events))},
      {"sim.shards", "count", shards / cells},
      {"sim.windows", "count", static_cast<double>(windows)},
      {"sim.busy_pct_min", "%", busy_min},
      {"sim.barrier_wait_s", "s", barrier_ns * 1e-9},
      {"net.packets", "count", packets},
      {"net.hops", "count", count("fabric.hops")},
      {"net.wire_mib", "MiB", count("fabric.wire_bytes_delivered") / kMiB},
      {"net.ns_per_packet", "ns", ratio(run_s * 1e9, packets)},
      {"net.pkt_latency_ns_p50", "ns", hist_p("fabric.pkt_latency_ns", 50)},
      {"net.pkt_latency_ns_p99", "ns", hist_p("fabric.pkt_latency_ns", 99)},
      {"net.backlog_ns_max", "ns", gauge("fabric.port_backlog_ns")},
      {"nic.messages", "count", count("nic.messages_sent")},
      {"nic.doorbells", "count", count("nic.doorbells")},
      {"nic.doorbell_merge_ratio", "ratio",
       ratio(count("nic.messages_sent"), count("nic.doorbells"))},
      {"nic.tx_stalls", "count", count("nic.tx_queue_stalls")},
      {"nic.drops", "count", count("nic.drops_no_handler")},
      {"core.completions", "count", count("rvma.completions")},
      {"core.drops", "count", core_drops},
      {"core.nacks", "count", count("rvma.nacks_sent")},
      {"core.spill_packets", "count", count("rvma.host_counter_packets")},
      {"core.completion_latency_ns_p99", "ns",
       hist_p("rvma.completion_latency_ns", 99)},
      {"core.ooo_degree_p99", "count", hist_p("rvma.mailbox_ooo_degree", 99)},
      {"rdma.data_messages", "count", static_cast<double>(rdma.data_messages)},
      {"rdma.control_messages", "count",
       static_cast<double>(rdma.control_messages)},
      {"rdma.control_per_data", "ratio",
       ratio(static_cast<double>(rdma.control_messages),
             static_cast<double>(rdma.data_messages))},
      {"rdma.credit_stalls", "count", static_cast<double>(rdma.credit_stalls)},
      {"rdma.setup_us", "us", ratio(rdma_setup_ps * 1e-6, rdma_cells)},
      {"api.run_s", "s", api_run},
      {"api.requests", "count", count("kv.requests")},
      {"api.replies", "count", count("kv.replies")},
      {"api.rss_per_request_b", "B", api_rss_per_request},
      {"exec.cells", "count", cells},
      {"exec.cell_s_p50", "s", percentile(cell_s, 50)},
      {"exec.cell_s_p90", "s", percentile(cell_s, 90)},
      {"exec.efficiency", "ratio",
       ratio(cell_total, wl.jobs * run.exec_wall_s)},
  };
  for (const char* layer :
       {"bench", "cluster", "motifs", "core", "rdma", "sim", "api", "obs",
        "exec"}) {
    const auto it = attr.self_s.find(layer);
    m.push_back({std::string(layer) + ".self_s", "s",
                 it == attr.self_s.end() ? 0.0 : it->second});
  }
  m.push_back({"trace.uncovered_s", "s", attr.uncovered_s});
  m.push_back({"trace.wall_s", "s", attr.wall_s});
  return m;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  Workload wl;
  if (!make_workload(args.workload, args.seed, &wl)) {
    std::fprintf(stderr, "unknown workload \"%s\"; known:", args.workload.c_str());
    for (const std::string& n : workload_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  // Repeat while another round as long as the last would still end within
  // the measuring time (always at least once): a run lasts about
  // --seconds, or one round when a round takes longer. Traced runs
  // alternate a traced and an untraced
  // repetition, so the tracing overhead compares repetitions made under
  // the same conditions.
  std::vector<double> setup;
  const double deadline = now_s() + args.seconds;
  std::vector<WorkloadRun> plain;
  std::vector<WorkloadRun> traced;
  std::vector<SpanLog::Attribution> attrs;
  std::unique_ptr<SpanLog> last_log;
  double peak_rss = 0;
  double round_s = 0;
  do {
    const double round_start = now_s();
    if (args.trace) {
      auto log = std::make_unique<SpanLog>();
      traced.push_back(run_workload(wl, log.get()));
      attrs.push_back(log->attribute());
      last_log = std::move(log);
    }
    plain.push_back(run_workload(wl, nullptr));
    const WorkloadRun& r = plain.back();
    std::printf("repetition %zu: wall %.4f s cpu %.4f s\n", plain.size(),
                r.wall_s, r.cpu_s);
    // Peak RSS of one repetition in a fresh process: later repetitions
    // raise the high-water mark through allocator fragmentation alone.
    if (plain.size() == 1) peak_rss = static_cast<double>(rvma::peak_rss_bytes());
    if (!args.trace) {
      const double until = now_s() + kSetupShare * r.wall_s;
      do {
        setup.push_back(setup_workload(wl));
      } while (now_s() < until);
    }
    round_s = now_s() - round_start;
  } while (now_s() + round_s < deadline);
  while (!args.trace && setup.size() < kSetupPasses) {
    setup.push_back(setup_workload(wl));
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::uint64_t digest = plain[0].digest;
  for (const auto* runs : {&plain, &traced}) {
    for (const WorkloadRun& r : *runs) {
      attempted += r.cells.size();
      failed += r.failed;
      if (r.digest != digest) {
        std::fprintf(stderr, "sim_digest differs between repetitions\n");
        correct = false;
      }
      for (std::size_t i = 0; i < r.cells.size(); ++i) {
        if (!r.cells[i].failure.empty()) {
          std::fprintf(stderr, "cell %s failed: %s\n",
                       wl.cells[i].label.c_str(), r.cells[i].failure.c_str());
        }
      }
    }
  }
  if (failed != 0) correct = false;
  std::printf("workload %s seed %" PRIu64 ": %zu repetitions of %zu cells\n",
              wl.name.c_str(), args.seed, plain.size() + traced.size(),
              wl.cells.size());
  std::printf("sim_digest %016" PRIx64 "\n", digest);
  // The self-check re-runs a whole cell; it rides on traced runs only, so
  // the many untraced runs stay short.
  if (args.trace) {
    std::string why;
    if (self_check(wl, plain[0], &why)) {
      std::printf("self_check ok: %s equals run_scenario\n",
                  wl.cells[wl.check_cell].label.c_str());
    } else {
      std::fprintf(stderr, "self_check failed: %s\n", why.c_str());
      correct = false;
    }
  }

  // Fidelity: mean gap over the paper values this workload can be held
  // to; a workload with no RDMA half has no speed-up and reads 100.
  double gap_pct = 100.0;
  if (!wl.refs.empty()) {
    gap_pct = 0;
    for (const RefGap& g : paper_gaps(wl, plain[0])) {
      std::printf("paper %-32s sim %.4fx paper %.2fx gap %.2f%%\n",
                  g.label.c_str(), g.sim, g.paper, g.gap_pct);
      gap_pct += g.gap_pct / static_cast<double>(wl.refs.size());
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    // The first repetition also faults in the heap the later ones reuse;
    // it is left out of the time medians when at least two others remain.
    std::vector<double> wall, cpu;
    for (std::size_t i = plain.size() >= 3 ? 1 : 0; i < plain.size(); ++i) {
      wall.push_back(plain[i].wall_s);
      cpu.push_back(plain[i].cpu_s);
    }
    metrics = {
        {"wall_s", "s", median(wall)},
        {"cpu_s", "s", median(cpu)},
        {"setup_s", "s", median(setup)},
        {"peak_rss_mib", "MiB", peak_rss / kMiB},
        {"paper_gap_pct", "%", gap_pct},
    };
  } else {
    // Per-layer values: the median over traced repetitions of each metric.
    std::vector<std::vector<Metric>> per_rep;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      per_rep.push_back(layer_metrics(wl, traced[i], traced[0], attrs[i]));
      const SpanLog::Attribution& a = attrs[i];
      double covered = a.uncovered_s;
      for (const auto& [layer, s] : a.self_s) covered += s;
      if (std::fabs(covered - a.wall_s) > 1e-9 * std::max(1.0, a.wall_s)) {
        std::fprintf(stderr, "self times %.9f s do not add up to wall %.9f s\n",
                     covered, a.wall_s);
        correct = false;
      }
    }
    for (std::size_t k = 0; k < per_rep[0].size(); ++k) {
      std::vector<double> values;
      for (const auto& rep : per_rep) values.push_back(rep[k].value);
      metrics.push_back({per_rep[0][k].name, per_rep[0][k].unit, median(values)});
    }
    std::vector<double> tw, pw;
    for (const WorkloadRun& r : traced) tw.push_back(r.wall_s);
    for (const WorkloadRun& r : plain) pw.push_back(r.wall_s);
    metrics.push_back({"obs.trace_overhead_pct", "%",
                       100.0 * (median(tw) / median(pw) - 1.0)});
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/" + wl.name + "-seed" +
                               std::to_string(args.seed) + ".json";
      if (last_log->write_chrome_trace(path)) {
        std::printf("chrome trace written to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        correct = false;
      }
    }
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      correct = false;
    }
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> [--seed <n>] "
                 "[--seconds <s>] [--trace <0|1>] [--trace-dir <dir>]\n");
    return 2;
  }
  return perfbench::run(args);
}
