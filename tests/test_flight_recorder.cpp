// Flight-recorder contracts: ring wraparound, binary round-trip, the
// zero-perturbation guarantee (recorder on vs off produces identical
// results and metrics, serial and sharded), the Perfetto export golden,
// the PDES runtime profile, and the shard-safe armed tracer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/trace.hpp"
#include "motifs/halo3d.hpp"
#include "motifs/runner.hpp"
#include "motifs/rvma_transport.hpp"
#include "obs/flight_analysis.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_io.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace rvma {
namespace {

using motifs::MotifRunner;
using motifs::RvmaTransport;
using scenario::ScenarioResult;
using scenario::ScenarioSpec;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ------------------------------------------------------------- ring core

TEST(FlightRecorder, StartsEmpty) {
  obs::FlightRecorder rec(16);
  EXPECT_EQ(rec.capacity(), 16u);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(FlightRecorder, RingWrapsOverwritingOldest) {
  obs::FlightRecorder rec(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    rec.record(/*t=*/i, obs::SpanKind::kMsgPost, /*key=*/i, /*node=*/1,
               /*aux=*/static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.dropped(), 12u);
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 8u);
  // Oldest-first chronological order, holding the last 8 records.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].t, 12 + i);
    EXPECT_EQ(records[i].key, 12 + i);
  }
}

TEST(FlightRecorder, ClearResetsEverything) {
  obs::FlightRecorder rec(4);
  for (int i = 0; i < 9; ++i) {
    rec.record(i, obs::SpanKind::kPktDeliver, 1, 0, 0);
  }
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  rec.record(42, obs::SpanKind::kMsgPost, 7, 3, 64);
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].t, 42u);
}

// ------------------------------------------------------- binary file I/O

TEST(FlightRecorder, BinaryRoundTrip) {
  obs::FlightRecorder a(16);
  obs::FlightRecorder b(4);
  a.record(10, obs::SpanKind::kMsgPost, 0x100000001ULL, 0, 4096);
  a.record(20, obs::SpanKind::kTxInject, 0x100000001ULL, 0, 0);
  for (int i = 0; i < 6; ++i) {  // wraps: only the last 4 survive
    b.record(30 + i, obs::SpanKind::kPktDeliver, 0x100000001ULL, 1, i);
  }

  const std::string path = ::testing::TempDir() + "flight_roundtrip.rvfr";
  std::string error;
  ASSERT_TRUE(obs::write_flight_file(path, {&a, &b}, &error)) << error;

  obs::FlightDump dump;
  ASSERT_TRUE(obs::read_flight_file(path, &dump, &error)) << error;
  ASSERT_EQ(dump.shards.size(), 2u);
  EXPECT_EQ(dump.shards[0].shard, 0u);
  EXPECT_EQ(dump.shards[1].shard, 1u);
  EXPECT_EQ(dump.shards[0].dropped, 0u);
  EXPECT_EQ(dump.shards[1].dropped, 2u);
  EXPECT_EQ(dump.total_records(), 6u);

  const auto a_records = a.snapshot();
  ASSERT_EQ(dump.shards[0].records.size(), a_records.size());
  for (std::size_t i = 0; i < a_records.size(); ++i) {
    EXPECT_EQ(dump.shards[0].records[i].t, a_records[i].t);
    EXPECT_EQ(dump.shards[0].records[i].key, a_records[i].key);
    EXPECT_EQ(dump.shards[0].records[i].aux, a_records[i].aux);
    EXPECT_EQ(dump.shards[0].records[i].kind, a_records[i].kind);
    EXPECT_EQ(dump.shards[0].records[i].node, a_records[i].node);
  }
  // merged(): global (t, shard, index) order across shard sections.
  const auto merged = dump.merged();
  ASSERT_EQ(merged.size(), 6u);
  EXPECT_TRUE(std::is_sorted(
      merged.begin(), merged.end(),
      [](const obs::SpanRecord& x, const obs::SpanRecord& y) {
        return x.t < y.t;
      }));
  std::remove(path.c_str());
}

TEST(FlightRecorder, ReadRejectsBadMagic) {
  const std::string path = ::testing::TempDir() + "flight_bad.rvfr";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTAFLIGHTRECORDERFILE";
  }
  obs::FlightDump dump;
  std::string error;
  EXPECT_FALSE(obs::read_flight_file(path, &dump, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

// --------------------------------------- zero-perturbation (on == off)

ScenarioSpec mini_spec() {
  ScenarioSpec spec;
  spec.topology = "torus3d";
  spec.routing = "static";
  spec.nodes = 8;
  spec.motif = "halo3d";
  spec.motif_params = {{"iterations", "2"}, {"nx", "8"}, {"ny", "8"},
                       {"nz", "8"}};
  spec.seed = 2021;
  return spec;
}

TEST(FlightRecorderScenario, RecorderOnVsOffIsBitIdentical) {
  const std::string dump_path = ::testing::TempDir() + "flight_onoff.rvfr";
  std::string error;

  ScenarioResult off;
  ASSERT_TRUE(run_scenario(mini_spec(), &off, &error)) << error;

  ScenarioSpec on_spec = mini_spec();
  on_spec.flight_recorder_path = dump_path;
  ScenarioResult on;
  ASSERT_TRUE(run_scenario(on_spec, &on, &error)) << error;

  // The recorder is purely passive: every simulated observable — makespan,
  // packet counts, engine events, the full metrics snapshot — must match
  // the disarmed run exactly.
  EXPECT_EQ(off, on);

  obs::FlightDump dump;
  ASSERT_TRUE(obs::read_flight_file(dump_path, &dump, &error)) << error;
  EXPECT_GT(dump.total_records(), 0u);
  std::remove(dump_path.c_str());
}

TEST(FlightRecorderScenario, RecorderOnVsOffIsBitIdenticalSharded) {
  const std::string dump_path = ::testing::TempDir() + "flight_onoff_sh.rvfr";
  std::string error;

  ScenarioSpec off_spec = mini_spec();
  off_spec.par_shards = 2;
  ScenarioResult off;
  ASSERT_TRUE(run_scenario(off_spec, &off, &error)) << error;

  ScenarioSpec on_spec = off_spec;
  on_spec.flight_recorder_path = dump_path;
  ScenarioResult on;
  ASSERT_TRUE(run_scenario(on_spec, &on, &error)) << error;
  EXPECT_EQ(off, on);

  // The dump carries one section per shard and replays byte-identically.
  obs::FlightDump dump;
  ASSERT_TRUE(obs::read_flight_file(dump_path, &dump, &error)) << error;
  EXPECT_EQ(dump.shards.size(), 2u);
  const std::string first_bytes = read_file(dump_path);
  ASSERT_TRUE(run_scenario(on_spec, &on, &error)) << error;
  EXPECT_EQ(read_file(dump_path), first_bytes);
  std::remove(dump_path.c_str());
}

// ------------------------------------------------ message-path analysis

TEST(FlightAnalysis, ReconstructsCompletePathsFromARun) {
  const std::string dump_path = ::testing::TempDir() + "flight_paths.rvfr";
  ScenarioSpec spec = mini_spec();
  spec.flight_recorder_path = dump_path;
  ScenarioResult result;
  std::string error;
  ASSERT_TRUE(run_scenario(spec, &result, &error)) << error;

  obs::FlightDump dump;
  ASSERT_TRUE(obs::read_flight_file(dump_path, &dump, &error)) << error;
  const auto paths = obs::build_message_paths(dump);
  ASSERT_FALSE(paths.empty());
  std::size_t complete = 0;
  for (const auto& p : paths) {
    if (!p.complete()) continue;
    ++complete;
    // Lifecycle instants are causally ordered within a message.
    EXPECT_LE(p.post_t, p.first_inject_t);
    EXPECT_LE(p.first_inject_t, p.last_deliver_t);
    EXPECT_LE(p.last_deliver_t, p.last_rx_t);
    EXPECT_LE(p.last_rx_t, p.match_t);
    EXPECT_GT(p.packets, 0u);
    EXPECT_EQ(p.total_ps(),
              p.host_ps() + p.wire_ps() + p.rx_ps() + p.match_ps());
  }
  // A capacity-default ring on this mini run holds every span: every
  // message reconstructs completely (messages posted at t=0 included).
  EXPECT_EQ(complete, paths.size());

  const auto report = obs::build_critpath(paths);
  EXPECT_EQ(report.messages, complete);
  EXPECT_EQ(report.partial, 0u);
  ASSERT_EQ(report.segments.size(), 5u);
  EXPECT_EQ(report.segments[4].name, "total");
  EXPECT_GT(report.segments[4].p50, 0u);
  EXPECT_FALSE(obs::format_critpath(report).empty());
  std::remove(dump_path.c_str());
}

TEST(FlightAnalysis, PerfettoJsonMatchesGolden) {
  // 4-node star run pinned byte-for-byte: the timeline export is part of
  // the observable output surface, same discipline as the fig8 table
  // golden. Regenerate with:
  //   rvma_run <spec> --flight-recorder=d.rvfr &&
  //   rvma_trace timeline d.rvfr --out=tests/golden/flight_timeline.golden.json
  // using the exact spec below.
  const std::string dump_path = ::testing::TempDir() + "flight_golden.rvfr";
  ScenarioSpec spec;
  spec.topology = "star";
  spec.routing = "static";
  spec.nodes = 4;
  spec.motif = "halo3d";
  spec.motif_params = {{"iterations", "1"}, {"nx", "4"}, {"ny", "4"},
                       {"nz", "4"}};
  spec.seed = 2021;
  spec.flight_recorder_path = dump_path;
  ScenarioResult result;
  std::string error;
  ASSERT_TRUE(run_scenario(spec, &result, &error)) << error;

  obs::FlightDump dump;
  ASSERT_TRUE(obs::read_flight_file(dump_path, &dump, &error)) << error;
  const std::string json = obs::perfetto_json(dump);

  const std::string golden =
      read_file(std::string(GOLDEN_DIR) + "/flight_timeline.golden.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(json, golden);
  std::remove(dump_path.c_str());
}

// ------------------------------------------------- PDES runtime profile

TEST(PdesProfile, SerialClusterReportsOneFullyUtilizedShard) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kTorus3D;
  cfg.nodes_hint = 8;
  cluster::Cluster cluster(cfg, nic::NicParams{});
  const obs::MetricsSnapshot prof = cluster.collect_pdes_profile();
  EXPECT_EQ(prof.counters.at("pdes.shards"), 1);
  EXPECT_EQ(prof.gauges.at("pdes.shard0.utilization_pct"), 100);
}

TEST(PdesProfile, ShardedRunExposesPerShardInstruments) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kTorus3D;
  cfg.nodes_hint = 8;
  cluster::Cluster cluster(cfg, nic::NicParams{}, /*par_shards=*/2);
  ASSERT_TRUE(cluster.sharded());
  cluster.enable_pdes_profiling();

  motifs::Halo3DConfig halo;
  halo.px = halo.py = 2;
  halo.pz = 2;
  halo.nx = halo.ny = halo.nz = 8;
  halo.iterations = 2;
  RvmaTransport transport(cluster, core::RvmaParams{});
  MotifRunner(cluster, transport, motifs::build_halo3d(halo)).run();

  const obs::MetricsSnapshot prof = cluster.collect_pdes_profile();
  EXPECT_EQ(prof.counters.at("pdes.shards"), 2);
  EXPECT_GT(prof.counters.at("pdes.windows"), 0);
  // Lookahead spread gauges over the path-closed matrix: a 2-shard torus
  // slab has symmetric finite pairs, so min == max == mean > 0 and no
  // unreachable pair.
  EXPECT_GT(prof.gauges.at("pdes.lookahead_min_ps"), 0);
  EXPECT_GE(prof.gauges.at("pdes.lookahead_max_ps"),
            prof.gauges.at("pdes.lookahead_min_ps"));
  EXPECT_GE(prof.gauges.at("pdes.lookahead_mean_ps"),
            prof.gauges.at("pdes.lookahead_min_ps"));
  EXPECT_EQ(prof.gauges.at("pdes.lookahead_unreachable_pairs"), 0);
  for (const char* key : {"pdes.shard0.busy_wall_ns",
                          "pdes.shard0.barrier_wait_wall_ns",
                          "pdes.shard0.drain_wall_ns",
                          "pdes.shard0.completion_wall_ns",
                          "pdes.shard1.busy_wall_ns",
                          "pdes.shard1.barrier_wait_wall_ns",
                          "pdes.shard1.drain_wall_ns",
                          "pdes.shard1.completion_wall_ns"}) {
    EXPECT_TRUE(prof.counters.contains(key)) << key;
  }
  for (const char* key :
       {"pdes.shard0.utilization_pct", "pdes.shard1.utilization_pct"}) {
    ASSERT_TRUE(prof.gauges.contains(key)) << key;
    EXPECT_GE(prof.gauges.at(key), 0);
    EXPECT_LE(prof.gauges.at(key), 100);
  }
  // Deterministic parts of the profile: window count and stride histogram
  // are pure functions of the event timeline.
  EXPECT_TRUE(prof.histograms.contains("pdes.window_stride_ps"));
  EXPECT_GT(prof.histograms.at("pdes.window_stride_ps").count, 0u);
  EXPECT_TRUE(prof.histograms.contains("pdes.shard0.drain_depth"));
}

// ----------------------------------------------- shard-safe armed tracer

std::vector<std::string> sorted_lines(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(ShardTracer, ShardedRunTracesWithoutClampingToSerial) {
  const std::string dir = ::testing::TempDir();
  const std::string serial_path = dir + "trace_serial.jsonl";
  const std::string sharded_path = dir + "trace_sharded.jsonl";
  const std::string sharded2_path = dir + "trace_sharded2.jsonl";
  const std::string profile_path = dir + "trace_sharded_pdes.json";
  std::string error;

  auto traced_run = [&](int shards, const std::string& path,
                        const std::string& profile, ScenarioResult* out) {
    ScenarioSpec spec = mini_spec();
    spec.par_shards = shards;
    spec.pdes_profile_path = profile;
    Tracer sink;
    ASSERT_TRUE(sink.open(path));
    ASSERT_TRUE(run_scenario(spec, out, &error, &sink, /*eng_id=*/3)) << error;
    EXPECT_GT(out->trace_events, 0u);
    sink.close();
  };

  ScenarioResult serial, sharded, sharded2;
  traced_run(1, serial_path, "", &serial);
  traced_run(2, sharded_path, profile_path, &sharded);
  traced_run(2, sharded2_path, "", &sharded2);

  // The armed tracer no longer forces serial execution: the sharded run's
  // PDES profile shows two shards stepping through real windows, while
  // every simulated observable stayed identical.
  obs::MetricsDoc profile;
  ASSERT_TRUE(obs::read_metrics_file(profile_path, &profile, &error)) << error;
  EXPECT_EQ(profile.totals.counters.at("pdes.shards"), 2u);
  EXPECT_GT(profile.totals.counters.at("pdes.windows"), 0u);
  for (const char* key :
       {"pdes.shard0.utilization_pct", "pdes.shard1.utilization_pct"}) {
    EXPECT_TRUE(profile.totals.gauges.contains(key)) << key;
  }
  EXPECT_EQ(serial.makespan, sharded.makespan);
  EXPECT_EQ(serial.packets_delivered, sharded.packets_delivered);
  // engine.* counters may include the windowed loop's bookkeeping events
  // (DESIGN.md §12); everything the simulation itself recorded must match
  // (test_pdes's Observed contract).
  auto sim_metrics = [](const ScenarioResult& r) {
    obs::MetricsSnapshot m = r.metrics;
    std::erase_if(m.counters,
                  [](const auto& kv) { return kv.first.starts_with("engine."); });
    std::erase_if(m.gauges,
                  [](const auto& kv) { return kv.first.starts_with("engine."); });
    return m;
  };
  EXPECT_EQ(sim_metrics(serial), sim_metrics(sharded));

  // Same trace events in both modes (the merge only fixes the order), and
  // the sharded merge is byte-deterministic across reruns.
  EXPECT_EQ(serial.trace_events, sharded.trace_events);
  EXPECT_EQ(sorted_lines(read_file(serial_path)),
            sorted_lines(read_file(sharded_path)));
  EXPECT_EQ(read_file(sharded_path), read_file(sharded2_path));

  // Merged output is time-sorted: "t":<ps> never decreases line to line.
  std::istringstream in(read_file(sharded_path));
  Time prev = 0;
  for (std::string line; std::getline(in, line);) {
    Time t = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "{\"t\":%llu",
                          reinterpret_cast<unsigned long long*>(&t)),
              1)
        << line;
    EXPECT_GE(t, prev) << line;
    prev = t;
  }

  for (const std::string& p :
       {serial_path, sharded_path, sharded2_path, profile_path}) {
    std::remove(p.c_str());
  }
}

TEST(ShardTracer, BufferModeCollectsJsonl) {
  Tracer tracer;
  tracer.open_buffer();
  EXPECT_TRUE(tracer.enabled());
  tracer.record(100, "evt", 2, {{"a", 1}});
  tracer.record(200, "evt", 2, {});
  EXPECT_EQ(tracer.events_written(), 2u);
  EXPECT_EQ(tracer.buffer(),
            "{\"t\":100,\"ev\":\"evt\",\"eng\":2,\"a\":1}\n"
            "{\"t\":200,\"ev\":\"evt\",\"eng\":2}\n");
  tracer.close();
  EXPECT_FALSE(tracer.enabled());
}

}  // namespace
}  // namespace rvma
