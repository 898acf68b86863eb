// Flight-recorder contracts: ring wraparound, binary round-trip, the
// zero-perturbation guarantee (recorder on vs off produces identical
// results and metrics, serial and sharded), the Perfetto export golden,
// the PDES runtime profile, drop spans for refused puts, and the JSONL
// export's independence from the shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/endpoint.hpp"
#include "motifs/halo3d.hpp"
#include "motifs/runner.hpp"
#include "motifs/rvma_transport.hpp"
#include "obs/flight_analysis.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
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
  // A valid 40-byte header whose one shard section claims 2^60 records:
  // the reader must reject it before allocating for them.
  std::string huge_count("RVFR1\0\0\0", 8);
  auto append = [&huge_count](auto v) {
    huge_count.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  append(std::uint32_t{1});                // version
  append(std::uint32_t{1});                // shard count
  append(std::uint32_t{0});                // shard id
  append(std::uint32_t{0});                // reserved
  append(std::uint64_t{0});                // dropped
  append(std::uint64_t{1} << 60);          // record count
  ASSERT_EQ(huge_count.size(), 40u);
  for (const std::string& bytes :
       {std::string("NOTAFLIGHTRECORDERFILE"), huge_count}) {
    {
      std::ofstream out(path, std::ios::binary);
      out << bytes;
    }
    obs::FlightDump dump;
    std::string error;
    EXPECT_FALSE(obs::read_flight_file(path, &dump, &error));
    EXPECT_NE(error.find("bad or truncated dump"), std::string::npos) << error;
    EXPECT_TRUE(dump.shards.empty());
  }
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
  EXPECT_EQ(prof.counters.at("pdes.critical_busy_wall_ns"), 0);
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
  // partition has symmetric finite pairs, so min == max == mean > 0 and
  // no unreachable pair.
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
  // The busiest shard's busy time summed over windows: at least any one
  // shard's busy total (per window, the maximum bounds each shard) and at
  // most all shards' totals together.
  const std::uint64_t busy0 = prof.counters.at("pdes.shard0.busy_wall_ns");
  const std::uint64_t busy1 = prof.counters.at("pdes.shard1.busy_wall_ns");
  ASSERT_TRUE(prof.counters.contains("pdes.critical_busy_wall_ns"));
  const std::uint64_t critical = prof.counters.at("pdes.critical_busy_wall_ns");
  EXPECT_GT(critical, 0u);
  EXPECT_GE(critical, std::max(busy0, busy1));
  EXPECT_LE(critical, busy0 + busy1);
  // Deterministic parts of the profile: window count and stride histogram
  // are pure functions of the event timeline.
  EXPECT_TRUE(prof.histograms.contains("pdes.window_stride_ps"));
  EXPECT_GT(prof.histograms.at("pdes.window_stride_ps").count, 0u);
  EXPECT_TRUE(prof.histograms.contains("pdes.shard0.drain_depth"));
}

// ------------------------------------------------------------ drop spans

net::NetworkConfig star2() {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kStar;
  cfg.nodes_hint = 2;
  return cfg;
}

std::uint64_t drop_counter_total(const obs::MetricsSnapshot& m) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : m.counters) {
    if (name.starts_with("rvma.drops_")) total += value;
  }
  return total;
}

TEST(DropSpans, EachRefusedPutRecordsOneDropWithItsReason) {
  for (const bool nacks : {true, false}) {
    SCOPED_TRACE(nacks ? "NACKs enabled" : "NACKs disabled");
    core::RvmaParams params;
    params.nacks_enabled = nacks;
    // No on-NIC counters, and a long host-counter round trip: a put that
    // passes the LUT check can find its buffer retired when it lands.
    params.nic_counters = 0;
    params.host_counter_penalty = 10 * kMicrosecond;
    cluster::Cluster cluster(star2(), nic::NicParams{});
    cluster.arm_flight_recorder(1024);
    core::RvmaEndpoint sender(cluster.nic(0), params);
    core::RvmaEndpoint receiver(cluster.nic(1), params);

    receiver.init_window(0xC1, 64, core::EpochType::kBytes);
    ASSERT_EQ(receiver.close_window(0xC1), Status::kOk);
    receiver.init_window(0xE0, 64, core::EpochType::kBytes);
    receiver.init_window(0xB0, 64, core::EpochType::kBytes);
    ASSERT_EQ(receiver.post_buffer_timing_only(0xB0, 64), Status::kOk);

    // Node 0's message ids are (0 << 40) | 1, 2, ... in send order.
    sender.put(1, 0xDEAD, 0, nullptr, 64);  // 1: no such mailbox
    sender.put(1, 0xC1, 0, nullptr, 64);    // 2: closed window
    sender.put(1, 0xE0, 0, nullptr, 64);    // 3: no posted buffer
    sender.put(1, 0xB0, 0, nullptr, 64);    // 4: fills 0xB0's only buffer
    sender.put(1, 0xB0, 0, nullptr, 64);    // 5: host-counter-penalty drop
    cluster.engine().run();

    const std::pair<std::uint64_t, Status> expected[] = {
        {1, Status::kNoMailbox},
        {2, Status::kClosed},
        {3, Status::kNoBuffer},
        {5, Status::kNoBuffer},
    };
    std::vector<obs::SpanRecord> drops;
    for (const obs::SpanRecord& r :
         cluster.flight_recorder_for_shard(0)->snapshot()) {
      if (r.kind == static_cast<std::uint32_t>(obs::SpanKind::kDrop)) {
        drops.push_back(r);
      }
    }
    ASSERT_EQ(drops.size(), std::size(expected));
    for (std::size_t i = 0; i < drops.size(); ++i) {
      EXPECT_EQ(drops[i].key, expected[i].first) << i;
      EXPECT_EQ(drops[i].aux, static_cast<std::int64_t>(expected[i].second))
          << i;
      EXPECT_EQ(drops[i].node, 1) << i;
    }
    EXPECT_EQ(receiver.completions(0xB0), 1u);
    // One drop span per drop counted, NACKed or not; the penalty-path
    // drop is the one that sends no NACK.
    EXPECT_EQ(drop_counter_total(cluster.collect_metrics()), drops.size());
    EXPECT_EQ(cluster.collect_metrics().counters.at("rvma.nacks_sent"),
              nacks ? 3u : 0u);

    const std::string dump_path = ::testing::TempDir() + "flight_drops.rvfr";
    std::string error;
    ASSERT_TRUE(cluster.write_flight_dump(dump_path, &error)) << error;
    obs::FlightDump dump;
    ASSERT_TRUE(obs::read_flight_file(dump_path, &dump, &error)) << error;
    std::remove(dump_path.c_str());
    const std::string jsonl = obs::flight_jsonl(dump);
    for (const auto& [key, reason] : expected) {
      const std::string line_tail =
          "\"ev\":\"drop\",\"node\":1,\"key\":" + std::to_string(key) +
          ",\"aux\":" + std::to_string(static_cast<int>(reason)) +
          ",\"reason\":\"" + std::string(to_string(reason)) + "\"}\n";
      EXPECT_NE(jsonl.find(line_tail), std::string::npos) << line_tail;
    }
  }
}

// ------------------------------------------------------- JSONL export

/// Ring capacity per shard for the export test: the 512-rank halo
/// records at most 86,016 spans (rdma, serial), and no ring may wrap.
constexpr std::size_t kHaloCapacity = std::size_t{1} << 17;

/// `rvma_trace jsonl` of test_pdes' 512-rank torus halo (8^3 cells and 4
/// variables a rank, 2 iterations) over `transport` at `shards`.
std::string halo512_jsonl(const std::string& transport, int shards) {
  ScenarioSpec spec;
  spec.topology = "torus3d";
  spec.routing = "static";
  spec.nodes = 512;
  spec.transport = transport;
  spec.motif = "halo3d";
  spec.motif_params = {{"nx", "8"},   {"ny", "8"},         {"nz", "8"},
                       {"vars", "4"}, {"iterations", "2"}};
  spec.seed = 7;
  spec.par_shards = shards;
  spec.flight_recorder_path = ::testing::TempDir() + "flight_halo512.rvfr";
  spec.flight_recorder_capacity = kHaloCapacity;
  ScenarioResult result;
  std::string error;
  EXPECT_TRUE(run_scenario(spec, &result, &error)) << error;
  obs::FlightDump dump;
  EXPECT_TRUE(obs::read_flight_file(spec.flight_recorder_path, &dump, &error))
      << error;
  std::remove(spec.flight_recorder_path.c_str());
  EXPECT_EQ(dump.shards.size(), static_cast<std::size_t>(shards));
  for (const obs::FlightShard& s : dump.shards) EXPECT_EQ(s.dropped, 0u);
  return obs::flight_jsonl(dump);
}

/// The first line where `a` and `b` differ, for a readable failure.
std::string first_difference(const std::string& a, const std::string& b) {
  std::istringstream in_a(a), in_b(b);
  std::string la, lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(in_a, la));
    const bool more_b = static_cast<bool>(std::getline(in_b, lb));
    if (!more_a && !more_b) return "";
    if (!more_a || !more_b || la != lb) {
      return "line " + std::to_string(line) + ": \"" + la + "\" vs \"" + lb +
             "\"";
    }
  }
}

TEST(FlightJsonl, ExportIsIdenticalAtAnyShardCount) {
  for (const char* transport : {"rvma", "rdma", "sockets", "rma", "portals"}) {
    SCOPED_TRACE(transport);
    const std::string serial = halo512_jsonl(transport, 1);
    const std::string sharded = halo512_jsonl(transport, 4);
    ASSERT_FALSE(serial.empty());
    EXPECT_TRUE(sharded == serial) << first_difference(serial, sharded);
    const std::string rerun = halo512_jsonl(transport, 4);
    EXPECT_TRUE(rerun == sharded) << first_difference(sharded, rerun);

    // Every line is one JSON object; times never decrease.
    std::istringstream in(serial);
    Time prev = 0;
    std::size_t lines = 0;
    for (std::string line; std::getline(in, line); ++lines) {
      obs::JsonValue v;
      std::string error;
      ASSERT_TRUE(obs::json_parse(line, &v, &error)) << error << ": " << line;
      ASSERT_TRUE(v.is_object()) << line;
      for (const char* field : {"t", "ev", "node", "key", "aux"}) {
        ASSERT_NE(v.find(field), nullptr) << field << ": " << line;
      }
      const Time t = v.find("t")->as_u64();
      EXPECT_GE(t, prev) << line;
      prev = t;
    }
    EXPECT_GT(lines, 0u);
  }
}

}  // namespace
}  // namespace rvma
