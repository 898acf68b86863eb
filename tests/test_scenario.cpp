// The scenario layer's contracts: canonical JSON round-trips are
// byte-stable, CLI flags overlay with the right precedence, every
// registered backend materializes a minimal scenario, and the
// emit-grid -> rvma_run chain reproduces the pre-refactor figure_bench
// output byte for byte (goldens captured before the migration).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "scenario/figure_grid.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace rvma::scenario {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ScenarioSpec full_spec() {
  ScenarioSpec spec;
  spec.name = "unit \"quoted\" name";
  spec.topology = "dragonfly";
  spec.routing = "adaptive";
  spec.nodes = 72;
  spec.link_bandwidth = Bandwidth::gbps(400);
  spec.link_latency = 150 * kNanosecond;
  spec.switch_latency = 100 * kNanosecond;
  spec.xbar_factor = 2.5;
  spec.concentration = 4;
  spec.transport = "rdma";
  spec.rdma_slots = 4;
  spec.doorbell_batch = 3;
  spec.motif = "sweep3d";
  spec.motif_params = {{"nx", "48"}, {"compute_per_cell", "20ps"},
                       {"bytes", "64KiB"}};
  spec.seed = 0xDEADBEEFULL;
  spec.sample_period = 2 * kMicrosecond;
  spec.metrics_path = "out/metrics.json";
  spec.flight_recorder_path = "out/flight.rvfr";
  spec.flight_recorder_capacity = 4096;
  spec.pdes_profile_path = "out/pdes.json";
  return spec;
}

TEST(ScenarioSpecJson, RoundTripIsByteStable) {
  for (const ScenarioSpec& spec : {ScenarioSpec{}, full_spec()}) {
    const std::string first = to_json(spec);
    ScenarioSpec parsed;
    std::string error;
    ASSERT_TRUE(spec_from_json(first, &parsed, &error)) << error;
    EXPECT_EQ(parsed, spec);
    EXPECT_EQ(to_json(parsed), first);  // write(parse(write(s))) == write(s)
  }
}

TEST(ScenarioSpecJson, RemovedTopologyKeysAreIgnored) {
  // Documents written before the express fast path and the materialized
  // route table were removed carry "express" / "route_table" keys under
  // "topology": they still parse, change nothing, and are never written
  // back.
  for (const char* key : {"express", "route_table"}) {
    std::string text = to_json(full_spec());
    const std::string needle = "\"concentration\": 4";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    text.insert(pos + needle.size(),
                std::string(",\n      \"") + key + "\": \"materialized\"");
    ScenarioSpec parsed;
    std::string error;
    ASSERT_TRUE(spec_from_json(text, &parsed, &error)) << key << ": " << error;
    EXPECT_EQ(parsed, full_spec()) << key;
    EXPECT_EQ(to_json(parsed).find(key), std::string::npos);
    EXPECT_EQ(to_json(ScenarioSpec{}).find(key), std::string::npos);
  }
}

TEST(ScenarioSpecJson, GridRoundTripIsByteStable) {
  GridSpec grid;
  grid.figure = "Figure 8";
  grid.motif_label = "Halo3D";
  grid.base = full_spec();
  grid.cases = {"torus3d-static", "hyperx-DOR"};
  grid.gbps = {100, 2000};
  const std::string first = to_json(grid);
  GridSpec parsed;
  std::string error;
  ASSERT_TRUE(grid_from_json(first, &parsed, &error)) << error;
  EXPECT_EQ(parsed, grid);
  EXPECT_EQ(to_json(parsed), first);

  EXPECT_TRUE(looks_like_grid(first));
  EXPECT_FALSE(looks_like_grid(to_json(grid.base)));
}

TEST(ScenarioSpecJson, RejectsBadDocuments) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(spec_from_json("{not json", &spec, &error));
  EXPECT_FALSE(spec_from_json("{\"format\": \"something-else\"}", &spec,
                              &error));
  EXPECT_NE(error.find("format"), std::string::npos);
  // A grid document is not a scenario document.
  GridSpec grid;
  EXPECT_FALSE(spec_from_json(to_json(grid), &spec, &error));
  // Bad unit strings fail the parse, not the simulation.
  std::string text = to_json(ScenarioSpec{});
  const std::string needle = "\"link_bandwidth\": \"100Gbps\"";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"link_bandwidth\": \"100 knots\"");
  EXPECT_FALSE(spec_from_json(text, &spec, &error));
  EXPECT_NE(error.find("link_bandwidth"), std::string::npos);
  // A zero link rate or crossbar factor would serialize in no time and
  // read as a faster network; scenario and grid-base documents refuse
  // them, and so does a grid's speed list.
  const auto with = [](std::string doc, const std::string& from,
                       const std::string& to) {
    const auto at = doc.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return doc.replace(at, from.size(), to);
  };
  const std::string scenario = to_json(ScenarioSpec{});
  GridSpec bad_grid;
  bad_grid.gbps = {100, 2000};
  const std::string grid_doc = to_json(bad_grid);
  for (const auto& [from, to, field] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {needle, "\"link_bandwidth\": \"0Gbps\"", "link_bandwidth"},
           {"\"xbar_factor\": 1.5", "\"xbar_factor\": 0", "xbar_factor"},
           {"\"xbar_factor\": 1.5", "\"xbar_factor\": -1", "xbar_factor"}}) {
    EXPECT_FALSE(spec_from_json(with(scenario, from, to), &spec, &error))
        << to;
    EXPECT_NE(error.find(field), std::string::npos) << error;
    EXPECT_FALSE(grid_from_json(with(grid_doc, from, to), &grid, &error))
        << to;
    EXPECT_NE(error.find(field), std::string::npos) << error;
  }
  EXPECT_FALSE(grid_from_json(with(grid_doc, "[100, 2000]", "[100, 0]"),
                              &grid, &error));
  EXPECT_NE(error.find("gbps"), std::string::npos) << error;
}

TEST(ScenarioCliOverlay, FlagsWinOverFileValues) {
  ScenarioSpec spec = full_spec();
  const char* argv[] = {"prog",
                        "--nodes=16",
                        "--transport=rvma",
                        "--topology=star",
                        "--routing=static",
                        "--bandwidth=2Tbps",
                        "--link-latency=250ns",
                        "--motif.vars=8",
                        "--motif.nx=16",
                        "--seed=7",
                        "--sample-period=5us",
                        "--metrics=other.json"};
  Cli cli(static_cast<int>(std::size(argv)), argv);
  std::string error;
  ASSERT_TRUE(apply_cli_overlay(cli, &spec, &error)) << error;
  EXPECT_TRUE(cli.unconsumed().empty());

  EXPECT_EQ(spec.nodes, 16);
  EXPECT_EQ(spec.transport, "rvma");
  EXPECT_EQ(spec.topology, "star");
  EXPECT_EQ(spec.routing, "static");
  EXPECT_EQ(spec.link_bandwidth, Bandwidth::tbps(2));
  EXPECT_EQ(spec.link_latency, 250 * kNanosecond);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.sample_period, 5 * kMicrosecond);
  EXPECT_EQ(spec.metrics_path, "other.json");
  // --motif.<k> merges over file params: overridden, added, untouched.
  EXPECT_EQ(spec.motif_params.at("nx"), "16");
  EXPECT_EQ(spec.motif_params.at("vars"), "8");
  EXPECT_EQ(spec.motif_params.at("bytes"), "64KiB");
  // Untouched file fields survive.
  EXPECT_EQ(spec.rdma_slots, 4);
  EXPECT_EQ(spec.motif, "sweep3d");

  // Bad unit values and non-positive link rates are rejected with the
  // flag named.
  for (const auto& [flag, name] :
       std::vector<std::pair<const char*, const char*>>{
           {"--bandwidth=fast", "bandwidth"},
           {"--bandwidth=0Gbps", "bandwidth"},
           {"--xbar-factor=0", "xbar-factor"},
           {"--xbar-factor=-1", "xbar-factor"}}) {
    const char* bad[] = {"prog", flag};
    Cli bad_cli(2, bad);
    ScenarioSpec untouched = full_spec();
    EXPECT_FALSE(apply_cli_overlay(bad_cli, &untouched, &error)) << flag;
    EXPECT_NE(error.find(name), std::string::npos) << flag << ": " << error;
  }
}

TEST(ScenarioValidate, RejectsUnknownNamesAndParams) {
  ScenarioSpec spec;
  spec.nodes = 4;
  std::string error;
  ASSERT_TRUE(validate_scenario(spec, &error)) << error;

  ScenarioSpec bad_topo = spec;
  bad_topo.topology = "moebius";
  EXPECT_FALSE(validate_scenario(bad_topo, &error));
  EXPECT_NE(error.find("moebius"), std::string::npos);

  ScenarioSpec bad_transport = spec;
  bad_transport.transport = "tcp";
  EXPECT_FALSE(validate_scenario(bad_transport, &error));

  ScenarioSpec bad_motif = spec;
  bad_motif.motif = "fft";
  EXPECT_FALSE(validate_scenario(bad_motif, &error));

  // Typo'd motif params fail loudly instead of simulating defaults.
  ScenarioSpec typo = spec;
  typo.motif_params["iteraitons"] = "2";
  EXPECT_FALSE(validate_scenario(typo, &error));
  EXPECT_NE(error.find("iteraitons"), std::string::npos);

  ScenarioSpec bad_value = spec;
  bad_value.motif_params["iterations"] = "lots";
  EXPECT_FALSE(validate_scenario(bad_value, &error));
  EXPECT_NE(error.find("iterations"), std::string::npos);

  // Parameters that parse but cannot run, each rejected with a message
  // naming the motif: zero or negative extents (SIGFPE,
  // std::length_error), a broadcast root outside the machine, more ranks
  // than the machine has nodes, and 0-byte messages, which no transport
  // can complete.
  struct Case {
    int nodes;
    std::string motif;
    MotifParams params;
  };
  const std::vector<Case> crashes = {
      {2, "sweep3d", {{"pex", "0"}}},
      {8, "sweep3d", {{"kba", "0"}}},
      {2, "sweep3d", {{"pex", "-1"}}},
      {8, "broadcast", {{"root", "-1"}}},
      {8, "broadcast", {{"root", "8"}}},
      {8, "broadcast", {{"root", "9"}}},
      {8, "halo3d", {{"px", "4"}, {"py", "4"}, {"pz", "4"}}},
      {8, "incast", {{"clients", "20"}}},
      {2, "incast", {{"clients", "-1"}}},
      {2, "halo3d", {{"vars", "0"}}},
      {2, "halo3d", {{"nx", "0"}}},
      {2, "barrier", {{"bytes", "0"}}},
      {2, "broadcast", {{"bytes", "0"}}},
      {2, "incast", {{"bytes", "0"}}},
      {2, "sweep3d", {{"nx", "0"}}},
  };
  for (const Case& c : crashes) {
    ScenarioSpec bad = spec;
    bad.nodes = c.nodes;
    bad.motif = c.motif;
    bad.motif_params = c.params;
    const std::string label = c.motif + " " + c.params.begin()->first + "=" +
                              c.params.begin()->second;
    error.clear();
    EXPECT_FALSE(validate_scenario(bad, &error)) << label;
    EXPECT_EQ(error.rfind(c.motif + ":", 0), 0u) << label << ": " << error;
  }
  // The machine, not the spec's node hint, bounds the rank count: a
  // 3-node fat-tree rounds up to 16 nodes, so 9 incast clients fit.
  ScenarioSpec rounded = spec;
  rounded.topology = "fattree";
  rounded.nodes = 3;
  rounded.motif = "incast";
  rounded.motif_params = {{"clients", "9"}};
  EXPECT_TRUE(validate_scenario(rounded, &error)) << error;
}

/// Minimal motif params keeping the registry smoke fast; every registered
/// motif must have an entry here (the assert below catches new motifs).
const std::map<std::string, MotifParams>& smoke_motif_params() {
  static const std::map<std::string, MotifParams> params = {
      {"halo3d",
       {{"nx", "8"}, {"ny", "8"}, {"nz", "8"}, {"vars", "1"},
        {"iterations", "1"}}},
      {"sweep3d", {{"nx", "8"}, {"ny", "8"}, {"nz", "8"}, {"kba", "4"},
                   {"vars", "1"}}},
      {"incast", {{"messages_per_client", "2"}, {"bytes", "4KiB"}}},
      {"barrier", {{"iterations", "1"}}},
      {"allreduce", {{"bytes", "4KiB"}, {"iterations", "1"}}},
      {"broadcast", {{"bytes", "4KiB"}, {"iterations", "1"}}},
      {"remote_paging", {{"pages_per_rank", "4"}, {"faults", "4"}}},
      {"kv_store", {{"servers", "1"}, {"requests", "2"}}},
      {"alltoall", {{"bytes", "4KiB"}, {"iterations", "1"}}},
  };
  return params;
}

ScenarioSpec smoke_spec() {
  ScenarioSpec spec;
  spec.nodes = 4;
  spec.motif = "barrier";
  spec.motif_params = smoke_motif_params().at("barrier");
  return spec;
}

TEST(ScenarioRegistry, EveryTopologyMaterializes) {
  for (const auto& [name, entry] : topologies().entries()) {
    EXPECT_FALSE(entry.description.empty()) << name;
    ScenarioSpec spec = smoke_spec();
    spec.topology = name;
    ScenarioResult result;
    std::string error;
    ASSERT_TRUE(run_scenario(spec, &result, &error)) << name << ": " << error;
    EXPECT_GT(result.makespan, 0) << name;
    EXPECT_GT(result.packets_delivered, 0u) << name;
  }
}

TEST(ScenarioRegistry, EveryTransportMaterializes) {
  // Besides the smoke barrier, a one-client incast: the server waits on
  // one channel several times in a row, so each receive starts inside the
  // continuation of the one before.
  ScenarioSpec back_to_back = smoke_spec();
  back_to_back.motif = "incast";
  back_to_back.motif_params = {
      {"clients", "1"}, {"messages_per_client", "4"}, {"bytes", "4KiB"}};
  for (const auto& [name, entry] : transports().entries()) {
    EXPECT_FALSE(entry.description.empty()) << name;
    for (ScenarioSpec spec : {smoke_spec(), back_to_back}) {
      spec.transport = name;
      ScenarioResult result;
      std::string error;
      ASSERT_TRUE(run_scenario(spec, &result, &error))
          << name << " " << spec.motif << ": " << error;
      EXPECT_GT(result.makespan, 0) << name << " " << spec.motif;
    }
  }
}

TEST(ScenarioRegistry, EveryMotifMaterializes) {
  for (const auto& [name, entry] : motifs_registry().entries()) {
    EXPECT_FALSE(entry.description.empty()) << name;
    ASSERT_TRUE(smoke_motif_params().count(name))
        << "new motif \"" << name << "\": add smoke params to this test";
    ScenarioSpec spec = smoke_spec();
    spec.motif = name;
    spec.motif_params = smoke_motif_params().at(name);
    ScenarioResult result;
    std::string error;
    ASSERT_TRUE(run_scenario(spec, &result, &error)) << name << ": " << error;
    EXPECT_GT(result.makespan, 0) << name;
  }
}

TEST(ScenarioRun, SameSpecSameResult) {
  ScenarioSpec spec = smoke_spec();
  spec.motif = "halo3d";
  spec.motif_params = smoke_motif_params().at("halo3d");
  ScenarioResult a, b;
  std::string error;
  ASSERT_TRUE(run_scenario(spec, &a, &error)) << error;
  ASSERT_TRUE(run_scenario(spec, &b, &error)) << error;
  EXPECT_EQ(a, b);
}

/// The protocol counters reach an rvma_run cell's metrics and agree with
/// what the protocols fix by construction. An RDMA channel costs one
/// handshake (request and reply); each message on an adaptively routed
/// fabric costs a credit and a trailing completion send. A sockets
/// channel is one connection, opened at the client and accepted at the
/// server, and every byte sent is received.
TEST(ScenarioRun, RdmaAndSocketsCellsCarryProtocolCounters) {
  ScenarioSpec spec = smoke_spec();
  spec.nodes = 8;
  spec.routing = "adaptive";
  spec.motif = "halo3d";
  spec.motif_params = smoke_motif_params().at("halo3d");
  std::string error;
  const std::vector<motifs::Channel> channels =
      motifs::MotifRunner::derive_channels(
          motifs_registry().find(spec.motif)->build(spec, &error));
  ASSERT_FALSE(channels.empty()) << error;
  std::uint64_t messages = 0, bytes = 0;
  for (const motifs::Channel& ch : channels) {
    messages += static_cast<std::uint64_t>(ch.count);
    bytes += ch.bytes * static_cast<std::uint64_t>(ch.count);
  }

  spec.transport = "rdma";
  ScenarioResult rdma;
  ASSERT_TRUE(run_scenario(spec, &rdma, &error)) << error;
  // The same cell through the transport itself, for its TransportStats.
  net::NetworkConfig cfg;
  cfg.topology = topologies().find(spec.topology)->kind;
  cfg.routing = net::Routing::kAdaptive;
  cfg.nodes_hint = spec.nodes;
  cfg.seed = spec.seed;
  cluster::Cluster cluster(cfg, nic::NicParams{});
  const std::unique_ptr<motifs::Transport> transport =
      transports().find(spec.transport)->make(cluster, spec);
  const motifs::MotifResult direct =
      motifs::MotifRunner(cluster, *transport,
                          motifs_registry().find(spec.motif)->build(spec,
                                                                    &error))
          .run();
  ASSERT_EQ(direct.makespan, rdma.makespan);
  const auto& c = rdma.metrics.counters;
  EXPECT_EQ(c.at("rdma.control_messages"), direct.transport.control_messages);
  EXPECT_EQ(c.at("rdma.credit_stalls"), direct.transport.credit_stalls);
  EXPECT_EQ(direct.transport.data_messages, messages);
  EXPECT_EQ(c.at("rdma.control_messages"), 2 * channels.size() + 2 * messages);
  EXPECT_EQ(c.at("rdma.handshakes_served"), channels.size());
  EXPECT_EQ(c.at("rdma.regions_registered"), channels.size());
  EXPECT_EQ(c.at("rdma.sends_received"), 2 * messages);
  EXPECT_EQ(c.at("rdma.puts_received"), messages);
  EXPECT_EQ(c.at("rdma.put_acks"), messages);
  EXPECT_EQ(c.at("rdma.premature_flag_fires"), 0u);  // no polls when adaptive
  EXPECT_LE(c.at("rdma.credit_stalls"), messages);
  EXPECT_EQ(c.count("sockets.bytes_sent"), 0u);

  spec.transport = "sockets";
  ScenarioResult sockets;
  ASSERT_TRUE(run_scenario(spec, &sockets, &error)) << error;
  const auto& s = sockets.metrics.counters;
  EXPECT_EQ(s.at("sockets.connections_opened"), channels.size());
  EXPECT_EQ(s.at("sockets.connections_accepted"),
            s.at("sockets.connections_opened"));
  EXPECT_EQ(s.at("sockets.bytes_sent"), bytes);
  EXPECT_EQ(s.at("sockets.bytes_received"), bytes);
  EXPECT_EQ(s.count("rdma.control_messages"), 0u);
}

/// Drop the wall-clock footer lines — the only nondeterministic output.
std::string filter_wall_clock(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("grid wall-clock", 0) == 0) continue;
    if (line.rfind("speedup vs serial", 0) == 0) continue;
    if (line.rfind("metrics written", 0) == 0) continue;
    out << line << '\n';
  }
  return out.str();
}

int run_cmd(const std::string& cmd) { return std::system(cmd.c_str()); }

TEST(ScenarioGolden, RvmaRunReproducesLegacyFig8MiniGrid) {
  const std::string dir = ::testing::TempDir();
  const std::string grid_path = dir + "fig8_mini_grid.json";
  const std::string table1 = dir + "fig8_mini_table1.txt";
  const std::string table4 = dir + "fig8_mini_table4.txt";
  const std::string metrics1 = dir + "fig8_mini_metrics1.json";
  const std::string metrics4 = dir + "fig8_mini_metrics4.json";

  // The bench emits the grid document; rvma_run executes it — the full
  // declarative chain must reproduce the pre-refactor bytes.
  ASSERT_EQ(run_cmd(std::string(FIG8_BIN) + " --quick --nodes=8 --emit-grid=" +
                    grid_path + " > /dev/null"),
            0);
  ASSERT_EQ(run_cmd(std::string(RVMA_RUN_BIN) + " " + grid_path +
                    " --jobs=1 --metrics=" + metrics1 + " > " + table1),
            0);
  ASSERT_EQ(run_cmd(std::string(RVMA_RUN_BIN) + " " + grid_path +
                    " --jobs=4 --metrics=" + metrics4 + " > " + table4),
            0);

  const std::string golden_table =
      read_file(std::string(GOLDEN_DIR) + "/fig8_mini_table.golden");
  const std::string golden_metrics =
      read_file(std::string(GOLDEN_DIR) + "/fig8_mini_metrics.golden.json");
  ASSERT_FALSE(golden_table.empty());
  ASSERT_FALSE(golden_metrics.empty());

  EXPECT_EQ(filter_wall_clock(read_file(table1)), golden_table);
  EXPECT_EQ(filter_wall_clock(read_file(table4)), golden_table);
  EXPECT_EQ(read_file(metrics1), golden_metrics);
  EXPECT_EQ(read_file(metrics4), golden_metrics);

  for (const std::string& p :
       {grid_path, table1, table4, metrics1, metrics4}) {
    std::remove(p.c_str());
  }
}

/// Gauge sampling runs a cell on one shard. Asking for sampling and
/// shards at once says so on stderr, on the grid and the single-scenario
/// paths, and leaves stdout alone.
TEST(ScenarioCli, SampledShardedRunsNoteTheyRunOnOneShard) {
  const std::string dir = ::testing::TempDir();
  const std::string grid_path = dir + "note_grid.json";
  const std::string spec_path = dir + "note_spec.json";
  const std::string metrics = dir + "note_metrics.json";
  const std::string out_a = dir + "note_a.txt", err_a = dir + "note_a.err";
  const std::string out_b = dir + "note_b.txt", err_b = dir + "note_b.err";
  const std::string note = "run on one shard";

  ASSERT_EQ(run_cmd(std::string(FIG8_BIN) + " --quick --nodes=8 --emit-grid=" +
                    grid_path + " > /dev/null"),
            0);
  const std::string grid_run = std::string(RVMA_RUN_BIN) + " " + grid_path +
                               " --jobs=1 --cases=torus3d-static --gbps=100" +
                               " --par-shards=2 --metrics=" + metrics;
  ASSERT_EQ(run_cmd(grid_run + " > " + out_a + " 2> " + err_a), 0);
  ASSERT_EQ(run_cmd(grid_run + " --metrics-period-us=0 > " + out_b + " 2> " +
                    err_b),
            0);
  EXPECT_NE(read_file(err_a).find(note), std::string::npos);
  EXPECT_NE(read_file(err_a).find("--metrics-period-us=0"), std::string::npos);
  EXPECT_EQ(read_file(err_b).find(note), std::string::npos);
  EXPECT_EQ(read_file(out_a).find(note), std::string::npos);
  EXPECT_EQ(filter_wall_clock(read_file(out_a)),
            filter_wall_clock(read_file(out_b)));

  ScenarioSpec spec = smoke_spec();
  {
    std::ofstream out(spec_path);
    out << to_json(spec);
  }
  const std::string single_run =
      std::string(RVMA_RUN_BIN) + " " + spec_path + " --par-shards=2";
  ASSERT_EQ(run_cmd(single_run + " --sample-period=10us > " + out_a + " 2> " +
                    err_a),
            0);
  ASSERT_EQ(run_cmd(single_run + " > " + out_b + " 2> " + err_b), 0);
  EXPECT_NE(read_file(err_a).find("runs on one shard"), std::string::npos);
  EXPECT_NE(read_file(err_a).find("--sample-period=0"), std::string::npos);
  EXPECT_EQ(read_file(err_b).find("one shard"), std::string::npos);
  EXPECT_EQ(read_file(out_a), read_file(out_b));

  for (const std::string& p :
       {grid_path, spec_path, metrics, out_a, err_a, out_b, err_b}) {
    std::remove(p.c_str());
  }
}

TEST(ScenarioGolden, RvmaRunSingleScenarioIsDeterministic) {
  const std::string dir = ::testing::TempDir();
  const std::string spec_path = dir + "smoke_spec.json";
  ScenarioSpec spec = smoke_spec();
  spec.name = "smoke";
  {
    std::ofstream out(spec_path);
    out << to_json(spec);
  }
  const std::string out_a = dir + "smoke_a.txt";
  const std::string out_b = dir + "smoke_b.txt";
  ASSERT_EQ(run_cmd(std::string(RVMA_RUN_BIN) + " " + spec_path + " > " +
                    out_a),
            0);
  ASSERT_EQ(run_cmd(std::string(RVMA_RUN_BIN) + " " + spec_path +
                    " --transport=rdma > " + out_b),
            0);
  const std::string a = read_file(out_a);
  EXPECT_NE(a.find("makespan"), std::string::npos);
  EXPECT_NE(a.find("transport rvma"), std::string::npos);
  EXPECT_NE(read_file(out_b).find("transport rdma"), std::string::npos);

  // --print round-trips the effective spec as canonical JSON.
  const std::string out_p = dir + "smoke_p.txt";
  ASSERT_EQ(run_cmd(std::string(RVMA_RUN_BIN) + " " + spec_path +
                    " --print > " + out_p),
            0);
  EXPECT_EQ(read_file(out_p), to_json(spec));

  // --list names every registered backend.
  const std::string out_l = dir + "smoke_l.txt";
  ASSERT_EQ(run_cmd(std::string(RVMA_RUN_BIN) + " --list > " + out_l), 0);
  const std::string listing = read_file(out_l);
  for (const auto& [name, entry] : topologies().entries())
    EXPECT_NE(listing.find(name), std::string::npos) << name;
  for (const auto& [name, entry] : transports().entries())
    EXPECT_NE(listing.find(name), std::string::npos) << name;
  for (const auto& [name, entry] : motifs_registry().entries())
    EXPECT_NE(listing.find(name), std::string::npos) << name;

  for (const std::string& p : {spec_path, out_a, out_b, out_p, out_l}) {
    std::remove(p.c_str());
  }
}

}  // namespace
}  // namespace rvma::scenario
