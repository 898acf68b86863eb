// Motif engine tests: loop-compressed programs, channel derivation and
// ChannelId numbering, program generators, and the runner over both
// transports — including the headline ordering property (RVMA makespan
// <= RDMA makespan on the same workload).
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "cluster/cluster.hpp"
#include "motifs/collectives.hpp"
#include "motifs/halo3d.hpp"
#include "motifs/incast.hpp"
#include "motifs/rdma_transport.hpp"
#include "motifs/runner.hpp"
#include "motifs/rvma_transport.hpp"
#include "motifs/sweep3d.hpp"

namespace rvma::motifs {
namespace {

net::NetworkConfig torus_config(int nodes, net::Routing routing) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kTorus3D;
  cfg.routing = routing;
  cfg.nodes_hint = nodes;
  cfg.link.bw = Bandwidth::gbps(100);
  cfg.seed = 99;
  return cfg;
}

// ------------------------------------------------------------ loop blocks

Op send_op(int peer, std::uint64_t tag) {
  return {Op::Kind::kSend, peer, tag, 64, 0};
}

TEST(RankProgram, IteratesBlocksExpanded) {
  // Tags name the ops: a block of 2 trips first, unlooped ops between
  // blocks of 0 and 1 trips, and a block of 3 trips last.
  RankProgram prog;
  prog.begin_loop(2);
  prog.push_back(send_op(1, 10));
  prog.push_back(send_op(1, 11));
  prog.end_loop();
  prog.push_back(send_op(1, 20));
  prog.begin_loop(0);
  prog.push_back(send_op(1, 30));
  prog.end_loop();
  prog.push_back(send_op(1, 40));
  prog.begin_loop(1);
  prog.push_back(send_op(1, 50));
  prog.end_loop();
  prog.push_back(send_op(1, 60));
  prog.begin_loop(3);
  prog.push_back(send_op(1, 70));
  prog.push_back({Op::Kind::kCompute, -1, 0, 0, 5});
  prog.end_loop();

  const std::vector<std::uint64_t> expanded = {10, 11, 10, 11, 20, 40, 50,
                                               60, 70, 0,  70, 0,  70, 0};
  std::vector<std::uint64_t> iterated;
  for (const Op& op : prog) {
    EXPECT_NE(op.kind, Op::Kind::kLoop);
    iterated.push_back(op.tag);
  }
  EXPECT_EQ(iterated, expanded);
  EXPECT_EQ(prog.size(), expanded.size());
  EXPECT_EQ(static_cast<std::size_t>(std::distance(prog.begin(), prog.end())),
            expanded.size());
  // Each block is stored once behind its header; the zero-trip block is
  // not stored at all.
  EXPECT_EQ(prog.stored().size(), 3u + 2 + 1 + 1 + 1 + 1 + 2);
}

TEST(RankProgram, BlocksThatNeverRunAreEmpty) {
  RankProgram prog;
  prog.begin_loop(0);
  prog.push_back(send_op(1, 1));
  prog.end_loop();
  prog.begin_loop(4);
  prog.end_loop();
  EXPECT_EQ(prog.size(), 0u);
  EXPECT_TRUE(prog.stored().empty());
  EXPECT_TRUE(prog.begin() == prog.end());
}

TEST(RankProgramDeathTest, BlocksDoNotNest) {
  EXPECT_DEATH(
      {
        RankProgram prog;
        prog.begin_loop(2);
        prog.push_back(send_op(1, 1));
        prog.begin_loop(3);
      },
      "loop blocks do not nest");
}

// ------------------------------------------------------- channel derivation

TEST(DeriveChannels, CountsAndSizes) {
  std::vector<RankProgram> programs(2);
  programs[0].push_back({Op::Kind::kSend, 1, 5, 1024, 0});
  programs[0].push_back({Op::Kind::kSend, 1, 5, 1024, 0});
  programs[1].push_back({Op::Kind::kRecvWait, 0, 5, 1024, 0});
  programs[1].push_back({Op::Kind::kSend, 0, 9, 64, 0});

  const auto channels = MotifRunner::derive_channels(programs);
  ASSERT_EQ(channels.size(), 2u);
  std::map<std::uint64_t, Channel> by_tag;
  for (const auto& ch : channels) by_tag[ch.tag] = ch;
  EXPECT_EQ(by_tag[5].src, 0);
  EXPECT_EQ(by_tag[5].dst, 1);
  EXPECT_EQ(by_tag[5].count, 2);
  EXPECT_EQ(by_tag[5].bytes, 1024u);
  EXPECT_EQ(by_tag[9].count, 1);
}

TEST(DeriveChannels, LoopedProgramMatchesUnrolledTwin) {
  // Rank 0 sends on tag 5 before a block and inside it, so channel
  // 0 -> 1 tag 5 counts messages from both; tag 9 is sent only inside a
  // zero-trip block and must not become a channel.
  std::vector<RankProgram> looped(2), unrolled(2);
  looped[0].push_back(send_op(1, 5));
  looped[0].begin_loop(3);
  looped[0].push_back(send_op(1, 5));
  looped[0].push_back(send_op(1, 7));
  looped[0].end_loop();
  looped[0].begin_loop(0);
  looped[0].push_back(send_op(1, 9));
  looped[0].end_loop();
  looped[1].begin_loop(4);
  looped[1].push_back({Op::Kind::kRecvPost, 0, 5, 64, 0});
  looped[1].push_back({Op::Kind::kRecvWait, 0, 5, 64, 0});
  looped[1].end_loop();
  looped[1].begin_loop(3);
  looped[1].push_back({Op::Kind::kRecvPost, 0, 7, 64, 0});
  looped[1].push_back({Op::Kind::kRecvWait, 0, 7, 64, 0});
  looped[1].end_loop();

  unrolled[0].push_back(send_op(1, 5));
  for (int i = 0; i < 3; ++i) {
    unrolled[0].push_back(send_op(1, 5));
    unrolled[0].push_back(send_op(1, 7));
  }
  for (int i = 0; i < 4; ++i) {
    unrolled[1].push_back({Op::Kind::kRecvPost, 0, 5, 64, 0});
    unrolled[1].push_back({Op::Kind::kRecvWait, 0, 5, 64, 0});
  }
  for (int i = 0; i < 3; ++i) {
    unrolled[1].push_back({Op::Kind::kRecvPost, 0, 7, 64, 0});
    unrolled[1].push_back({Op::Kind::kRecvWait, 0, 7, 64, 0});
  }

  const std::vector<Channel> channels = MotifRunner::derive_channels(looped);
  EXPECT_EQ(channels, MotifRunner::derive_channels(unrolled));
  ASSERT_EQ(channels.size(), 2u);
  EXPECT_EQ(channels[0].tag, 5u);
  EXPECT_EQ(channels[0].count, 4);
  EXPECT_EQ(channels[1].tag, 7u);
  EXPECT_EQ(channels[1].count, 3);

  // The two run alike...
  std::vector<MotifResult> results;
  for (const auto* programs : {&looped, &unrolled}) {
    cluster::Cluster cluster(torus_config(2, net::Routing::kStatic),
                             nic::NicParams{});
    RvmaTransport transport(cluster, core::RvmaParams{});
    results.push_back(MotifRunner(cluster, transport, *programs).run());
  }
  EXPECT_EQ(results[0].ops_executed, 7u + 14u);
  EXPECT_EQ(results[0].ops_executed, results[1].ops_executed);
  EXPECT_EQ(results[0].makespan, results[1].makespan);
  EXPECT_EQ(results[0].transport.data_messages, 7u);

  // ...and numbering gives each executed op the same channel either way.
  EXPECT_EQ(MotifRunner::number_channels(looped), channels);
  EXPECT_EQ(MotifRunner::number_channels(unrolled), channels);
  for (int rank = 0; rank < 2; ++rank) {
    ASSERT_EQ(looped[rank].size(), unrolled[rank].size());
    auto twin = unrolled[rank].begin();
    for (const Op& op : looped[rank]) {
      ASSERT_EQ(op.kind, twin->kind);
      EXPECT_EQ(op.channel, twin->channel);
      ++twin;
    }
  }
}

TEST(NumberChannels, IdsFollowDeriveChannelsOrder) {
  Halo3DConfig cfg;
  cfg.px = 3;
  cfg.py = 2;
  cfg.pz = 2;
  cfg.iterations = 2;
  const std::vector<RankProgram> built = build_halo3d(cfg);
  std::vector<RankProgram> numbered = built;
  const std::vector<Channel> channels = MotifRunner::number_channels(numbered);
  EXPECT_EQ(channels, MotifRunner::derive_channels(built));
  ASSERT_FALSE(channels.empty());
  for (std::size_t i = 1; i < channels.size(); ++i) {  // (src, dst, tag)
    const Channel& a = channels[i - 1];
    const Channel& b = channels[i];
    EXPECT_LT(std::tie(a.src, a.dst, a.tag), std::tie(b.src, b.dst, b.tag));
  }

  // Walk each rank's built and numbered programs in lockstep.
  for (std::size_t rank = 0; rank < built.size(); ++rank) {
    ASSERT_EQ(numbered[rank].size(), built[rank].size());
    auto out_it = numbered[rank].begin();
    for (const Op& op : built[rank]) {
      ASSERT_FALSE(out_it == numbered[rank].end());
      const Op& out = *out_it++;
      ASSERT_EQ(out.kind, op.kind);
      if (op.kind == Op::Kind::kCompute) {
        EXPECT_EQ(out.compute, op.compute);
        continue;
      }
      ASSERT_LT(out.channel, channels.size());
      const Channel& ch = channels[out.channel];
      const int me = static_cast<int>(rank);
      const bool send = op.kind == Op::Kind::kSend;
      EXPECT_EQ(ch.src, send ? me : op.peer);
      EXPECT_EQ(ch.dst, send ? op.peer : me);
      EXPECT_EQ(ch.tag, op.tag);
      EXPECT_EQ(ch.bytes, op.bytes);
    }
    EXPECT_TRUE(out_it == numbered[rank].end());
  }
}

TEST(NumberChannelsDeathTest, UnmatchedReceiveFailsAtRunStart) {
  // Rank 1 waits on tag 6; rank 0 only ever sends on tag 5.
  std::vector<RankProgram> programs(2);
  programs[0].push_back({Op::Kind::kSend, 1, 5, 1024, 0});
  programs[1].push_back({Op::Kind::kRecvPost, 0, 6, 1024, 0});
  programs[1].push_back({Op::Kind::kRecvWait, 0, 6, 1024, 0});
  EXPECT_DEATH(
      {
        cluster::Cluster cluster(torus_config(2, net::Routing::kStatic),
                                 nic::NicParams{});
        RvmaTransport transport(cluster, core::RvmaParams{});
        MotifRunner(cluster, transport, programs).run();
      },
      "rank 1 receives from rank 0 on tag 6, which no send declares");
}

// ------------------------------------------------------ program generators

/// Every builder on small configs, including edge ranks with fewer
/// neighbors and non-power-of-two collectives.
std::vector<std::pair<std::string, std::vector<RankProgram>>> small_motifs() {
  std::vector<std::pair<std::string, std::vector<RankProgram>>> motifs;
  for (const auto& [pex, pey] : {std::pair{1, 1}, {1, 4}, {3, 2}, {5, 5}}) {
    Sweep3DConfig cfg;
    cfg.pex = pex;
    cfg.pey = pey;
    cfg.nz = 24;
    cfg.kba = 8;
    motifs.emplace_back("sweep3d " + std::to_string(pex) + "x" +
                            std::to_string(pey),
                        build_sweep3d(cfg));
  }
  for (const int p : {1, 2, 3}) {
    Halo3DConfig cfg;
    cfg.px = p;
    cfg.py = 2;
    cfg.pz = p;
    cfg.iterations = 3;
    motifs.emplace_back("halo3d " + std::to_string(p), build_halo3d(cfg));
  }
  IncastConfig incast;
  incast.clients = 5;
  incast.messages_per_client = 3;
  motifs.emplace_back("incast", build_incast(incast));
  for (const int ranks : {2, 6}) {
    BarrierConfig barrier;
    barrier.ranks = ranks;
    barrier.iterations = 3;
    motifs.emplace_back("barrier " + std::to_string(ranks),
                        build_barrier(barrier));
    AllReduceConfig allreduce;
    allreduce.ranks = ranks;
    allreduce.bytes = 4096;
    allreduce.iterations = 2;
    allreduce.reduce_per_byte = kPicosecond;
    motifs.emplace_back("allreduce " + std::to_string(ranks),
                        build_allreduce(allreduce));
    BroadcastConfig broadcast;
    broadcast.ranks = ranks;
    broadcast.root = 1;
    broadcast.iterations = 2;
    motifs.emplace_back("broadcast " + std::to_string(ranks),
                        build_broadcast(broadcast));
  }
  return motifs;
}

TEST(ProgramBuilders, AllocateExactOpCounts) {
  // Each builder reserves a rank's program at its final stored length
  // (block headers and bodies): no growth slack.
  for (const auto& [name, programs] : small_motifs()) {
    for (const RankProgram& prog : programs) {
      EXPECT_EQ(prog.capacity(), prog.stored().size()) << name;
    }
  }
}

TEST(ProgramBuilders, RunnerExecutesEveryOpOfEveryProgram) {
  for (auto& [name, programs] : small_motifs()) {
    std::uint64_t built = 0;
    for (const RankProgram& prog : programs) built += prog.size();
    cluster::Cluster cluster(
        torus_config(static_cast<int>(programs.size()), net::Routing::kStatic),
        nic::NicParams{});
    RvmaTransport transport(cluster, core::RvmaParams{});
    const MotifResult result =
        MotifRunner(cluster, transport, std::move(programs)).run();
    EXPECT_EQ(result.ops_executed, built) << name;
  }
}

TEST(ProgramBuilders, ProgramMemoryIsIndependentOfRepeatCounts) {
  // A block is stored once however often it repeats: more z-blocks or
  // iterations raise the executed count, not the allocation.
  Sweep3DConfig sweep;
  sweep.pex = 3;
  sweep.pey = 3;
  sweep.nz = 64;
  const std::vector<RankProgram> shallow = build_sweep3d(sweep);
  sweep.nz = 512;
  const std::vector<RankProgram> deep = build_sweep3d(sweep);
  ASSERT_EQ(shallow.size(), deep.size());
  for (std::size_t rank = 0; rank < deep.size(); ++rank) {
    EXPECT_EQ(deep[rank].capacity(), shallow[rank].capacity()) << rank;
    EXPECT_EQ(deep[rank].size(), 8 * shallow[rank].size()) << rank;
  }

  Halo3DConfig halo;
  halo.px = halo.py = halo.pz = 3;
  halo.iterations = 1;
  const std::vector<RankProgram> once = build_halo3d(halo);
  halo.iterations = 64;
  const std::vector<RankProgram> many = build_halo3d(halo);
  ASSERT_EQ(once.size(), many.size());
  for (std::size_t rank = 0; rank < many.size(); ++rank) {
    EXPECT_EQ(many[rank].capacity(), once[rank].capacity()) << rank;
    EXPECT_EQ(many[rank].size(), 64 * once[rank].size()) << rank;
  }
}

TEST(Sweep3D, ProgramShape) {
  Sweep3DConfig cfg;
  cfg.pex = 3;
  cfg.pey = 2;
  cfg.nz = 16;
  cfg.kba = 4;
  const auto programs = build_sweep3d(cfg);
  ASSERT_EQ(programs.size(), 6u);

  // Corner rank 0 has no upstream in (+,+) octants; interior rank has both.
  int sends = 0, recv_waits = 0;
  for (const Op& op : programs[0]) {
    sends += op.kind == Op::Kind::kSend;
    recv_waits += op.kind == Op::Kind::kRecvWait;
  }
  EXPECT_GT(sends, 0);
  EXPECT_GT(recv_waits, 0);

  // Message sizes follow the face formulas.
  EXPECT_EQ(cfg.x_msg_bytes(), static_cast<std::uint64_t>(cfg.ny) * cfg.kba *
                                   cfg.vars * sizeof(double));
  EXPECT_EQ(cfg.z_steps(), 4);
}

TEST(Sweep3D, SendsAndReceivesBalance) {
  Sweep3DConfig cfg;
  cfg.pex = 4;
  cfg.pey = 4;
  cfg.nz = 8;
  cfg.kba = 4;
  const auto programs = build_sweep3d(cfg);
  std::uint64_t sends = 0, waits = 0, posts = 0;
  for (const auto& prog : programs) {
    for (const Op& op : prog) {
      sends += op.kind == Op::Kind::kSend;
      waits += op.kind == Op::Kind::kRecvWait;
      posts += op.kind == Op::Kind::kRecvPost;
    }
  }
  EXPECT_EQ(sends, waits);  // every message sent is awaited
  EXPECT_EQ(posts, waits);
}

TEST(Halo3D, ProgramShape) {
  Halo3DConfig cfg;
  cfg.px = cfg.py = cfg.pz = 2;
  cfg.iterations = 3;
  const auto programs = build_halo3d(cfg);
  ASSERT_EQ(programs.size(), 8u);
  // Every rank in a 2x2x2 grid has exactly 3 neighbors.
  for (const auto& prog : programs) {
    std::uint64_t sends = 0;
    for (const Op& op : prog) sends += op.kind == Op::Kind::kSend;
    EXPECT_EQ(sends, 3u * cfg.iterations);
  }
}

TEST(Halo3D, ChannelsPairUp) {
  Halo3DConfig cfg;
  cfg.px = 3;
  cfg.py = 2;
  cfg.pz = 1;
  cfg.iterations = 2;
  const auto programs = build_halo3d(cfg);
  const auto channels = MotifRunner::derive_channels(programs);
  // Every send channel must have a matching recv side in some program:
  // verified structurally — each (src,dst,tag) appears with dst's recv ops.
  for (const auto& ch : channels) {
    bool found = false;
    for (const Op& op : programs[ch.dst]) {
      if (op.kind == Op::Kind::kRecvWait && op.peer == ch.src &&
          op.tag == ch.tag) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "channel " << ch.src << "->" << ch.dst
                       << " tag " << ch.tag << " has no receiver";
  }
}

TEST(Incast, ProgramShape) {
  IncastConfig cfg;
  cfg.clients = 4;
  cfg.messages_per_client = 3;
  const auto programs = build_incast(cfg);
  ASSERT_EQ(programs.size(), 5u);
  std::uint64_t server_waits = 0;
  for (const Op& op : programs[0]) {
    server_waits += op.kind == Op::Kind::kRecvWait;
  }
  EXPECT_EQ(server_waits, 12u);
}

// ------------------------------------------------------------- execution

struct MotifRunCase {
  const char* name;
  net::Routing routing;
};

class MotifExecutionTest : public ::testing::TestWithParam<MotifRunCase> {};

TEST_P(MotifExecutionTest, Halo3DRunsOnBothTransportsRvmaWins) {
  Halo3DConfig cfg;
  cfg.px = cfg.py = 2;
  cfg.pz = 2;
  cfg.nx = cfg.ny = cfg.nz = 16;
  cfg.iterations = 2;

  const net::Routing routing = GetParam().routing;
  Time rvma_time = 0, rdma_time = 0;
  {
    cluster::Cluster cluster(torus_config(cfg.ranks(), routing), nic::NicParams{});
    RvmaTransport transport(cluster, core::RvmaParams{});
    MotifRunner runner(cluster, transport, build_halo3d(cfg));
    const MotifResult result = runner.run();
    rvma_time = result.makespan;
    EXPECT_GT(result.makespan, 0u);
    EXPECT_EQ(result.transport.credit_stalls, 0u);  // RVMA never stalls
    EXPECT_EQ(result.transport.control_messages, 0u);
  }
  {
    cluster::Cluster cluster(torus_config(cfg.ranks(), routing), nic::NicParams{});
    RdmaTransport transport(cluster, rdma::RdmaParams{},
                            routing == net::Routing::kStatic);
    MotifRunner runner(cluster, transport, build_halo3d(cfg));
    const MotifResult result = runner.run();
    rdma_time = result.makespan;
    EXPECT_GT(result.transport.control_messages, 0u);
  }
  EXPECT_LT(rvma_time, rdma_time)
      << "RVMA must beat RDMA (paper Figs. 7-8) under "
      << to_string(routing);
}

TEST_P(MotifExecutionTest, Sweep3DRunsOnBothTransportsRvmaWins) {
  Sweep3DConfig cfg;
  cfg.pex = 4;
  cfg.pey = 2;
  cfg.nx = cfg.ny = 8;
  cfg.nz = 16;
  cfg.kba = 8;

  const net::Routing routing = GetParam().routing;
  Time rvma_time = 0, rdma_time = 0;
  {
    cluster::Cluster cluster(torus_config(cfg.ranks(), routing), nic::NicParams{});
    RvmaTransport transport(cluster, core::RvmaParams{});
    MotifRunner runner(cluster, transport, build_sweep3d(cfg));
    rvma_time = runner.run().makespan;
  }
  {
    cluster::Cluster cluster(torus_config(cfg.ranks(), routing), nic::NicParams{});
    RdmaTransport transport(cluster, rdma::RdmaParams{},
                            routing == net::Routing::kStatic);
    MotifRunner runner(cluster, transport, build_sweep3d(cfg));
    rdma_time = runner.run().makespan;
  }
  EXPECT_LT(rvma_time, rdma_time);
}

INSTANTIATE_TEST_SUITE_P(
    Routings, MotifExecutionTest,
    ::testing::Values(MotifRunCase{"static", net::Routing::kStatic},
                      MotifRunCase{"adaptive", net::Routing::kAdaptive}),
    [](const ::testing::TestParamInfo<MotifRunCase>& info) {
      return info.param.name;
    });

TEST(MotifExecution, IncastCompletesAllMessages) {
  IncastConfig cfg;
  cfg.clients = 7;
  cfg.messages_per_client = 4;
  cluster::Cluster cluster(torus_config(cfg.ranks(), net::Routing::kAdaptive),
                       nic::NicParams{});
  RvmaTransport transport(cluster, core::RvmaParams{});
  MotifRunner runner(cluster, transport, build_incast(cfg));
  const MotifResult result = runner.run();
  EXPECT_EQ(result.transport.data_messages,
            static_cast<std::uint64_t>(cfg.clients) * cfg.messages_per_client);
  EXPECT_GT(result.makespan, 0u);
}

TEST(MotifExecution, RdmaSlotsReduceCreditStalls) {
  IncastConfig cfg;
  cfg.clients = 3;
  cfg.messages_per_client = 6;
  std::uint64_t stalls_one_slot = 0, stalls_four_slots = 0;
  for (int slots : {1, 4}) {
    cluster::Cluster cluster(torus_config(cfg.ranks(), net::Routing::kStatic),
                         nic::NicParams{});
    RdmaTransport transport(cluster, rdma::RdmaParams{}, true, slots);
    MotifRunner runner(cluster, transport, build_incast(cfg));
    const MotifResult result = runner.run();
    (slots == 1 ? stalls_one_slot : stalls_four_slots) =
        result.transport.credit_stalls;
  }
  EXPECT_GE(stalls_one_slot, stalls_four_slots);
}

TEST(MotifExecution, SetupTimeIsZeroForRvmaPositiveForRdma) {
  Halo3DConfig cfg;
  cfg.px = 2;
  cfg.py = 2;
  cfg.pz = 1;
  cfg.iterations = 1;
  {
    cluster::Cluster cluster(torus_config(cfg.ranks(), net::Routing::kStatic),
                         nic::NicParams{});
    RvmaTransport transport(cluster, core::RvmaParams{});
    MotifRunner runner(cluster, transport, build_halo3d(cfg));
    EXPECT_EQ(runner.run().setup_done, 0u);  // no handshakes
  }
  {
    cluster::Cluster cluster(torus_config(cfg.ranks(), net::Routing::kStatic),
                         nic::NicParams{});
    RdmaTransport transport(cluster, rdma::RdmaParams{}, true);
    MotifRunner runner(cluster, transport, build_halo3d(cfg));
    EXPECT_GT(runner.run().setup_done,
              rdma::RdmaParams{}.reg_base);  // handshake + registration
  }
}

}  // namespace
}  // namespace rvma::motifs
