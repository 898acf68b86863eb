// Motif engine tests: channel derivation and ChannelId numbering, program
// generators, and the runner over both transports — including the
// headline ordering property (RVMA makespan <= RDMA makespan on the same
// workload).
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <utility>

#include "cluster/cluster.hpp"
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

  for (std::size_t rank = 0; rank < built.size(); ++rank) {
    ASSERT_EQ(numbered[rank].size(), built[rank].size());
    for (std::size_t i = 0; i < built[rank].size(); ++i) {
      const Op& op = built[rank][i];
      const Op& out = numbered[rank][i];
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

TEST(ProgramBuilders, AllocateExactOpCounts) {
  // Each builder reserves a rank's program at its final length: no
  // growth slack in the materialized programs.
  for (const auto& [pex, pey] : {std::pair{1, 1}, {1, 4}, {3, 2}, {5, 5}}) {
    Sweep3DConfig cfg;
    cfg.pex = pex;
    cfg.pey = pey;
    cfg.nz = 24;
    cfg.kba = 8;
    for (const RankProgram& prog : build_sweep3d(cfg)) {
      EXPECT_EQ(prog.capacity(), prog.size()) << pex << "x" << pey;
    }
  }
  for (const int p : {1, 2, 3}) {
    Halo3DConfig cfg;
    cfg.px = p;
    cfg.py = 2;
    cfg.pz = p;
    cfg.iterations = 3;
    for (const RankProgram& prog : build_halo3d(cfg)) {
      EXPECT_EQ(prog.capacity(), prog.size()) << p;
    }
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
