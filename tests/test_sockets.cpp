// Sockets-over-Receiver-Managed-RVMA tests (paper §IV-B): connection
// setup, streaming with segment completion, boundary spilling, partial
// claims via inc_epoch, receiver-side resource exhaustion, and close.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "cluster/cluster.hpp"
#include "sockets/socket_stack.hpp"

namespace rvma::sockets {
namespace {

using core::RvmaEndpoint;
using core::RvmaParams;

net::NetworkConfig star(int nodes) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kStar;
  cfg.nodes_hint = nodes;
  return cfg;
}

class SocketsTest : public ::testing::Test {
 protected:
  SocketsTest()
      : cluster_(star(2), nic::NicParams{}),
        client_ep_(cluster_.nic(0), RvmaParams{}),
        server_ep_(cluster_.nic(1), RvmaParams{}),
        client_(client_ep_, SocketParams{}),
        server_(server_ep_, SocketParams{}) {}

  /// Connect client -> server:port; returns (client conn, server conn).
  std::pair<ConnId, ConnId> establish(std::uint16_t port = 80) {
    ConnId client_conn = 0, server_conn = 0;
    server_.listen(port, [&](ConnId id) { server_conn = id; });
    client_.connect(1, port, [&](ConnId id) { client_conn = id; });
    cluster_.engine().run();
    EXPECT_NE(client_conn, 0u);
    EXPECT_NE(server_conn, 0u);
    return {client_conn, server_conn};
  }

  /// Cluster-wide registry counter; throws on a name nothing registered.
  std::uint64_t counter(const char* name) const {
    return cluster_.collect_metrics().counters.at(name);
  }

  cluster::Cluster cluster_;
  RvmaEndpoint client_ep_;
  RvmaEndpoint server_ep_;
  SocketStack client_;
  SocketStack server_;
};

TEST_F(SocketsTest, ConnectAcceptHandshake) {
  const auto [c, s] = establish();
  EXPECT_EQ(counter("sockets.connections_opened"), 1u);
  EXPECT_EQ(counter("sockets.connections_accepted"), 1u);
  (void)c;
  (void)s;
}

TEST_F(SocketsTest, ConnectionRefusedWithoutListener) {
  bool connected = false;
  client_.connect(1, 9999, [&](ConnId) { connected = true; });
  cluster_.engine().run();
  EXPECT_FALSE(connected);
  EXPECT_EQ(counter("sockets.connections_accepted"), 0u);
}

TEST_F(SocketsTest, SendFullSegmentIsReceivable) {
  const auto [c, s] = establish();
  const std::uint64_t seg = SocketParams{}.segment_bytes;
  std::vector<std::byte> data(seg);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i % 251);
  }
  ASSERT_EQ(client_.send(c, data.data(), data.size()), Status::kOk);
  cluster_.engine().run();

  EXPECT_EQ(server_.available(s), seg);
  std::vector<std::byte> out(seg, std::byte{0});
  EXPECT_EQ(server_.recv(s, out.data(), out.size()), seg);
  EXPECT_EQ(out, data);
  EXPECT_EQ(server_.available(s), 0u);
}

TEST_F(SocketsTest, StreamSpillsAcrossSegments) {
  const auto [c, s] = establish();
  const std::uint64_t seg = SocketParams{}.segment_bytes;
  // 2.5 segments in a single send: hardware splits it across buffers.
  const std::uint64_t total = seg * 5 / 2;
  std::vector<std::byte> data(total);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((i * 13) % 251);
  }
  ASSERT_EQ(client_.send(c, data.data(), total), Status::kOk);
  cluster_.engine().run();

  // Two full segments completed; the final half segment is still pending.
  EXPECT_EQ(server_.available(s), seg * 2);
  // Claim the partial tail (the paper's inc_epoch streaming use case).
  ASSERT_EQ(server_.claim_partial(s), Status::kOk);
  cluster_.engine().run();
  EXPECT_EQ(server_.available(s), total);

  std::vector<std::byte> out(total, std::byte{0});
  EXPECT_EQ(server_.recv(s, out.data(), total), total);
  EXPECT_EQ(out, data);
  EXPECT_EQ(counter("sockets.partial_claims"), 1u);
}

TEST_F(SocketsTest, ManySmallSendsCoalesceIntoSegments) {
  const auto [c, s] = establish();
  std::vector<std::byte> expected;
  for (int i = 0; i < 100; ++i) {
    std::vector<std::byte> chunk(100, static_cast<std::byte>(i));
    expected.insert(expected.end(), chunk.begin(), chunk.end());
    ASSERT_EQ(client_.send(c, chunk.data(), chunk.size()), Status::kOk);
  }
  cluster_.engine().run();
  ASSERT_EQ(server_.claim_partial(s), Status::kOk);
  cluster_.engine().run();

  ASSERT_EQ(server_.available(s), expected.size());
  std::vector<std::byte> out(expected.size());
  EXPECT_EQ(server_.recv(s, out.data(), out.size()), expected.size());
  EXPECT_EQ(out, expected);  // stream order preserved (static routing)
}

TEST_F(SocketsTest, RecvInSmallPieces) {
  const auto [c, s] = establish();
  std::vector<std::byte> data(1000);
  std::iota(reinterpret_cast<std::uint8_t*>(data.data()),
            reinterpret_cast<std::uint8_t*>(data.data()) + 1000, 0);
  ASSERT_EQ(client_.send(c, data.data(), data.size()), Status::kOk);
  cluster_.engine().run();
  ASSERT_EQ(server_.claim_partial(s), Status::kOk);
  cluster_.engine().run();

  std::vector<std::byte> out(1000);
  std::uint64_t off = 0;
  while (off < 1000) {
    const std::uint64_t got = server_.recv(s, out.data() + off, 64);
    ASSERT_GT(got, 0u);
    off += got;
  }
  EXPECT_EQ(out, data);
}

TEST_F(SocketsTest, RecvWaitFiresOnArrival) {
  const auto [c, s] = establish();
  bool woke = false;
  server_.recv_wait(s, [&] { woke = true; });
  cluster_.engine().run();
  EXPECT_FALSE(woke);  // nothing sent yet

  const std::uint64_t seg = SocketParams{}.segment_bytes;
  std::vector<std::byte> data(seg, std::byte{1});
  client_.send(c, data.data(), seg);
  cluster_.engine().run();
  EXPECT_TRUE(woke);
}

TEST_F(SocketsTest, BidirectionalStreams) {
  const auto [c, s] = establish();
  const char* ping = "ping from client";
  const char* pong = "pong from server";
  client_.send(c, reinterpret_cast<const std::byte*>(ping),
               std::strlen(ping) + 1);
  server_.send(s, reinterpret_cast<const std::byte*>(pong),
               std::strlen(pong) + 1);
  cluster_.engine().run();
  ASSERT_EQ(server_.claim_partial(s), Status::kOk);
  ASSERT_EQ(client_.claim_partial(c), Status::kOk);
  cluster_.engine().run();

  char server_in[64] = {}, client_in[64] = {};
  server_.recv(s, reinterpret_cast<std::byte*>(server_in), sizeof server_in);
  client_.recv(c, reinterpret_cast<std::byte*>(client_in), sizeof client_in);
  EXPECT_STREQ(server_in, ping);
  EXPECT_STREQ(client_in, pong);
}

TEST_F(SocketsTest, RingExhaustionDropsAndNacks) {
  // A sender overrunning the receiver's ring is refused, not buffered
  // indefinitely: receiver-side resource management (paper §I).
  const auto [c, s] = establish();
  (void)s;
  const SocketParams params;
  const std::uint64_t seg = params.segment_bytes;
  std::vector<std::byte> data(seg, std::byte{1});
  // ring_depth segments fit; the ring is not drained, so further segments
  // find no posted buffer.
  for (int i = 0; i < params.ring_depth + 3; ++i) {
    ASSERT_EQ(client_.send(c, data.data(), seg), Status::kOk);
  }
  cluster_.engine().run();
  EXPECT_GT(counter("rvma.drops_no_buffer"), 0u);
  EXPECT_GT(counter("rvma.nacks_received"), 0u);
}

TEST_F(SocketsTest, CloseRefusesFurtherTraffic) {
  const auto [c, s] = establish();
  ASSERT_EQ(server_.close(s), Status::kOk);
  std::vector<std::byte> data(64, std::byte{1});
  ASSERT_EQ(client_.send(c, data.data(), data.size()), Status::kOk);
  cluster_.engine().run();
  EXPECT_GT(counter("rvma.drops_closed"), 0u);
  EXPECT_EQ(server_.available(s), 0u);
}

TEST_F(SocketsTest, SendOnUnknownConnFails) {
  std::byte b{};
  EXPECT_EQ(client_.send(999, &b, 1), Status::kInvalidArg);
  EXPECT_EQ(client_.claim_partial(999), Status::kInvalidArg);
  EXPECT_EQ(client_.close(999), Status::kInvalidArg);
  EXPECT_EQ(client_.recv(999, &b, 1), 0u);
}

TEST_F(SocketsTest, SendBeforeEstablishedFails) {
  ConnId pending = 0;
  // No listener reply will ever come for port 7 (no listen): conn stays
  // half-open.
  client_.connect(1, 7, [&](ConnId id) { pending = id; });
  std::byte b{};
  EXPECT_EQ(client_.send(1, &b, 1), Status::kNotReady);
  cluster_.engine().run();
  EXPECT_EQ(pending, 0u);
}

TEST(SocketsMultiNode, ThreeClientsOneServer) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kStar;
  cfg.nodes_hint = 4;
  cluster::Cluster cluster(cfg, nic::NicParams{});
  std::vector<std::unique_ptr<RvmaEndpoint>> eps;
  std::vector<std::unique_ptr<SocketStack>> stacks;
  for (int n = 0; n < 4; ++n) {
    eps.push_back(std::make_unique<RvmaEndpoint>(cluster.nic(n), RvmaParams{}));
    stacks.push_back(std::make_unique<SocketStack>(*eps.back(), SocketParams{}));
  }
  SocketStack& server = *stacks[0];
  std::vector<ConnId> server_conns;
  server.listen(80, [&](ConnId id) { server_conns.push_back(id); });

  std::vector<ConnId> client_conns(4, 0);
  for (int n = 1; n < 4; ++n) {
    stacks[n]->connect(0, 80, [&, n](ConnId id) {
      client_conns[n] = id;
      std::vector<std::byte> hello(32, static_cast<std::byte>(n));
      stacks[n]->send(id, hello.data(), hello.size());
    });
  }
  cluster.engine().run();
  ASSERT_EQ(server_conns.size(), 3u);
  for (ConnId sc : server_conns) {
    ASSERT_EQ(server.claim_partial(sc), Status::kOk);
  }
  cluster.engine().run();
  // Each connection's stream holds exactly its client's 32 bytes.
  int total = 0;
  for (ConnId sc : server_conns) {
    std::byte out[64];
    const auto got = server.recv(sc, out, sizeof out);
    EXPECT_EQ(got, 32u);
    for (std::uint64_t i = 1; i < got; ++i) EXPECT_EQ(out[i], out[0]);
    total += static_cast<int>(got);
  }
  EXPECT_EQ(total, 96);
}

}  // namespace
}  // namespace rvma::sockets
