// RDMA baseline model tests: registration, handshake, put data path,
// completion mechanisms (last-byte poll vs. trailing send/recv), the
// premature-completion corruption under adaptive routing, write-with-
// immediate limits, and get.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cluster/cluster.hpp"
#include "rdma/rdma.hpp"

namespace rvma::rdma {
namespace {

net::NetworkConfig star2() {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kStar;
  cfg.nodes_hint = 2;
  cfg.link.bw = Bandwidth::gbps(100);
  cfg.link.latency = 100 * kNanosecond;
  cfg.switch_latency = 100 * kNanosecond;
  return cfg;
}

class RdmaTest : public ::testing::Test {
 protected:
  RdmaTest()
      : cluster_(star2(), nic::NicParams{}),
        initiator_(cluster_.nic(0), RdmaParams{}),
        target_(cluster_.nic(1), RdmaParams{}) {}

  /// Cluster-wide registry counter; throws on a name nothing registered.
  std::uint64_t counter(const char* name) const {
    return cluster_.collect_metrics().counters.at(name);
  }

  cluster::Cluster cluster_;
  RdmaEndpoint initiator_;
  RdmaEndpoint target_;
};

TEST_F(RdmaTest, RegistrationChargesCost) {
  Time done_at = 0;
  cluster_.engine().schedule(0, [&] {
    target_.register_region({}, 1 * MiB,
                            [&](std::uint64_t) { done_at = cluster_.engine().now(); });
  });
  cluster_.engine().run();
  const RdmaParams& p = target_.params();
  const Time expected = p.reg_base + ns(p.reg_ns_per_kib * 1024.0);
  EXPECT_EQ(done_at, expected);
  EXPECT_EQ(counter("rdma.regions_registered"), 1u);
}

TEST_F(RdmaTest, HandshakeReturnsAddressAndLength) {
  target_.serve_buffer_requests(
      [](std::uint64_t, std::uint64_t) { return std::span<std::byte>{}; });
  RemoteBuffer got;
  cluster_.engine().schedule(0, [&] {
    initiator_.request_buffer(1, 64 * KiB, [&](RemoteBuffer rb) { got = rb; });
  });
  cluster_.engine().run();
  EXPECT_EQ(got.node, 1);
  EXPECT_EQ(got.size, 64u * KiB);
  EXPECT_NE(got.addr, 0u);
  EXPECT_EQ(counter("rdma.handshakes_served"), 1u);
}

TEST_F(RdmaTest, HandshakeTagReachesAllocatorAndObserver) {
  std::uint64_t seen_tag = 0, observed_tag = 0, observed_addr = 0;
  target_.serve_buffer_requests(
      [&](std::uint64_t, std::uint64_t tag) {
        seen_tag = tag;
        return std::span<std::byte>{};
      },
      [&](std::uint64_t tag, std::uint64_t addr, std::uint64_t) {
        observed_tag = tag;
        observed_addr = addr;
      });
  RemoteBuffer got;
  cluster_.engine().schedule(0, [&] {
    initiator_.request_buffer(1, 4096, [&](RemoteBuffer rb) { got = rb; }, 77);
  });
  cluster_.engine().run();
  EXPECT_EQ(seen_tag, 77u);
  EXPECT_EQ(observed_tag, 77u);
  EXPECT_EQ(observed_addr, got.addr);
}

TEST_F(RdmaTest, PutMovesRealBytes) {
  std::vector<std::byte> target_mem(8192, std::byte{0});
  std::uint64_t addr = 0;
  cluster_.engine().schedule(0, [&] {
    target_.register_region(target_mem, 0, [&](std::uint64_t a) { addr = a; });
  });
  cluster_.engine().run();

  std::vector<std::byte> src(5000);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>((i * 7) & 0xff);
  }
  bool done = false;
  cluster_.engine().schedule(0, [&] {
    initiator_.put(RemoteBuffer{1, addr, 8192}, 1024, src.data(), src.size(),
                   [&] { done = true; });
  });
  cluster_.engine().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(std::memcmp(target_mem.data() + 1024, src.data(), src.size()), 0);
  EXPECT_EQ(target_.region_bytes_received(addr), src.size());
  EXPECT_EQ(counter("rdma.puts_received"), 1u);
}

TEST_F(RdmaTest, PutLocalCompletionNeedsAckRoundTrip) {
  std::uint64_t addr = 0;
  cluster_.engine().schedule(0, [&] {
    target_.register_region({}, 4096, [&](std::uint64_t a) { addr = a; });
  });
  cluster_.engine().run();

  Time done_at = 0;
  const Time start = cluster_.engine().now();
  cluster_.engine().schedule(0, [&] {
    initiator_.put(RemoteBuffer{1, addr, 4096}, 0, nullptr, 4096,
                   [&] { done_at = cluster_.engine().now(); });
  });
  cluster_.engine().run();
  // Must include forward data time plus the return ack: strictly greater
  // than two one-way link latencies + CQ poll.
  EXPECT_GT(done_at - start,
            4 * (100 * kNanosecond) + target_.params().cq_poll);
  EXPECT_EQ(counter("rdma.put_acks"), 1u);  // ack observed at initiator
  EXPECT_EQ(counter("rdma.puts_received"), 1u);
}

TEST_F(RdmaTest, LastBytePollFiresCompleteUnderInOrderDelivery) {
  std::uint64_t addr = 0;
  cluster_.engine().schedule(0, [&] {
    target_.register_region({}, 64 * KiB, [&](std::uint64_t a) { addr = a; });
  });
  cluster_.engine().run();

  std::uint64_t seen_bytes = 0;
  Time fired_at = 0;
  cluster_.engine().schedule(0, [&] {
    target_.arm_last_byte_poll(addr, 64 * KiB, [&](Time, std::uint64_t seen) {
      seen_bytes = seen;
      fired_at = cluster_.engine().now();
    });
    initiator_.put(RemoteBuffer{1, addr, 64 * KiB}, 0, nullptr, 64 * KiB, {});
  });
  cluster_.engine().run();
  EXPECT_EQ(seen_bytes, 64u * KiB);  // star topology: in-order, no corruption
  EXPECT_GT(fired_at, 0u);
  EXPECT_EQ(counter("rdma.premature_flag_fires"), 0u);
}

TEST_F(RdmaTest, SendRecvThroughCq) {
  Completion entry;
  bool got = false;
  cluster_.engine().schedule(0, [&] {
    target_.post_recv([&](const Completion& c) {
      entry = c;
      got = true;
    });
    initiator_.send(1, 0xdead);
  });
  cluster_.engine().run();
  ASSERT_TRUE(got);
  EXPECT_EQ(entry.peer, 0);
  EXPECT_EQ(entry.imm, 0xdeadu);
  EXPECT_EQ(counter("rdma.sends_received"), 1u);
}

TEST_F(RdmaTest, CqBuffersEntriesUntilPolled) {
  cluster_.engine().schedule(0, [&] {
    initiator_.send(1, 1);
    initiator_.send(1, 2);
  });
  cluster_.engine().run();  // both arrive, nobody polling

  std::vector<std::uint64_t> imms;
  cluster_.engine().schedule(0, [&] {
    target_.post_recv([&](const Completion& c) { imms.push_back(c.imm); });
    target_.post_recv([&](const Completion& c) { imms.push_back(c.imm); });
  });
  cluster_.engine().run();
  EXPECT_EQ(imms, (std::vector<std::uint64_t>{1, 2}));  // FIFO
}

TEST_F(RdmaTest, WriteImmRespectsPayloadLimit) {
  std::uint64_t addr = 0;
  cluster_.engine().schedule(0, [&] {
    target_.register_region({}, 4096, [&](std::uint64_t a) { addr = a; });
  });
  cluster_.engine().run();
  const RemoteBuffer rb{1, addr, 4096};
  EXPECT_EQ(initiator_.write_with_imm(rb, 0, nullptr, 65, 9),
            Status::kInvalidArg);  // paper: payloads typically < 64 B
  EXPECT_EQ(initiator_.write_with_imm(rb, 4090, nullptr, 32, 9),
            Status::kOverflow);
  EXPECT_EQ(initiator_.write_with_imm(rb, 0, nullptr, 32, 9), Status::kOk);

  Completion entry;
  cluster_.engine().schedule(0, [&] {
    target_.post_recv([&](const Completion& c) { entry = c; });
  });
  cluster_.engine().run();
  EXPECT_EQ(entry.imm, 9u);
}

TEST_F(RdmaTest, GetFetchesRemoteData) {
  std::vector<std::byte> target_mem(4096);
  for (std::size_t i = 0; i < target_mem.size(); ++i) {
    target_mem[i] = static_cast<std::byte>(i & 0xff);
  }
  std::uint64_t addr = 0;
  cluster_.engine().schedule(0, [&] {
    target_.register_region(target_mem, 0, [&](std::uint64_t a) { addr = a; });
  });
  cluster_.engine().run();

  std::vector<std::byte> local(1024, std::byte{0});
  bool done = false;
  cluster_.engine().schedule(0, [&] {
    initiator_.get(RemoteBuffer{1, addr, 4096}, 512, local.data(), 1024,
                   [&] { done = true; });
  });
  cluster_.engine().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(std::memcmp(local.data(), target_mem.data() + 512, 1024), 0);
}

TEST_F(RdmaTest, MultipleConcurrentHandshakes) {
  target_.serve_buffer_requests(
      [](std::uint64_t, std::uint64_t) { return std::span<std::byte>{}; });
  std::vector<RemoteBuffer> bufs;
  cluster_.engine().schedule(0, [&] {
    for (int i = 0; i < 4; ++i) {
      initiator_.request_buffer(1, 4096 * (i + 1),
                                [&](RemoteBuffer rb) { bufs.push_back(rb); });
    }
  });
  cluster_.engine().run();
  ASSERT_EQ(bufs.size(), 4u);
  // Distinct regions.
  for (std::size_t i = 1; i < bufs.size(); ++i) {
    EXPECT_NE(bufs[i].addr, bufs[i - 1].addr);
  }
}

// Premature last-byte completion under adaptive routing: the corruption
// scenario from paper §II / §V-A1. Uses the HyperX disjoint-path setup to
// force the watched final packet ahead of earlier payload packets.
TEST(RdmaAdaptive, LastBytePollFiresPrematurely) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kHyperX;
  cfg.routing = net::Routing::kAdaptive;
  cfg.hx_l1 = 4;
  cfg.hx_l2 = 4;
  cfg.link.bw = Bandwidth::gbps(100);
  cfg.link.latency = 50 * kNanosecond;
  cfg.switch_latency = 50 * kNanosecond;
  cfg.seed = 5;
  nic::NicParams nic_params;
  nic_params.mtu = 1024;
  cluster::Cluster cluster(cfg, nic_params);

  RdmaEndpoint initiator(cluster.nic(0), RdmaParams{});
  RdmaEndpoint target(cluster.nic(15), RdmaParams{});
  RdmaEndpoint cross_src(cluster.nic(3), RdmaParams{});

  std::uint64_t addr = 0, cross_addr = 0;
  cluster.engine().schedule(0, [&] {
    target.register_region({}, 64 * KiB, [&](std::uint64_t a) { addr = a; });
    target.register_region({}, 1 * MiB,
                           [&](std::uint64_t a) { cross_addr = a; });
  });
  cluster.engine().run();

  // The watched transfer's packets alternate between the two disjoint
  // corner-to-corner paths ((0,0)->(3,0)->(3,3) and (0,0)->(0,3)->(3,3)).
  // Cross traffic 3 -> 15 is forced onto (0,3)->(3,3), stalling the odd
  // (dim1-first) packets. 31 packets make the flag-carrying final packet
  // even-parity, i.e. on the fast path — it lands while odd packets are
  // still queued, firing the poll prematurely.
  const std::uint64_t watched_bytes = 31 * 1024;
  std::uint64_t seen = 0;
  bool fired = false;
  cluster.engine().schedule(0, [&] {
    cross_src.put(RemoteBuffer{15, cross_addr, 1 * MiB}, 0, nullptr, 160 * KiB,
                  {});
    target.arm_last_byte_poll(addr, watched_bytes,
                              [&](Time, std::uint64_t s) {
                                seen = s;
                                fired = true;
                              });
    initiator.put(RemoteBuffer{15, addr, 64 * KiB}, 0, nullptr, watched_bytes,
                  {});
  });
  cluster.engine().run();
  ASSERT_TRUE(fired);
  // The flag byte arrived before all payload: premature completion.
  EXPECT_LT(seen, watched_bytes);
  EXPECT_GE(cluster.collect_metrics().counters.at("rdma.premature_flag_fires"),
            1u);
}

}  // namespace
}  // namespace rvma::rdma
