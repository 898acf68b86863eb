// NIC model tests: segmentation, host-cost charging, protocol dispatch,
// message ids, payload slicing, cluster assembly.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cluster/cluster.hpp"

namespace rvma::nic {
namespace {

net::NetworkConfig star(int nodes) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kStar;
  cfg.nodes_hint = nodes;
  cfg.link.bw = Bandwidth::gbps(100);
  cfg.link.latency = 100 * kNanosecond;
  cfg.switch_latency = 100 * kNanosecond;
  return cfg;
}

class NicTest : public ::testing::Test {
 protected:
  NicTest() : cluster_(star(2), NicParams{}) {}
  cluster::Cluster cluster_;
};

TEST_F(NicTest, SegmentsIntoMtuPackets) {
  std::vector<net::Packet> received;
  cluster_.nic(1).register_proto(kProtoRdma, [&](const net::Packet& pkt) {
    received.push_back(pkt);
  });
  net::Message msg;
  msg.dst = 1;
  msg.bytes = 4096 * 3 + 100;  // 4 packets at MTU 4096
  msg.hdr.kind = net::make_kind(kProtoRdma, 1);
  cluster_.nic(0).send(std::move(msg));
  cluster_.engine().run();

  ASSERT_EQ(received.size(), 4u);
  std::uint64_t total = 0;
  for (const auto& pkt : received) {
    EXPECT_EQ(pkt.total, 4u);
    total += pkt.bytes;
  }
  EXPECT_EQ(total, 4096u * 3 + 100);
  EXPECT_EQ(received.back().bytes, 100u);
  EXPECT_EQ(received.back().offset, 4096u * 3);
}

TEST_F(NicTest, ZeroByteMessageStillOnePacket) {
  int count = 0;
  cluster_.nic(1).register_proto(kProtoRdma,
                                 [&](const net::Packet&) { ++count; });
  net::Message msg;
  msg.dst = 1;
  msg.bytes = 0;
  msg.hdr.kind = net::make_kind(kProtoRdma, 1);
  cluster_.nic(0).send(std::move(msg));
  cluster_.engine().run();
  EXPECT_EQ(count, 1);
}

TEST_F(NicTest, ChargesHostAndPcieBeforeWire) {
  Time delivered_at = 0;
  cluster_.nic(1).register_proto(kProtoRdma, [&](const net::Packet&) {
    delivered_at = cluster_.engine().now();
  });
  net::Message msg;
  msg.dst = 1;
  msg.bytes = 8;
  msg.hdr.kind = net::make_kind(kProtoRdma, 1);
  cluster_.nic(0).send(std::move(msg));
  cluster_.engine().run();
  const NicParams& p = cluster_.nic(0).params();
  // Lower bound: host + pcie + 2 link latencies + switch latency + rx_proc.
  EXPECT_GT(delivered_at, p.host_overhead + p.pcie_latency +
                              2 * (100 * kNanosecond) + 100 * kNanosecond);
}

TEST_F(NicTest, SendDoneFiresAfterInjection) {
  Time sent_at = 0;
  net::Message msg;
  msg.dst = 1;
  msg.bytes = 64;
  msg.hdr.kind = net::make_kind(kProtoRdma, 1);
  cluster_.nic(1).register_proto(kProtoRdma, [](const net::Packet&) {});
  cluster_.nic(0).send(std::move(msg),
                       [&] { sent_at = cluster_.engine().now(); });
  cluster_.engine().run();
  const NicParams& p = cluster_.nic(0).params();
  EXPECT_EQ(sent_at, p.host_overhead + p.pcie_latency);
}

TEST_F(NicTest, TxQueueStallsAndDrainsUnderTightAdmission) {
  // A transmit-queue limit of one MTU serialization forces every message
  // after the first into the queue: admission must stall them (counted
  // once per queued message), the drain loop must recompute the backlog
  // only after injections actually move the link, and every message must
  // still reach the receiver in order.
  NicParams params;
  params.tx_queue_limit = Bandwidth::gbps(100).serialize(4096);
  cluster::Cluster cluster(star(2), params);
  std::vector<std::uint32_t> arrival_order;
  cluster.nic(1).register_proto(kProtoRdma, [&](const net::Packet& pkt) {
    if (pkt.seq + 1 == pkt.total) {
      arrival_order.push_back(static_cast<std::uint32_t>(pkt.msg->id & 0xff));
    }
  });
  constexpr int kMessages = 6;
  for (int i = 0; i < kMessages; ++i) {
    net::Message msg;
    msg.dst = 1;
    msg.bytes = 3 * 4096;  // three packets: each message overruns the limit
    msg.hdr.kind = net::make_kind(kProtoRdma, 1);
    cluster.nic(0).send(std::move(msg));
  }
  cluster.engine().run();

  ASSERT_EQ(arrival_order.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(arrival_order[static_cast<std::size_t>(i)],
              arrival_order[0] + static_cast<std::uint32_t>(i))
        << "FIFO order violated";
  }
  // All but the first message stalled exactly once.
  EXPECT_EQ(cluster.metrics().counter("nic.tx_queue_stalls").value(),
            static_cast<std::uint64_t>(kMessages - 1));
  EXPECT_EQ(cluster.nic(0).tx_queue_depth(), 0);
}

TEST_F(NicTest, AssignsDistinctMessageIds) {
  std::vector<net::MsgId> ids;
  cluster_.nic(1).register_proto(kProtoRdma, [&](const net::Packet& pkt) {
    if (pkt.seq == 0) ids.push_back(pkt.msg->id);
  });
  for (int i = 0; i < 5; ++i) {
    net::Message msg;
    msg.dst = 1;
    msg.bytes = 8;
    msg.hdr.kind = net::make_kind(kProtoRdma, 1);
    cluster_.nic(0).send(std::move(msg));
  }
  cluster_.engine().run();
  ASSERT_EQ(ids.size(), 5u);
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_NE(ids[i], ids[i - 1]);
  }
}

TEST_F(NicTest, DispatchesByProtocolClass) {
  int rdma_count = 0, rvma_count = 0;
  cluster_.nic(1).register_proto(kProtoRdma,
                                 [&](const net::Packet&) { ++rdma_count; });
  cluster_.nic(1).register_proto(kProtoRvma,
                                 [&](const net::Packet&) { ++rvma_count; });
  for (std::uint32_t proto : {kProtoRdma, kProtoRvma, kProtoRvma}) {
    net::Message msg;
    msg.dst = 1;
    msg.bytes = 8;
    msg.hdr.kind = net::make_kind(proto, 1);
    cluster_.nic(0).send(std::move(msg));
  }
  cluster_.engine().run();
  EXPECT_EQ(rdma_count, 1);
  EXPECT_EQ(rvma_count, 2);
}

TEST_F(NicTest, PayloadSlicesMatchOffsets) {
  std::vector<std::byte> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 31 % 251);
  }
  bool all_match = true;
  cluster_.nic(1).register_proto(kProtoRdma, [&](const net::Packet& pkt) {
    for (std::uint32_t i = 0; i < pkt.bytes; ++i) {
      if (pkt.msg->data[pkt.offset + i] != data[pkt.offset + i]) {
        all_match = false;
      }
    }
  });
  net::Message msg;
  msg.dst = 1;
  msg.bytes = data.size();
  msg.data = data.data();
  msg.hdr.kind = net::make_kind(kProtoRdma, 1);
  cluster_.nic(0).send(std::move(msg));
  cluster_.engine().run();
  EXPECT_TRUE(all_match);
}

TEST(ClusterTest, BuildsNicPerNode) {
  cluster::Cluster cluster(star(5), NicParams{});
  EXPECT_EQ(cluster.num_nodes(), 5);
  for (int n = 0; n < 5; ++n) {
    EXPECT_EQ(cluster.nic(n).node(), n);
  }
}

TEST(ClusterTest, CustomMtu) {
  NicParams params;
  params.mtu = 256;
  cluster::Cluster cluster(star(2), params);
  int packets = 0;
  cluster.nic(1).register_proto(kProtoRdma,
                                [&](const net::Packet&) { ++packets; });
  net::Message msg;
  msg.dst = 1;
  msg.bytes = 1024;
  msg.hdr.kind = net::make_kind(kProtoRdma, 1);
  cluster.nic(0).send(std::move(msg));
  cluster.engine().run();
  EXPECT_EQ(packets, 4);
}

}  // namespace
}  // namespace rvma::nic
