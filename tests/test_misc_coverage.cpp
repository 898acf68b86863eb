// Edge-case coverage across small surfaces: invalid handles, formatting
// extremes, empty tables, asymmetric topologies, and endpoint corner
// states not exercised elsewhere.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/endpoint.hpp"
#include "net/topologies.hpp"

namespace rvma {
namespace {

TEST(MiscUnits, FormatExtremes) {
  EXPECT_EQ(format_time(0), "0.00 ps");
  EXPECT_EQ(format_time(2 * kSecond), "2.00 s");
  EXPECT_EQ(format_size(1), "1 B");
  EXPECT_EQ(format_size(5 * GiB), "5 GiB");
  EXPECT_EQ(format_size(1536), "1536 B");  // not a whole KiB
  EXPECT_EQ(format_bandwidth(Bandwidth::mbps(500)), "500 Mbps");
}

TEST(MiscTable, EmptyTableStillRendersHeader) {
  Table t({"a", "b"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find('a'), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(MiscTable, ShortRowsPadded) {
  Table t({"x", "y", "z"});
  t.add_row({"only-one"});
  EXPECT_NE(t.to_string().find("only-one"), std::string::npos);
}

TEST(MiscWindow, DefaultHandleInvalid) {
  core::Window win;
  EXPECT_FALSE(win.valid());
  EXPECT_EQ(win.vaddr(), 0u);
}

TEST(MiscTopology, AsymmetricTorusRoutes) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kTorus3D;
  cfg.torus_x = 5;
  cfg.torus_y = 2;
  cfg.torus_z = 3;
  cfg.routing = net::Routing::kAdaptive;
  sim::Engine engine;
  net::Network net(engine, cfg);
  ASSERT_EQ(net.num_nodes(), 30);

  int delivered = 0;
  for (net::NodeId n = 0; n < 30; ++n) {
    net.set_delivery(n, [&](net::Packet&&) { ++delivered; });
  }
  net::Message msg;
  msg.src = 0;
  msg.dst = 29;
  msg.id = 1;
  net::Packet pkt;
  pkt.src = 0;
  pkt.dst = 29;
  pkt.msg = net::MsgRef::make(std::move(msg));
  pkt.bytes = 64;
  net.inject(std::move(pkt));
  engine.run();
  EXPECT_EQ(delivered, 1);
}

TEST(MiscTopology, AsymmetricHyperX) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kHyperX;
  cfg.hx_l1 = 2;
  cfg.hx_l2 = 7;
  sim::Engine engine;
  net::Network net(engine, cfg);
  EXPECT_EQ(net.num_nodes(), 14);
  EXPECT_EQ(net.fabric().num_switches(), 14);
}

TEST(MiscEndpoint, ReinitExistingWindowKeepsState) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kStar;
  cfg.nodes_hint = 2;
  cluster::Cluster cluster(cfg, nic::NicParams{});
  core::RvmaEndpoint sender(cluster.nic(0), core::RvmaParams{});
  core::RvmaEndpoint receiver(cluster.nic(1), core::RvmaParams{});

  receiver.init_window(0x9, 16, core::EpochType::kBytes);
  receiver.post_buffer_timing_only(0x9, 16);
  sender.put(1, 0x9, 0, nullptr, 16);
  cluster.engine().run();
  ASSERT_EQ(receiver.completions(0x9), 1u);

  // Re-init with different params: the existing mailbox (and its epoch
  // history) is preserved, per the idempotent-init contract.
  core::Window again =
      receiver.init_window(0x9, 9999, core::EpochType::kOps);
  EXPECT_EQ(again.epoch(), 1);
  EXPECT_EQ(again.completions(), 1u);
}

TEST(MiscEndpoint, ZeroByteOpsPutCountsAsOperation) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kStar;
  cfg.nodes_hint = 2;
  cluster::Cluster cluster(cfg, nic::NicParams{});
  core::RvmaEndpoint sender(cluster.nic(0), core::RvmaParams{});
  core::RvmaEndpoint receiver(cluster.nic(1), core::RvmaParams{});

  receiver.init_window(0x9, 2, core::EpochType::kOps);
  receiver.post_buffer_timing_only(0x9, 64);
  sender.put(1, 0x9, 0, nullptr, 0);  // zero-byte signal put
  sender.put(1, 0x9, 0, nullptr, 0);
  cluster.engine().run();
  EXPECT_EQ(receiver.completions(0x9), 1u);  // 2 ops -> epoch complete
  EXPECT_EQ(cluster.collect_metrics().counters.at("rvma.puts_received"), 2u);
}

TEST(MiscEndpoint, CatchAllDoesNotShadowRealMailboxes) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kStar;
  cfg.nodes_hint = 2;
  cluster::Cluster cluster(cfg, nic::NicParams{});
  core::RvmaEndpoint sender(cluster.nic(0), core::RvmaParams{});
  core::RvmaEndpoint receiver(cluster.nic(1), core::RvmaParams{});

  receiver.init_catch_all(1, core::EpochType::kOps);
  receiver.post_buffer_timing_only(core::kCatchAllVaddr, 1 * MiB);
  receiver.init_window(0x1, 8, core::EpochType::kBytes);
  receiver.post_buffer_timing_only(0x1, 8);

  sender.put(1, 0x1, 0, nullptr, 8);  // matched: must NOT hit catch-all
  cluster.engine().run();
  EXPECT_EQ(receiver.completions(0x1), 1u);
  EXPECT_EQ(cluster.collect_metrics().counters.at("rvma.catch_all_packets"),
            0u);
}

TEST(MiscEngine, RunOnEmptyEngineReturnsNow) {
  sim::Engine engine;
  EXPECT_EQ(engine.run(), 0u);
  engine.schedule_at(10, [] {});
  engine.run();
  EXPECT_EQ(engine.run(), 10u);  // idempotent on drained queue
}

}  // namespace
}  // namespace rvma
