// Network substrate tests: fabric mechanics, topology wiring, routing
// properties (reachability, hop bounds, static in-order delivery, adaptive
// reordering), parameterized across all four paper topologies.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "net/topologies.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"

namespace rvma::net {
namespace {

NetworkConfig base_config(TopologyKind kind, Routing routing, int nodes) {
  NetworkConfig cfg;
  cfg.topology = kind;
  cfg.routing = routing;
  cfg.nodes_hint = nodes;
  cfg.link.bw = Bandwidth::gbps(100);
  cfg.link.latency = 50 * kNanosecond;
  cfg.switch_latency = 50 * kNanosecond;
  cfg.seed = 12345;
  return cfg;
}

Packet make_packet(NodeId src, NodeId dst, std::uint32_t bytes, MsgId id,
                   std::uint32_t seq = 0, std::uint32_t total = 1) {
  Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.id = id;
  msg.bytes = bytes;
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.msg = net::MsgRef::make(std::move(msg));
  pkt.bytes = bytes;
  pkt.seq = seq;
  pkt.total = total;
  return pkt;
}

// ------------------------------------------------------------------ fabric

TEST(Fabric, SingleSwitchDelivery) {
  sim::Engine engine;
  Network net(engine, base_config(TopologyKind::kStar, Routing::kStatic, 4));
  ASSERT_EQ(net.num_nodes(), 4);

  int delivered = 0;
  Time arrival = 0;
  for (NodeId n = 0; n < 4; ++n) {
    net.set_delivery(n, [&, n](Packet&& pkt) {
      EXPECT_EQ(pkt.dst, n);
      ++delivered;
      arrival = engine.now();
    });
  }
  net.inject(make_packet(0, 3, 1000, 1));
  engine.run();
  EXPECT_EQ(delivered, 1);
  // injection ser + link + switch + xbar ser + ejection ser + link > 0.
  EXPECT_GT(arrival, 2 * 50 * kNanosecond);
}

TEST(Fabric, SerializationPacesBackToBackPackets) {
  sim::Engine engine;
  Network net(engine, base_config(TopologyKind::kStar, Routing::kStatic, 2));
  std::vector<Time> arrivals;
  net.set_delivery(0, [](Packet&&) {});
  net.set_delivery(1, [&](Packet&&) { arrivals.push_back(engine.now()); });
  // 12500-byte packets at 100 Gbps serialize in 1 us each.
  for (int i = 0; i < 3; ++i) {
    net.inject(make_packet(0, 1, 12500 - 32, static_cast<MsgId>(i + 1)));
  }
  engine.run();
  ASSERT_EQ(arrivals.size(), 3u);
  const Time gap1 = arrivals[1] - arrivals[0];
  const Time gap2 = arrivals[2] - arrivals[1];
  EXPECT_NEAR(static_cast<double>(gap1), static_cast<double>(kMicrosecond),
              static_cast<double>(kMicrosecond) * 0.01);
  EXPECT_EQ(gap1, gap2);
}

TEST(Fabric, StatsAccumulate) {
  sim::Engine engine;
  Network net(engine, base_config(TopologyKind::kStar, Routing::kStatic, 3));
  for (NodeId n = 0; n < 3; ++n) net.set_delivery(n, [](Packet&&) {});
  net.inject(make_packet(0, 1, 100, 1));
  net.inject(make_packet(1, 2, 100, 2));
  engine.run();
  EXPECT_EQ(net.fabric().stats().packets_injected, 2u);
  EXPECT_EQ(net.fabric().stats().packets_delivered, 2u);
  EXPECT_EQ(net.fabric().stats().total_hops, 2u);  // one switch each
}

// -------------------------------------------------------- topology sizing

TEST(TopologySizing, MeetsNodeHints) {
  for (const TopologyKind kind :
       {TopologyKind::kTorus3D, TopologyKind::kFatTree, TopologyKind::kDragonfly,
        TopologyKind::kHyperX}) {
    for (const int hint : {8, 64, 200}) {
      const auto topo = make_topology(base_config(kind, Routing::kStatic, hint));
      EXPECT_GE(topo->num_nodes(), hint)
          << to_string(kind) << " hint=" << hint;
    }
  }
}

TEST(TopologySizing, ExplicitShapes) {
  NetworkConfig cfg = base_config(TopologyKind::kTorus3D, Routing::kStatic, 0);
  cfg.torus_x = 4;
  cfg.torus_y = 3;
  cfg.torus_z = 2;
  cfg.concentration = 2;
  EXPECT_EQ(make_topology(cfg)->num_nodes(), 4 * 3 * 2 * 2);

  cfg = base_config(TopologyKind::kFatTree, Routing::kStatic, 0);
  cfg.fat_k = 4;
  EXPECT_EQ(make_topology(cfg)->num_nodes(), 16);  // k^3/4

  cfg = base_config(TopologyKind::kDragonfly, Routing::kStatic, 0);
  cfg.df_p = 2;
  cfg.df_a = 4;
  cfg.df_h = 2;
  EXPECT_EQ(make_topology(cfg)->num_nodes(), (4 * 2 + 1) * 4 * 2);  // g*a*p

  cfg = base_config(TopologyKind::kHyperX, Routing::kStatic, 0);
  cfg.hx_l1 = 3;
  cfg.hx_l2 = 5;
  cfg.concentration = 4;
  EXPECT_EQ(make_topology(cfg)->num_nodes(), 3 * 5 * 4);
}

// ------------------------------------------------- parameterized routing

struct RouteCase {
  TopologyKind kind;
  Routing routing;
  int nodes;
  int max_hops;  // switch hops incl. ejection-switch, with detour slack
};

class RoutingTest : public ::testing::TestWithParam<RouteCase> {};

TEST_P(RoutingTest, AllSampledPairsReachable) {
  const RouteCase& rc = GetParam();
  sim::Engine engine;
  Network net(engine, base_config(rc.kind, rc.routing, rc.nodes));
  const int n = net.num_nodes();

  std::map<MsgId, NodeId> expect;
  int delivered = 0;
  int max_hops_seen = 0;
  for (NodeId node = 0; node < n; ++node) {
    net.set_delivery(node, [&, node](Packet&& pkt) {
      ASSERT_TRUE(expect.contains(pkt.msg->id));
      EXPECT_EQ(expect[pkt.msg->id], node);
      max_hops_seen = std::max(max_hops_seen, static_cast<int>(pkt.hops));
      ++delivered;
    });
  }

  MsgId id = 1;
  int sent = 0;
  const int stride = std::max(1, n / 17);
  for (NodeId src = 0; src < n; src += stride) {
    for (NodeId dst = 0; dst < n; dst += stride) {
      if (src == dst) continue;
      expect[id] = dst;
      net.inject(make_packet(src, dst, 256, id));
      ++id;
      ++sent;
    }
  }
  engine.run();
  EXPECT_EQ(delivered, sent);
  EXPECT_LE(max_hops_seen, rc.max_hops) << to_string(rc.kind);
}

TEST_P(RoutingTest, StaticDeliversInOrderPerPair) {
  const RouteCase& rc = GetParam();
  if (rc.routing != Routing::kStatic) GTEST_SKIP();
  sim::Engine engine;
  Network net(engine, base_config(rc.kind, rc.routing, rc.nodes));
  const int n = net.num_nodes();
  const NodeId src = 0, dst = static_cast<NodeId>(n - 1);

  std::vector<MsgId> order;
  for (NodeId node = 0; node < n; ++node) {
    net.set_delivery(node, [&](Packet&& pkt) { order.push_back(pkt.msg->id); });
  }
  for (MsgId id = 1; id <= 40; ++id) {
    net.inject(make_packet(src, dst, 1024, id));
  }
  engine.run();
  ASSERT_EQ(order.size(), 40u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i + 1) << "static routing must preserve order";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, RoutingTest,
    ::testing::Values(
        RouteCase{TopologyKind::kStar, Routing::kStatic, 8, 1},
        RouteCase{TopologyKind::kTorus3D, Routing::kStatic, 27, 7},
        RouteCase{TopologyKind::kTorus3D, Routing::kAdaptive, 27, 7},
        RouteCase{TopologyKind::kTorus3D, Routing::kStatic, 64, 8},
        RouteCase{TopologyKind::kTorus3D, Routing::kAdaptive, 64, 8},
        RouteCase{TopologyKind::kFatTree, Routing::kStatic, 16, 5},
        RouteCase{TopologyKind::kFatTree, Routing::kAdaptive, 16, 5},
        RouteCase{TopologyKind::kFatTree, Routing::kStatic, 128, 5},
        RouteCase{TopologyKind::kFatTree, Routing::kAdaptive, 128, 5},
        RouteCase{TopologyKind::kDragonfly, Routing::kStatic, 72, 5},
        RouteCase{TopologyKind::kDragonfly, Routing::kAdaptive, 72, 9},
        RouteCase{TopologyKind::kDragonfly, Routing::kStatic, 342, 5},
        RouteCase{TopologyKind::kDragonfly, Routing::kAdaptive, 342, 9},
        RouteCase{TopologyKind::kHyperX, Routing::kStatic, 16, 3},
        RouteCase{TopologyKind::kHyperX, Routing::kAdaptive, 16, 3},
        RouteCase{TopologyKind::kHyperX, Routing::kStatic, 100, 3},
        RouteCase{TopologyKind::kHyperX, Routing::kAdaptive, 100, 3}),
    [](const ::testing::TestParamInfo<RouteCase>& info) {
      return to_string(info.param.kind) + "_" + to_string(info.param.routing) +
             "_" + std::to_string(info.param.nodes);
    });

// --------------------------------------------- adaptive actually reorders

TEST(AdaptiveRouting, ReordersUnderCongestion) {
  // HyperX corner-to-corner (0,0) -> (3,3): the two minimal route shapes
  // (dim0-first via (3,0), dim1-first via (0,3)) are disjoint. Congesting
  // the dim1-first path's second hop makes packets that adaptively chose
  // dim1 arrive far later than younger packets that chose dim0.
  NetworkConfig cfg = base_config(TopologyKind::kHyperX, Routing::kAdaptive, 0);
  cfg.hx_l1 = 4;
  cfg.hx_l2 = 4;
  sim::Engine engine;
  Network net(engine, cfg);
  const int n = net.num_nodes();

  std::vector<std::uint32_t> arrivals;  // seq numbers of the watched message
  for (NodeId node = 0; node < n; ++node) {
    net.set_delivery(node, [&, node](Packet&& pkt) {
      if (node == 15 && pkt.msg->id == 999) arrivals.push_back(pkt.seq);
    });
  }

  // Cross flow node 3 (switch (0,3)) -> node 15: forced onto (0,3)'s dim0
  // port, the watched flow's dim1-first second hop.
  for (int i = 0; i < 20; ++i) {
    net.inject(make_packet(3, 15, 8000, static_cast<MsgId>(i + 1)));
  }
  // The watched multi-packet "message" 0 -> 15 (corner to corner).
  Message watched;
  watched.src = 0;
  watched.dst = 15;
  watched.id = 999;
  watched.bytes = 32 * 1024;
  const net::MsgRef msg = net::MsgRef::make(std::move(watched));
  for (std::uint32_t seq = 0; seq < 32; ++seq) {
    Packet pkt;
    pkt.src = 0;
    pkt.dst = 15;
    pkt.msg = msg;
    pkt.bytes = 1024;
    pkt.offset = seq * 1024;
    pkt.seq = seq;
    pkt.total = 32;
    net.inject(std::move(pkt));
  }
  engine.run();
  ASSERT_EQ(arrivals.size(), 32u);
  bool reordered = false;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i] < arrivals[i - 1]) reordered = true;
  }
  EXPECT_TRUE(reordered)
      << "adaptive routing under congestion should reorder packets";
}

// --------------------------------------------------- topology internals

TEST(Dragonfly, CanonicalGlobalWiringConsistent) {
  NetworkConfig cfg = base_config(TopologyKind::kDragonfly, Routing::kStatic, 0);
  cfg.df_p = 2;
  cfg.df_a = 4;
  cfg.df_h = 2;
  sim::Engine engine;
  Network net(engine, cfg);  // Network::check_wired aborts on bad wiring
  DragonflyTopology& topo = static_cast<DragonflyTopology&>(net.topology());
  EXPECT_EQ(topo.groups(), 9);
  EXPECT_EQ(topo.switches_per_group(), 4);
  EXPECT_EQ(net.fabric().num_switches(), 36);
}

TEST(Dragonfly, ValiantGroupIgnoresRoutingHistory) {
  // UGAL-lite's Valiant group is a hash of the packet, not a draw from a
  // stream: routing other packets first must not change which groups a
  // burst detours through. Nodes 0 and 1 share switch 0 and flood group
  // 1 through its one global link, so the backlog pushes some packets
  // onto Valiant detours, whose group the delivered packet carries in
  // rt_aux. The later networks first route (and drain) a prelude of 1
  // or 17 inter-group packets elsewhere in the machine.
  NetworkConfig cfg =
      base_config(TopologyKind::kDragonfly, Routing::kAdaptive, 0);
  cfg.df_p = 2;
  cfg.df_a = 4;
  cfg.df_h = 2;  // 9 groups of 4 switches, 72 nodes
  auto burst_groups = [&](int prelude) {
    sim::Engine engine;
    Network net(engine, cfg);
    std::map<MsgId, std::int32_t> groups;
    for (NodeId node = 0; node < net.num_nodes(); ++node) {
      net.set_delivery(node, [&](Packet&& pkt) {
        if (pkt.msg->id < 1000) groups[pkt.msg->id] = pkt.rt_aux;
      });
    }
    for (int i = 0; i < prelude; ++i) {  // group 2 -> groups 7/8, one by one
      net.inject(make_packet(20 + i % 4, 60 + i % 8, 4096,
                             static_cast<MsgId>(1000 + i)));
      engine.run();
    }
    for (MsgId id = 1; id <= 32; ++id) {
      net.inject(make_packet(static_cast<NodeId>(id % 2),
                             static_cast<NodeId>(8 + id % 8), 4096, id));
    }
    engine.run();
    return groups;
  };
  const std::map<MsgId, std::int32_t> fresh = burst_groups(0);
  ASSERT_EQ(fresh.size(), 32u);
  std::map<std::int32_t, int> detours;
  for (const auto& [id, group] : fresh) {
    if (group >= 0) ++detours[group];
  }
  ASSERT_GE(detours.size(), 2u) << "the burst should detour via several groups";
  EXPECT_EQ(burst_groups(1), fresh);
  EXPECT_EQ(burst_groups(17), fresh);
}

TEST(FatTree, SwitchCounts) {
  NetworkConfig cfg = base_config(TopologyKind::kFatTree, Routing::kStatic, 0);
  cfg.fat_k = 4;
  sim::Engine engine;
  Network net(engine, cfg);
  // k=4: 8 edges + 8 aggs + 4 cores.
  EXPECT_EQ(net.fabric().num_switches(), 20);
}

TEST(Torus, WrapAroundShortestPath) {
  NetworkConfig cfg = base_config(TopologyKind::kTorus3D, Routing::kStatic, 0);
  cfg.torus_x = 8;
  cfg.torus_y = 2;
  cfg.torus_z = 2;
  sim::Engine engine;
  Network net(engine, cfg);
  int hops = -1;
  for (NodeId node = 0; node < net.num_nodes(); ++node) {
    net.set_delivery(node, [&](Packet&& pkt) { hops = pkt.hops; });
  }
  // x=0 -> x=7 should wrap (1 x-hop) not go the long way (7 hops).
  // node ids: (x*2 + y)*2 + z ; src (0,0,0)=0, dst (7,0,0)=28.
  net.inject(make_packet(0, 28, 64, 1));
  engine.run();
  EXPECT_EQ(hops, 2);  // src switch (x wrap) + dst switch ejection
}

}  // namespace
}  // namespace rvma::net
