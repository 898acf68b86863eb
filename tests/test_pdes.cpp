// Sharded parallel engine (PDES) tests: ShardedEngine window mechanics,
// the Cluster's exactness clamps, and the headline guarantee — a windowed
// K-shard run reproduces the serial run's observable results exactly, for
// all five motif transports (DESIGN.md §12).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "motifs/halo3d.hpp"
#include "motifs/rdma_transport.hpp"
#include "motifs/runner.hpp"
#include "motifs/rvma_transport.hpp"
#include "scenario/transports.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"

namespace rvma {
namespace {

using motifs::build_halo3d;
using motifs::Halo3DConfig;
using motifs::MotifResult;
using motifs::MotifRunner;
using motifs::RdmaTransport;
using motifs::RvmaTransport;

// ----------------------------------------------------------- ShardedEngine

TEST(ShardedEngine, RunEndsAtItsLastEventSoTheNextRunAnchorsThere) {
  // Serial reference: the first run's events at 10, 30 and 110, then two
  // relative schedules made between the runs.
  sim::Engine serial;
  for (Time t : {Time{10}, Time{30}, Time{110}}) serial.schedule_at(t, [] {});
  const Time serial_first = serial.run();
  Time serial_a = 0, serial_b = 0;
  serial.schedule(5, [&] { serial_a = serial.now(); });
  serial.schedule(7, [&] { serial_b = serial.now(); });
  const Time serial_second = serial.run();

  // Two shards, scalar lookahead 100: the arrival at 110 runs in the
  // window [110, 210), whose edge carries both clocks to 209 — past the
  // run's last event.
  sim::Engine a, b;
  sim::ShardedEngine se;
  se.attach(&a);
  se.attach(&b);
  se.set_lookahead(100);
  a.schedule_at(10, [&] {
    se.post(0, 1, 110, sim::Callback([&] {
              b.schedule_at_ranked(110, 10, 0, [] {});
            }));
  });
  b.schedule_at(30, [] {});
  const Time first = se.run_windowed();
  EXPECT_EQ(first, 110u);
  EXPECT_EQ(first, serial_first);
  for (sim::Engine* e : {&a, &b}) {
    EXPECT_TRUE(e->empty());
    EXPECT_EQ(e->now(), 110u);
  }
  EXPECT_EQ(a.last_event_time(), 10u);
  EXPECT_EQ(b.last_event_time(), 110u);

  // Relative schedules between the runs anchor at 110 on both shards,
  // where the serial engine put them, not at a window edge.
  Time at_a = 0, at_b = 0;  // one writer each: a's and b's worker
  a.schedule(5, [&] { at_a = a.now(); });
  b.schedule(7, [&] { at_b = b.now(); });
  const Time second = se.run_windowed();
  EXPECT_EQ(at_a, serial_a);
  EXPECT_EQ(at_b, serial_b);
  EXPECT_EQ(at_b, 117u);
  EXPECT_EQ(second, serial_second);
  EXPECT_EQ(a.now(), 117u);
  EXPECT_EQ(b.now(), 117u);

  // A run with nothing pending executes nothing and keeps the clocks.
  EXPECT_EQ(se.run_windowed(), 117u);
  EXPECT_EQ(a.now(), 117u);
}

TEST(ShardedEngine, WindowedRunDrainsCrossShardPostsInOrder) {
  sim::Engine a, b;
  sim::ShardedEngine se;
  se.attach(&a);
  se.attach(&b);
  se.set_lookahead(100);

  // Each shard fires local work, then posts an event into the other
  // shard at now + lookahead — the canonical conservative handoff.
  std::atomic<int> fired{0};
  a.schedule_at(10, [&] {
    se.post(0, 1, 110, sim::Callback([&, when = Time{110}] {
              b.schedule_at_ranked(when, 10, 0, [&] { ++fired; });
            }));
  });
  b.schedule_at(30, [&] {
    se.post(1, 0, 130, sim::Callback([&, when = Time{130}] {
              a.schedule_at_ranked(when, 30, 0, [&] { ++fired; });
            }));
  });

  const Time end = se.run_windowed();
  EXPECT_EQ(fired.load(), 2);
  // The run ends at its last real event, and so do both clocks.
  EXPECT_EQ(end, 130u);
  EXPECT_EQ(a.now(), 130u);
  EXPECT_EQ(b.now(), 130u);
  EXPECT_EQ(a.pending(), 0u);
  EXPECT_EQ(b.pending(), 0u);
}

// ----------------------------------------------------- Cluster shard clamps

net::NetworkConfig torus27(net::Routing routing) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kTorus3D;
  cfg.routing = routing;
  cfg.nodes_hint = 27;
  cfg.link.bw = Bandwidth::gbps(100);
  cfg.seed = 7;
  return cfg;
}

TEST(ClusterSharding, SerialByDefault) {
  cluster::Cluster c(torus27(net::Routing::kStatic), nic::NicParams{});
  EXPECT_FALSE(c.sharded());
  EXPECT_EQ(c.num_shards(), 1);
}

TEST(ClusterSharding, DragonflyAdaptiveShards) {
  // UGAL-lite's Valiant group is a hash of the packet, and its backlog
  // comparison reads only the injection switch's ports, which that
  // switch's shard owns: nothing to clamp, in either routing mode.
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kDragonfly;
  cfg.routing = net::Routing::kAdaptive;
  cfg.nodes_hint = 64;
  cluster::Cluster c(cfg, nic::NicParams{}, 4);
  EXPECT_EQ(c.num_shards(), 4);
  EXPECT_GT(c.lookahead(), 0u);
  cfg.routing = net::Routing::kStatic;
  EXPECT_EQ(cluster::Cluster(cfg, nic::NicParams{}, 4).num_shards(), 4);
}

TEST(ClusterSharding, TorusAdaptiveShards) {
  // Minimal-adaptive torus routing reads only the current switch's port
  // backlogs, which that switch's shard owns: nothing to clamp.
  cluster::Cluster c(torus27(net::Routing::kAdaptive), nic::NicParams{}, 4);
  EXPECT_EQ(c.num_shards(), 4);
  EXPECT_GT(c.lookahead(), 0u);
}

TEST(ClusterSharding, ShardCountClampsToSwitchCount) {
  // 27 switches cannot feed 64 shards; the cluster clamps rather than
  // spinning empty workers.
  cluster::Cluster c(torus27(net::Routing::kStatic), nic::NicParams{}, 64);
  EXPECT_LE(c.num_shards(), 27);
  EXPECT_GT(c.num_shards(), 1);
}

TEST(ClusterSharding, ShardedClusterPartitionsNodes) {
  cluster::Cluster c(torus27(net::Routing::kStatic), nic::NicParams{}, 3);
  ASSERT_EQ(c.num_shards(), 3);
  EXPECT_GT(c.lookahead(), 0u);
  int counts[3] = {0, 0, 0};
  for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
    const int s = c.shard_of_node(n);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 3);
    ++counts[s];
    // engine_for must agree with the shard map.
    EXPECT_EQ(&c.engine_for(n), &c.engine_for_shard(s));
  }
  for (int s = 0; s < 3; ++s) EXPECT_GT(counts[s], 0);
}

// ------------------------------------------- windowed == serial, bit-exact

Halo3DConfig halo27() {
  Halo3DConfig cfg;
  cfg.px = cfg.py = cfg.pz = 3;
  cfg.nx = cfg.ny = cfg.nz = 8;
  cfg.iterations = 2;
  cfg.compute_per_cell = 0;
  return cfg;
}

/// Everything a motif run observes, the engine's event counts included:
/// a sharded run executes exactly the serial run's events (DESIGN.md §12).
struct Observed {
  MotifResult result;
  net::FabricStats fabric;
  obs::MetricsSnapshot metrics;
};

template <typename MakeTransport>
Observed run_halo(int par_shards, MakeTransport make,
                  const net::NetworkConfig& network =
                      torus27(net::Routing::kStatic),
                  const Halo3DConfig& halo = halo27()) {
  cluster::Cluster cluster(network, nic::NicParams{}, par_shards);
  auto transport = make(cluster);
  Observed obs;
  obs.result = MotifRunner(cluster, *transport, build_halo3d(halo)).run();
  obs.fabric = cluster.fabric_stats();
  obs.metrics = cluster.collect_metrics();
  return obs;
}

auto make_rvma = [](cluster::Cluster& c) {
  return std::make_unique<RvmaTransport>(c, core::RvmaParams{});
};
auto make_rdma = [](cluster::Cluster& c) {
  // ordered_network: the test fabric is statically routed.
  return std::make_unique<RdmaTransport>(c, rdma::RdmaParams{}, true);
};

void expect_identical(const Observed& serial, const Observed& sharded) {
  EXPECT_EQ(serial.result.makespan, sharded.result.makespan);
  EXPECT_EQ(serial.result.setup_done, sharded.result.setup_done);
  EXPECT_EQ(serial.result.ops_executed, sharded.result.ops_executed);
  EXPECT_EQ(serial.result.engine_events, sharded.result.engine_events);
  EXPECT_EQ(serial.result.transport.data_messages,
            sharded.result.transport.data_messages);
  EXPECT_EQ(serial.result.transport.control_messages,
            sharded.result.transport.control_messages);
  EXPECT_EQ(serial.result.transport.credit_stalls,
            sharded.result.transport.credit_stalls);
  EXPECT_EQ(serial.fabric.packets_injected, sharded.fabric.packets_injected);
  EXPECT_EQ(serial.fabric.packets_delivered, sharded.fabric.packets_delivered);
  EXPECT_EQ(serial.fabric.total_hops, sharded.fabric.total_hops);
  EXPECT_EQ(serial.fabric.wire_bytes_delivered,
            sharded.fabric.wire_bytes_delivered);
  EXPECT_EQ(serial.fabric.max_port_backlog, sharded.fabric.max_port_backlog);
  EXPECT_TRUE(serial.metrics == sharded.metrics);
}

TEST(PdesExactness, RvmaWindowedMatchesSerial) {
  const Observed serial = run_halo(1, make_rvma);
  for (int k : {2, 3}) {
    SCOPED_TRACE(k);
    const Observed sharded = run_halo(k, make_rvma);
    expect_identical(serial, sharded);
  }
}

TEST(PdesExactness, RdmaWindowedMatchesSerial) {
  // RDMA's small credit/control messages create dense equal-time
  // collisions between cross-shard and local events — the content
  // tie-break's hardest case.
  const Observed serial = run_halo(1, make_rdma);
  for (int k : {2, 3}) {
    SCOPED_TRACE(k);
    const Observed sharded = run_halo(k, make_rdma);
    expect_identical(serial, sharded);
  }
}

TEST(PdesExactness, SocketsWindowedMatchesSerial) {
  // A sockets send's continuation runs on its sender's shard; scheduled
  // on shard 0's engine instead, it shifts the makespan here already.
  auto make_sockets = [](cluster::Cluster& c) {
    return std::make_unique<scenario::SocketsTransport>(
        c, sockets::SocketParams{});
  };
  const Observed serial = run_halo(1, make_sockets);
  for (int k : {2, 3}) {
    SCOPED_TRACE(k);
    const Observed sharded = run_halo(k, make_sockets);
    expect_identical(serial, sharded);
  }
}

// rma and portals resume a receiver from recv_wait. On the 27-node halo
// a continuation on the wrong shard's engine moves only engine event
// counts; this 512-rank cell (8x8x8 torus, 8^3 cells and 4 variables a
// rank, 2 iterations) shows it in the makespan at K=4 as well.
template <typename MakeTransport>
void expect_512_windowed_matches_serial(MakeTransport make) {
  net::NetworkConfig torus = torus27(net::Routing::kStatic);
  torus.nodes_hint = 512;
  Halo3DConfig halo;
  halo.px = halo.py = halo.pz = 8;
  halo.nx = halo.ny = halo.nz = 8;
  halo.vars = 4;
  halo.iterations = 2;
  const Observed serial = run_halo(1, make, torus, halo);
  const Observed sharded = run_halo(4, make, torus, halo);
  expect_identical(serial, sharded);
}

TEST(PdesExactness, RmaWindowedMatchesSerial) {
  expect_512_windowed_matches_serial([](cluster::Cluster& c) {
    return std::make_unique<RvmaTransport>(c, core::RvmaParams{},
                                           core::EpochType::kOps);
  });
}

TEST(PdesExactness, PortalsWindowedMatchesSerial) {
  expect_512_windowed_matches_serial([](cluster::Cluster& c) {
    return std::make_unique<scenario::PortalsTransport>(c,
                                                        core::RvmaParams{});
  });
}

TEST(PdesExactness, ShardedRunsReplayIdentically) {
  const Observed a = run_halo(3, make_rvma);
  const Observed b = run_halo(3, make_rvma);
  EXPECT_EQ(a.result.makespan, b.result.makespan);
  EXPECT_EQ(a.result.engine_events, b.result.engine_events);
  EXPECT_EQ(a.fabric.total_hops, b.fabric.total_hops);
}

}  // namespace
}  // namespace rvma
