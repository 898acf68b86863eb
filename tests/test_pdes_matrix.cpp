// Per-shard-pair lookahead matrix tests (DESIGN.md §12): the min-plus
// closure helpers, slab-partition matrices over non-uniform link
// latencies, the Cluster's block-cyclic switch partition (every shard
// owns nodes, the installed matrix is its own map's closure, the
// lookahead never drops below the slabs'), unreachable (+inf) pairs in a
// hand-built ShardedEngine, bit-identity of windowed runs against serial
// across every topology and every adaptive router at K in {2, 3, 5},
// and the windows_executed regression the matrix buys
// over the scalar global-minimum lookahead on a wavefront workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "motifs/halo3d.hpp"
#include "motifs/rdma_transport.hpp"
#include "motifs/runner.hpp"
#include "motifs/rvma_transport.hpp"
#include "motifs/sweep3d.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"

namespace rvma {
namespace {

using motifs::build_halo3d;
using motifs::build_sweep3d;
using motifs::Halo3DConfig;
using motifs::MotifResult;
using motifs::MotifRunner;
using motifs::RdmaTransport;
using motifs::RvmaTransport;
using motifs::Sweep3DConfig;

// ------------------------------------------------------- min-plus closure

TEST(LookaheadClosure, TransitivePathsTightenDirectEntries) {
  // The DESIGN.md §12 counterexample: a -> b -> c chains with total
  // latency 2 while the direct a -> c link costs 100. An unclosed matrix
  // would let c run 100 ahead of a — closure must tighten it to 2.
  constexpr Time inf = kTimeInfinity;
  std::vector<Time> la = {
      0, 1, 100,  //
      inf, 0, 1,  //
      inf, inf, 0,
  };
  net::close_min_latency_matrix(la, 3);
  EXPECT_EQ(la[0 * 3 + 1], 1u);
  EXPECT_EQ(la[0 * 3 + 2], 2u);  // through b, not the direct 100
  EXPECT_EQ(la[1 * 3 + 2], 1u);
  // Unreachable stays unreachable; infinity is absorbing, not wrapping.
  EXPECT_EQ(la[1 * 3 + 0], inf);
  EXPECT_EQ(la[2 * 3 + 0], inf);
  EXPECT_EQ(la[2 * 3 + 1], inf);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(la[i * 3 + i], 0u);
}

TEST(LookaheadClosure, SatisfiesTriangleInequality) {
  constexpr Time inf = kTimeInfinity;
  std::vector<Time> la = {
      0,   7,   inf, 40,  //
      3,   0,   9,   inf,  //
      inf, 2,   0,   5,   //
      1,   inf, 60,  0,
  };
  net::close_min_latency_matrix(la, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int m = 0; m < 4; ++m) {
        const Time im = la[i * 4 + m], mj = la[m * 4 + j];
        if (im == inf || mj == inf) continue;
        EXPECT_LE(la[i * 4 + j], im + mj) << i << "->" << m << "->" << j;
      }
    }
  }
}

// ------------------------------------------ slab matrix construction

/// The contiguous slab partition: switch sw on shard sw*K/S.
std::vector<std::int32_t> slab_map(int num_switches, int k) {
  std::vector<std::int32_t> map(static_cast<std::size_t>(num_switches));
  for (int sw = 0; sw < num_switches; ++sw) {
    map[static_cast<std::size_t>(sw)] = sw * k / num_switches;
  }
  return map;
}

/// Path-closed lookahead matrix of `cfg`'s fabric under slab_map.
std::vector<Time> slab_matrix(const net::NetworkConfig& cfg, int k) {
  sim::Engine engine;
  net::Network network(engine, cfg);
  const net::Fabric& f = network.fabric();
  std::vector<Time> la = net::cross_shard_min_latency(
      f, slab_map(f.num_switches(), k), k);
  net::close_min_latency_matrix(la, k);
  return la;
}

/// Smallest off-diagonal entry: the fastest crossing link.
Time min_off_diagonal(const std::vector<Time>& la, int k) {
  Time lo = kTimeInfinity;
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (i != j) lo = std::min(lo, la[static_cast<std::size_t>(i * k + j)]);
    }
  }
  return lo;
}

TEST(ClusterLookaheadMatrix, TorusSlabsCloseOverShardDistance) {
  // A 4x4x4 torus cut into 4 slabs along x: adjacent slabs cross with one
  // link latency L, and the wrap-around ring makes shard 0 and shard 3
  // adjacent too, so the closed distance between slabs i and j is
  // min(|i-j|, 4 - |i-j|) * L.
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kTorus3D;
  cfg.routing = net::Routing::kStatic;
  cfg.nodes_hint = 64;
  const std::vector<Time> la = slab_matrix(cfg, 4);
  const Time l = cfg.link.latency;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      const int d = i > j ? i - j : j - i;
      const int ring = d < 4 - d ? d : 4 - d;
      EXPECT_EQ(la[static_cast<std::size_t>(i * 4 + j)],
                static_cast<Time>(ring) * l)
          << i << "->" << j;
    }
  }
  // The scalar baseline equals the matrix minimum: one link crossing.
  EXPECT_EQ(min_off_diagonal(la, 4), l);
}

TEST(ClusterLookaheadMatrix, LongWrapLinksWidenFarPairs) {
  // With 10x wrap-around links the ring shortcut through the long wire is
  // no longer free: shard 0 -> 3 now costs min(3L, Llong) and the matrix
  // is no longer the uniform ring metric.
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kTorus3D;
  cfg.routing = net::Routing::kStatic;
  cfg.nodes_hint = 64;
  cfg.long_link_latency = 10 * cfg.link.latency;
  const std::vector<Time> la = slab_matrix(cfg, 4);
  const Time l = cfg.link.latency;
  EXPECT_EQ(la[0 * 4 + 1], l);
  EXPECT_EQ(la[0 * 4 + 2], 2 * l);
  EXPECT_EQ(la[0 * 4 + 3], 3 * l);  // 3 local hops beat the 10L wrap
  EXPECT_EQ(la[3 * 4 + 0], 3 * l);
  EXPECT_EQ(min_off_diagonal(la, 4), l);
}

// ------------------------------------------- Cluster switch partition

net::NetworkConfig topo_cfg(net::TopologyKind kind,
                            net::Routing routing = net::Routing::kStatic) {
  net::NetworkConfig cfg;
  cfg.topology = kind;
  cfg.routing = routing;
  cfg.nodes_hint = 64;
  // Non-uniform latencies: the long tier (torus wrap, dragonfly global,
  // fat-tree agg<->core, hyperx dim-1) at 7x — the matrix's entries then
  // genuinely differ per pair, which is the case worth gating.
  cfg.long_link_latency = 700 * kNanosecond;
  cfg.seed = 7;
  return cfg;
}

/// The long-global dragonfly of PdesMatrixWindows: 9 groups of 4
/// switches, 1us global links between groups, 100ns local links inside.
net::NetworkConfig long_global_dragonfly() {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kDragonfly;
  cfg.routing = net::Routing::kStatic;
  cfg.nodes_hint = 64;
  cfg.long_link_latency = 1000 * kNanosecond;
  cfg.seed = 7;
  return cfg;
}

constexpr net::TopologyKind kSwitchedTopologies[] = {
    net::TopologyKind::kTorus3D, net::TopologyKind::kFatTree,
    net::TopologyKind::kDragonfly, net::TopologyKind::kHyperX};

TEST(ClusterPartition, EveryShardOwnsANode) {
  // Block-cyclic dealing puts node-bearing switches on every shard, even
  // on a fat-tree whose edge switches (the only ones with nodes) are the
  // first 40% of the switch order — contiguous slabs left shards holding
  // only aggregation and core switches there.
  for (net::TopologyKind kind : kSwitchedTopologies) {
    SCOPED_TRACE(net::to_string(kind));
    for (int k : {2, 3, 4, 5}) {
      SCOPED_TRACE(k);
      cluster::Cluster c(topo_cfg(kind), nic::NicParams{}, k);
      ASSERT_EQ(c.num_shards(), k);
      std::vector<int> nodes(static_cast<std::size_t>(k), 0);
      for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
        ++nodes[static_cast<std::size_t>(c.shard_of_node(n))];
      }
      for (int s = 0; s < k; ++s) {
        EXPECT_GT(nodes[static_cast<std::size_t>(s)], 0) << "shard " << s;
      }
    }
  }
}

TEST(ClusterPartition, InstalledMatrixIsClosureOfOwnMap) {
  for (net::TopologyKind kind : kSwitchedTopologies) {
    SCOPED_TRACE(net::to_string(kind));
    for (int k : {2, 3, 4, 5}) {
      SCOPED_TRACE(k);
      cluster::Cluster c(topo_cfg(kind), nic::NicParams{}, k);
      ASSERT_EQ(c.num_shards(), k);
      const net::Fabric& f = c.network().fabric();
      std::vector<Time> la =
          net::cross_shard_min_latency(f, f.shard_of_switch(), k);
      EXPECT_EQ(min_off_diagonal(la, k), c.lookahead());
      net::close_min_latency_matrix(la, k);
      EXPECT_EQ(la, c.lookahead_matrix());
    }
  }
}

TEST(ClusterPartition, NeverLowersTheSlabLookahead) {
  // Uniform torus: the interleaved map crosses at one link latency, like
  // the slabs, so it wins and the map is not the slab map.
  net::NetworkConfig torus;
  torus.topology = net::TopologyKind::kTorus3D;
  torus.routing = net::Routing::kStatic;
  torus.nodes_hint = 64;
  {
    cluster::Cluster c(torus, nic::NicParams{}, 4);
    ASSERT_EQ(c.num_shards(), 4);
    const std::vector<std::int32_t>& map =
        c.network().fabric().shard_of_switch();
    EXPECT_EQ(c.lookahead(), min_off_diagonal(slab_matrix(torus, 4), 4));
    EXPECT_NE(map, slab_map(static_cast<int>(map.size()), 4));
  }
  // Long-global dragonfly at K=3: each slab is three whole groups, so it
  // crosses only on 1us global links, while the interleaved map's
  // 1.5-switch blocks split groups on 100ns local links — it keeps its
  // slabs. (At K=4 the slabs of its 36 switches already split groups,
  // cross at 100ns, and the interleave wins as on the torus.)
  const net::NetworkConfig df = long_global_dragonfly();
  cluster::Cluster c(df, nic::NicParams{}, 3);
  ASSERT_EQ(c.num_shards(), 3);
  const std::vector<std::int32_t>& map = c.network().fabric().shard_of_switch();
  EXPECT_EQ(c.lookahead(), min_off_diagonal(slab_matrix(df, 3), 3));
  EXPECT_EQ(c.lookahead(), df.long_link_latency);
  EXPECT_EQ(map, slab_map(static_cast<int>(map.size()), 3));
}

// --------------------------------------------- unreachable (+inf) pairs

TEST(ShardedEngineMatrix, UnreachablePairNeverConstrainsWindow) {
  // Hand-built two-shard machine where shard 1 can never influence shard
  // 0 (la[1][0] = +inf): shard 0's window must be unbounded — it runs its
  // entire timeline in one window — while shard 1 stays conservatively
  // windowed behind shard 0's posts. The matrix is trivially path-closed.
  sim::Engine a, b;
  sim::ShardedEngine se;
  se.attach(&a);
  se.attach(&b);
  se.set_lookahead_matrix({0, 100, kTimeInfinity, 0});
  EXPECT_TRUE(se.lookahead_is_matrix());
  EXPECT_EQ(se.lookahead(1, 0), kTimeInfinity);
  EXPECT_EQ(se.lookahead(0, 1), 100u);

  int fired = 0;
  for (Time t : {Time{10}, Time{500}, Time{90000}}) {
    a.schedule_at(t, [&, t] {
      se.post(0, 1, t + 100, sim::Callback([&, when = t + 100] {
                b.schedule_at_ranked(when, 0, 0, [&] { ++fired; });
              }));
    });
  }
  b.schedule_at(5, [&] { ++fired; });

  const Time end = se.run_windowed();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(end, 90100u);  // the last arrival, not a window edge
  EXPECT_EQ(a.pending(), 0u);
  EXPECT_EQ(b.pending(), 0u);
}

// ------------------------------- bit-identity across topologies and K

struct Observed {
  MotifResult result;
  net::FabricStats fabric;
  obs::MetricsSnapshot metrics;  ///< engine event counts included
  int shards = 1;
};

enum class Via { kRvma, kRdma };

Observed run_halo(net::TopologyKind kind, int par_shards,
                  net::Routing routing = net::Routing::kStatic,
                  Via via = Via::kRvma) {
  cluster::Cluster cluster(topo_cfg(kind, routing), nic::NicParams{},
                           par_shards);
  std::unique_ptr<motifs::Transport> transport;
  if (via == Via::kRvma) {
    transport = std::make_unique<RvmaTransport>(cluster, core::RvmaParams{});
  } else {
    transport = std::make_unique<RdmaTransport>(
        cluster, rdma::RdmaParams{}, routing == net::Routing::kStatic);
  }
  Halo3DConfig halo;
  halo.px = halo.py = halo.pz = 4;  // 64 ranks
  halo.nx = halo.ny = halo.nz = 4;
  halo.iterations = 2;
  halo.compute_per_cell = 0;
  Observed obs;
  obs.result = MotifRunner(cluster, *transport, build_halo3d(halo)).run();
  obs.fabric = cluster.fabric_stats();
  obs.metrics = cluster.collect_metrics();
  obs.shards = cluster.num_shards();
  return obs;
}

void expect_identical(const Observed& serial, const Observed& sharded) {
  EXPECT_EQ(serial.result.makespan, sharded.result.makespan);
  EXPECT_EQ(serial.result.ops_executed, sharded.result.ops_executed);
  EXPECT_EQ(serial.result.transport.data_messages,
            sharded.result.transport.data_messages);
  EXPECT_EQ(serial.result.transport.control_messages,
            sharded.result.transport.control_messages);
  EXPECT_EQ(serial.result.transport.credit_stalls,
            sharded.result.transport.credit_stalls);
  EXPECT_EQ(serial.fabric.packets_injected, sharded.fabric.packets_injected);
  EXPECT_EQ(serial.fabric.packets_delivered,
            sharded.fabric.packets_delivered);
  EXPECT_EQ(serial.fabric.total_hops, sharded.fabric.total_hops);
  EXPECT_EQ(serial.fabric.wire_bytes_delivered,
            sharded.fabric.wire_bytes_delivered);
  EXPECT_EQ(serial.fabric.max_port_backlog, sharded.fabric.max_port_backlog);
  EXPECT_TRUE(serial.metrics == sharded.metrics);
}

TEST(PdesMatrixExactness, AllTopologiesMatchSerialAtK235) {
  for (net::TopologyKind kind :
       {net::TopologyKind::kStar, net::TopologyKind::kTorus3D,
        net::TopologyKind::kFatTree, net::TopologyKind::kDragonfly,
        net::TopologyKind::kHyperX}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const Observed serial = run_halo(kind, 1);
    for (int k : {2, 3, 5}) {
      SCOPED_TRACE(k);
      const Observed sharded = run_halo(kind, k);
      expect_identical(serial, sharded);
    }
  }
}

TEST(PdesMatrixExactness, AdaptiveRoutingMatchesSerialAtK235) {
  // Every adaptive router picks a port by the current switch's backlogs
  // and, for the dragonfly's Valiant group, a hash of the packet; that
  // switch's shard executes its arbitrations in serial order, so every
  // choice — and every byte of output — matches the serial run, over
  // both transports.
  for (net::TopologyKind kind :
       {net::TopologyKind::kTorus3D, net::TopologyKind::kFatTree,
        net::TopologyKind::kDragonfly, net::TopologyKind::kHyperX}) {
    SCOPED_TRACE(net::to_string(kind));
    for (Via via : {Via::kRvma, Via::kRdma}) {
      SCOPED_TRACE(via == Via::kRvma ? "rvma" : "rdma");
      const Observed serial =
          run_halo(kind, 1, net::Routing::kAdaptive, via);
      for (int k : {2, 3, 5}) {
        SCOPED_TRACE(k);
        const Observed sharded =
            run_halo(kind, k, net::Routing::kAdaptive, via);
        ASSERT_EQ(sharded.shards, k);
        expect_identical(serial, sharded);
      }
    }
  }
}

// ------------------------------------- windows regression vs scalar mode

TEST(PdesMatrixWindows, WavefrontNeedsStrictlyFewerWindowsThanScalar) {
  // A KBA sweep keeps only the wavefront diagonal busy; the matrix's
  // self-exclusion lets the active shard run ahead while idle shards
  // publish +inf, so barrier rounds drop. The scalar ablation pins every
  // shard — including the global minimum's holder — to min + lookahead.
  // Both counts are deterministic, so strict inequality is a hard gate.
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kDragonfly;
  cfg.routing = net::Routing::kStatic;
  cfg.nodes_hint = 64;
  cfg.long_link_latency = 1000 * kNanosecond;
  cfg.seed = 7;

  Sweep3DConfig sweep;
  sweep.pex = sweep.pey = 8;  // 64 ranks
  sweep.nx = sweep.ny = 8;
  sweep.nz = 16;
  sweep.kba = 4;

  auto run_once = [&](bool scalar) {
    cluster::Cluster cluster(cfg, nic::NicParams{}, 4);
    EXPECT_EQ(cluster.num_shards(), 4);
    if (scalar) {
      cluster.sharded_engine().set_lookahead(cluster.lookahead());
      EXPECT_FALSE(cluster.sharded_engine().lookahead_is_matrix());
    } else {
      EXPECT_TRUE(cluster.sharded_engine().lookahead_is_matrix());
    }
    RvmaTransport transport(cluster, core::RvmaParams{});
    const MotifResult result =
        MotifRunner(cluster, transport, build_sweep3d(sweep)).run();
    return std::pair<Time, std::uint64_t>(
        result.makespan, cluster.sharded_engine().windows_executed());
  };

  const auto [makespan_matrix, windows_matrix] = run_once(/*scalar=*/false);
  const auto [makespan_scalar, windows_scalar] = run_once(/*scalar=*/true);
  EXPECT_EQ(makespan_matrix, makespan_scalar);
  EXPECT_LT(windows_matrix, windows_scalar);
}

TEST(PdesMatrixWindows, WavefrontOnKeptSlabsNeedsStrictlyFewerWindows) {
  // The same sweep at K=3, where the Cluster keeps slabs of three whole
  // groups joined only by 1us global links: the wavefront sits on one
  // slab at a time, so idle shards publish +inf and the active one runs
  // ahead of the scalar bound. (At K=4 the 36 switches interleave, the
  // wavefront spans every shard and the margin is much thinner.)
  Sweep3DConfig sweep;
  sweep.pex = sweep.pey = 8;  // 64 ranks
  sweep.nx = sweep.ny = 8;
  sweep.nz = 16;
  sweep.kba = 4;

  auto run_once = [&](bool scalar) {
    cluster::Cluster cluster(long_global_dragonfly(), nic::NicParams{}, 3);
    EXPECT_EQ(cluster.num_shards(), 3);
    EXPECT_EQ(cluster.lookahead(), 1000 * kNanosecond);
    if (scalar) cluster.sharded_engine().set_lookahead(cluster.lookahead());
    EXPECT_EQ(cluster.sharded_engine().lookahead_is_matrix(), !scalar);
    RvmaTransport transport(cluster, core::RvmaParams{});
    const MotifResult result =
        MotifRunner(cluster, transport, build_sweep3d(sweep)).run();
    return std::pair<Time, std::uint64_t>(
        result.makespan, cluster.sharded_engine().windows_executed());
  };

  const auto [makespan_matrix, windows_matrix] = run_once(/*scalar=*/false);
  const auto [makespan_scalar, windows_scalar] = run_once(/*scalar=*/true);
  EXPECT_EQ(makespan_matrix, makespan_scalar);
  EXPECT_LT(windows_matrix, windows_scalar);
}

}  // namespace
}  // namespace rvma
