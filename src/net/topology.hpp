// Topology interface and the Network facade that owns fabric + routing.
//
// The paper evaluates RVMA vs RDMA across dragonfly, fat-tree, HyperX and
// torus topologies under static (deterministic) and adaptive routing
// (paper Figures 7 and 8). Each topology builds its own wiring and
// implements both routing modes; adaptive modes consult output-port
// backlogs, producing per-packet path diversity and therefore out-of-order
// arrival — the network condition RVMA is designed for.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "net/types.hpp"

namespace rvma::net {

enum class TopologyKind { kStar, kTorus3D, kFatTree, kDragonfly, kHyperX };

/// Unread; kept until perfbench stops setting NetworkConfig::route_table.
/// Static next hops are always Topology::static_next_hop (DESIGN.md §13).
enum class RouteTable { kAlgebraic, kMaterialized };

std::string to_string(TopologyKind kind);
std::string to_string(Routing routing);

struct NetworkConfig {
  TopologyKind topology = TopologyKind::kStar;
  Routing routing = Routing::kStatic;

  /// Desired endpoint count; the topology rounds up to its natural size.
  int nodes_hint = 2;

  LinkParams link;                     ///< applied to every link
  Time switch_latency = 100 * kNanosecond;
  double xbar_factor = 1.5;            ///< crossbar bw = factor * link bw

  /// Latency override for the topology's "long" link tier — the links that
  /// are physically long cables in a real machine: torus wrap-around links,
  /// dragonfly global (inter-group) links, fat-tree agg<->core links and
  /// HyperX dimension-1 links. 0 means uniform (every link uses
  /// link.latency). Bandwidth is unchanged. Star has no switch-to-switch
  /// links, so the override is a no-op there. Non-uniform latencies are
  /// where the per-shard-pair PDES lookahead matrix diverges most from the
  /// single global minimum (DESIGN.md §12).
  Time long_link_latency = 0;

  /// Endpoints per switch (torus / hyperx concentration; dragonfly uses p).
  int concentration = 1;

  // Topology-specific shape overrides; 0 means derive from nodes_hint.
  int torus_x = 0, torus_y = 0, torus_z = 0;
  int fat_k = 0;                       ///< k-ary 3-level fat-tree arity
  int df_p = 0, df_a = 0, df_h = 0;    ///< dragonfly nodes/sw, sw/grp, global links/sw
  int hx_l1 = 0, hx_l2 = 0;            ///< HyperX lattice extents

  std::uint64_t seed = 1;

  bool express = true;  ///< Unread; kept until perfbench stops setting it.

  RouteTable route_table = RouteTable::kAlgebraic;  ///< Unread, like express.
};

/// Exact element counts a topology will create in build(), so Fabric can
/// reserve its SoA arrays up front instead of growing them incrementally.
struct TopologyFootprint {
  int switches = 0;
  int ports = 0;  ///< switch-to-switch ports, summed over all switches
  int nodes = 0;
};

class Topology {
 public:
  virtual ~Topology() = default;

  /// Total endpoints created by build().
  virtual int num_nodes() const = 0;

  /// Construct switches, wire links, attach nodes.
  virtual void build(Fabric& fabric) = 0;

  /// Select the output port for a transit packet (dst not on `sw`): the
  /// fabric's per-hop resolver under adaptive routing. Reads only the
  /// packet and `sw`'s own ports, so the switch's owning shard decides as
  /// a serial run does; may stash a dragonfly Valiant detour in `pkt`.
  virtual int route(const Fabric& fabric, int sw, Packet& pkt,
                    Routing mode) const = 0;

  /// O(1) static next hop for a transit packet at `sw` headed to `dst`
  /// (dst's switch != sw): the fabric's per-hop resolver under static
  /// routing. Must agree with route(..., kStatic) on every reachable
  /// (sw, dst) pair — test_routing_algebra checks this against route().
  virtual int static_next_hop(int sw, NodeId dst) const = 0;

  /// Element counts for Fabric::reserve(); all-zero means "unknown".
  virtual TopologyFootprint footprint() const { return {}; }

  /// Expected hop count bounds, used by tests.
  virtual int diameter() const = 0;
};

/// Owns the engine-facing pieces: fabric, topology, routing policy.
class Network {
 public:
  /// `metrics` is forwarded to the Fabric (shared Cluster registry);
  /// nullptr gives the fabric a private registry.
  Network(sim::Engine& engine, const NetworkConfig& config,
          obs::MetricsRegistry* metrics = nullptr);

  int num_nodes() const { return topology_->num_nodes(); }
  Fabric& fabric() { return fabric_; }
  const NetworkConfig& config() const { return config_; }
  Topology& topology() { return *topology_; }

  void set_delivery(NodeId node, Fabric::Delivery fn) {
    fabric_.set_delivery(node, std::move(fn));
  }
  void inject(Packet&& pkt) { fabric_.inject(std::move(pkt)); }
  /// Batched injection of one message's packets (see Fabric::inject_burst).
  /// Consumes `pkts` but keeps its capacity for caller reuse.
  void inject_burst(std::vector<Packet>& pkts) { fabric_.inject_burst(pkts); }

 private:
  NetworkConfig config_;
  Fabric fabric_;
  std::unique_ptr<Topology> topology_;
};

/// Factory for the topology named in `config` (used by Network; exposed for
/// tests that want to poke a topology directly).
std::unique_ptr<Topology> make_topology(const NetworkConfig& config);

/// Per-shard-pair minimum crossing-link latency, row-major [src * k + dst]:
/// the minimum latency over all fabric links leaving a shard-`src` switch
/// for a shard-`dst` switch, kTimeInfinity where no link crosses src->dst.
/// This is the *direct* one-crossing matrix; a conservative PDES window
/// bound must close it over paths first (close_min_latency_matrix), because
/// influence can chain through intermediate shards with a smaller total
/// latency than any direct link (DESIGN.md §12).
std::vector<Time> cross_shard_min_latency(
    const Fabric& fabric, const std::vector<std::int32_t>& shard_of_switch,
    int num_shards);

/// In-place min-plus (all-pairs shortest path) closure of a
/// cross_shard_min_latency matrix: after the call, la[src * k + dst] is the
/// minimum summed latency over any shard path src -> ... -> dst, still
/// kTimeInfinity for pairs with no path. Diagonal entries are forced to 0
/// (self-influence needs no window bound). Saturating adds keep
/// kTimeInfinity absorbing. O(k^3); k is the shard count, single digits.
void close_min_latency_matrix(std::vector<Time>& la, int num_shards);

}  // namespace rvma::net
