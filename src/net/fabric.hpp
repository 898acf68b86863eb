// Switch fabric: output-queued switches connected by point-to-point links.
//
// Model (paper §V-B1): each switch forwards a packet through its crossbar
// at 1.5x the link bandwidth (configurable factor) plus a fixed traversal
// latency, then serializes it onto the chosen output port. Output ports are
// FIFO resources (`busy_until`), so a single deterministic path delivers
// in order — the property RDMA's last-byte polling depends on — while
// adaptive per-packet path choice yields genuine out-of-order arrival.
//
// Every packet travels hop by hop: one arrival event per switch it
// crosses, then one delivery event at the destination NIC edge. Each
// packet event is ranked at the instant that produced it and keyed by
// net::packet_tie, so its heap position is a property of the packet, not
// of the schedule (sim/engine.hpp tie-break model).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "net/types.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace rvma::net {

class Topology;

enum class Routing {
  kStatic,   ///< deterministic single path per (src, dst): in-order delivery
  kAdaptive  ///< per-packet congestion-aware choice: may reorder
};

struct LinkParams {
  Bandwidth bw = Bandwidth::gbps(100);
  Time latency = 100 * kNanosecond;  ///< propagation (wire/SerDes) delay
};

/// Per-port state lives in flat fabric-wide SoA arrays indexed by global
/// port id (Switch::port_base + local port index), not in per-Port
/// objects: hop arbitration touches only the busy time, so packing it into
/// a dense dedicated array keeps the hot working set at 8 bytes/port
/// instead of dragging link parameters and wiring (cold, read at hop
/// setup) through the cache.
struct Switch {
  Time latency = 100 * kNanosecond;  ///< fixed crossbar traversal latency
  Bandwidth xbar_bw;                 ///< crossbar serialization bandwidth
  std::int32_t port_base = 0;        ///< first global port id of this switch
  std::int32_t num_ports = 0;
};

struct FabricStats {
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_injected = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t wire_bytes_delivered = 0;
  std::uint64_t packets_dropped_dead_node = 0;  ///< failure injection
  /// Transit hops resolved by the topology's static next-hop arithmetic
  /// (static routing only; adaptive hops go through Topology::route).
  std::uint64_t route_cache_hits = 0;
  Time max_port_backlog = 0;  ///< worst queue wait beyond the crossbar seen
};

class Fabric {
 public:
  /// Per-node delivery callback (installed by the NIC model).
  using Delivery = std::function<void(Packet&&)>;
  /// Cross-shard handoff hook (sharded runs only): invoked when a packet's
  /// next hop lands on a switch owned by another shard. `rank` is the
  /// handing-off arbitration's instant — where a serial engine would have
  /// scheduled the arrival event. The hook must eventually call
  /// receive_remote(next_sw, arrival, rank, pkt) on the owning shard's
  /// fabric; the Cluster wires it through sim::ShardedEngine.
  using RemoteHop = std::function<void(int dst_shard, int next_sw,
                                       Time arrival, Time rank, Packet&&)>;

  /// When `metrics` is non-null the fabric records into that shared
  /// registry (the Cluster's); otherwise it owns a private one so
  /// standalone fabrics (unit tests, topology experiments) keep working.
  explicit Fabric(sim::Engine& engine,
                  obs::MetricsRegistry* metrics = nullptr);

  /// Pre-size the switch and port arrays (Topology::footprint()), so a
  /// paper-scale build is a single allocation per array instead of a
  /// doubling-growth sequence. `ports` counts switch-to-switch ports;
  /// attach_node adds one ejection port per node on top.
  void reserve(int switches, int ports, int nodes);

  int add_switch(Time latency, Bandwidth xbar_bw);
  /// Append a port to `sw`; wiring is set later via connect()/attach_node().
  /// Ports live in fabric-wide contiguous arrays, so all of a switch's
  /// ports must be added before the next switch's first port (every
  /// topology builds switch-by-switch in id order).
  int add_port(int sw, LinkParams link);
  /// Wire two existing switch ports together (bidirectional pair).
  void connect(int sw_a, int port_a, int sw_b, int port_b);
  /// Create a port on `sw` facing `node` and an injection link back.
  /// Returns the switch-side port index.
  int attach_node(int sw, NodeId node, LinkParams link);

  void set_delivery(NodeId node, Delivery fn);

  /// Resolve every transit hop through `topology`: its O(1)
  /// static_next_hop under static routing, its route() under adaptive
  /// routing. `topology` must outlive the fabric's routing (Network owns
  /// both).
  void set_routing(const Topology* topology, Routing routing) {
    topology_ = topology;
    adaptive_ = routing == Routing::kAdaptive;
  }

  /// Shard this fabric: switches whose `shard_of_switch` entry differs
  /// from `my_shard` are foreign — a packet hopping onto one is handed to
  /// `hook` instead of being scheduled locally. Nodes always inject and
  /// eject on the shard owning their attachment switch, so only transit
  /// hops cross.
  void set_shard_map(int my_shard, std::vector<std::int32_t> shard_of_switch,
                     RemoteHop hook);
  bool sharded() const { return !shard_of_switch_.empty(); }
  /// The installed switch -> shard map; empty when unsharded.
  const std::vector<std::int32_t>& shard_of_switch() const {
    return shard_of_switch_;
  }

  /// Entry point for a packet handed off by a peer shard: accounts it as
  /// an in-flight packet of this fabric and schedules its arrival at
  /// switch `sw` (owned by this shard) at time `arrival`, tie-break-ranked
  /// at `rank` (the source-side handoff instant).
  void receive_remote(int sw, Time arrival, Time rank, Packet&& pkt);

  /// Inject a packet from its source node's injection link.
  void inject(Packet&& pkt);

  /// Inject every packet of one message (same src/dst) back to back on the
  /// source node's injection link. Timing, stats, and tie-break order are
  /// identical to calling inject() per packet — the link is charged for the
  /// whole burst immediately, and each packet's switch arrival is ranked
  /// at the injection instant and keyed by the packet — but only one
  /// chained engine event stays queued per message instead of one arrival
  /// event per packet. Consumes `pkts` and leaves it empty.
  void inject_burst(std::vector<Packet>& pkts);

  sim::Engine& engine() { return engine_; }
  int num_switches() const { return static_cast<int>(switches_.size()); }
  int num_attached_nodes() const { return static_cast<int>(node_attach_.size()); }
  const Switch& switch_at(int sw) const { return switches_[sw]; }
  int switch_of_node(NodeId node) const { return node_attach_[node].sw; }

  // Per-port wiring accessors (SoA arrays; `port` is the local index).
  int switch_num_ports(int sw) const { return switches_[sw].num_ports; }
  std::int32_t port_peer_switch(int sw, int port) const {
    return port_peer_sw_[pid(sw, port)];
  }
  NodeId port_peer_node(int sw, int port) const {
    return port_peer_node_[pid(sw, port)];
  }
  const LinkParams& port_link(int sw, int port) const {
    return port_link_[pid(sw, port)];
  }

  /// Output-queue backlog of (sw, port) relative to now; the congestion
  /// signal adaptive routing policies compare.
  Time port_backlog(int sw, int port) const;

  /// Backlog (in serialization time) of `node`'s injection link — how far
  /// ahead of the wire the NIC's transmit queue currently runs.
  Time injection_backlog(NodeId node) const;

  /// Compatibility view assembled from the registry instruments (the
  /// counters live in obs::MetricsRegistry now). Returned by value;
  /// callers binding a const reference get lifetime extension.
  FabricStats stats() const;

  /// Registry this fabric records into (shared or privately owned).
  obs::MetricsRegistry& metrics_registry() { return *metrics_; }

  /// Packets currently inside the fabric (injected, not yet delivered or
  /// dropped) — a sampler gauge provider.
  std::int64_t inflight_packets() const { return inflight_; }

  /// Worst output-port or injection-link backlog right now (in time) —
  /// the instantaneous congestion level, for the sampler. O(ports).
  Time current_port_backlog_max() const;

  /// The same instantaneous worst backlog in nanoseconds — the single
  /// picosecond->nanosecond conversion point shared by the Cluster
  /// sampler's `fabric.port_backlog_ns` column (DESIGN.md §7).
  std::int64_t current_port_backlog_max_ns() const {
    return static_cast<std::int64_t>(current_port_backlog_max() / kNanosecond);
  }

  /// Failure injection: from now on, packets destined to or originating
  /// from `node` are silently dropped (the node has died). Used by the
  /// fault-tolerance experiments (paper §IV-F).
  void fail_node(NodeId node);
  /// Revive a failed node (e.g. restart after recovery).
  void revive_node(NodeId node);
  bool node_failed(NodeId node) const;

  /// Validate that every port is wired and every node has a delivery
  /// callback; aborts with a message otherwise. Call after topology build.
  void check_wired() const;

 private:
  struct NodeAttach {
    std::int32_t sw = -1;
    std::int32_t port = -1;       ///< switch-side (ejection) port, local idx
    LinkParams inj_link;          ///< node -> switch link parameters
    Time inj_busy = 0;            ///< node -> switch link busy_until
    Delivery delivery;
    bool failed = false;
  };

  /// In-flight state of a multi-packet injection: the packets and their
  /// precomputed switch-arrival times.
  struct Burst {
    int sw = -1;
    std::size_t next = 0;
    std::vector<Packet> pkts;
    std::vector<Time> arrivals;
  };

  /// Global port id of `sw`'s local port index.
  std::size_t pid(int sw, int port) const {
    return static_cast<std::size_t>(switches_[sw].port_base + port);
  }

  /// Per-packet injection accounting (counters, trace, flight-recorder
  /// span) plus the charge on `at`'s injection link; stamps injected_at
  /// and returns the packet's arrival time at its first switch.
  Time charge_injection(NodeAttach& at, Packet& pkt);
  void arrive_at_switch(int sw, Packet&& pkt);
  void deliver(NodeId node, Packet&& pkt);
  /// Schedule the switch arrival of the burst's next packet; the event
  /// hands that packet to its first switch and chains the one after it.
  void schedule_burst(std::unique_ptr<Burst> burst);

  sim::Engine& engine_;
  std::vector<Switch> switches_;
  // ---- per-port SoA arrays, indexed by global port id ----
  // Hot (touched per arbitration):
  std::vector<Time> port_busy_;    ///< output FIFO busy_until
  // Cold (wiring + link parameters, read at hop setup):
  std::vector<LinkParams> port_link_;
  std::vector<std::int32_t> port_peer_sw_;  ///< -1 when the peer is a node
  std::vector<NodeId> port_peer_node_;      ///< -1 when the peer is a switch
  std::vector<NodeAttach> node_attach_;
  /// Transit-hop resolver (set_routing); null until a Network installs it.
  const Topology* topology_ = nullptr;
  bool adaptive_ = false;
  /// Sharding (empty when this fabric owns the whole topology): owning
  /// shard per switch, this fabric's shard id, and the handoff hook.
  std::vector<std::int32_t> shard_of_switch_;
  int my_shard_ = 0;
  RemoteHop remote_hop_;

  /// Shared (Cluster) or privately owned registry, plus the instruments
  /// resolved once at construction — a record is one add through a
  /// cached pointer, no name lookups on the hot path.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  obs::Counter* c_injected_;
  obs::Counter* c_delivered_;
  obs::Counter* c_hops_;
  obs::Counter* c_wire_bytes_;
  obs::Counter* c_drops_dead_node_;
  obs::Counter* c_route_cache_hits_;
  obs::Gauge* g_port_backlog_ns_;
  obs::Histogram* h_pkt_latency_ns_;
  std::int64_t inflight_ = 0;
};

}  // namespace rvma::net
