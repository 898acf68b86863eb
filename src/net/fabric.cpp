#include "net/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "common/log.hpp"
#include "net/topology.hpp"

namespace rvma::net {

Fabric::Fabric(sim::Engine& engine, obs::MetricsRegistry* metrics)
    : engine_(engine) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  c_injected_ = &metrics_->counter("fabric.packets_injected");
  c_delivered_ = &metrics_->counter("fabric.packets_delivered");
  c_hops_ = &metrics_->counter("fabric.hops");
  c_wire_bytes_ = &metrics_->counter("fabric.wire_bytes_delivered");
  c_drops_dead_node_ = &metrics_->counter("fabric.drops_dead_node");
  c_route_cache_hits_ = &metrics_->counter("fabric.route_cache_hits");
  g_port_backlog_ns_ = &metrics_->gauge("fabric.port_backlog_ns");
  h_pkt_latency_ns_ = &metrics_->histogram("fabric.pkt_latency_ns");
}

FabricStats Fabric::stats() const {
  FabricStats s;
  s.packets_injected = c_injected_->value();
  s.packets_delivered = c_delivered_->value();
  s.total_hops = c_hops_->value();
  s.wire_bytes_delivered = c_wire_bytes_->value();
  s.packets_dropped_dead_node = c_drops_dead_node_->value();
  s.route_cache_hits = c_route_cache_hits_->value();
  s.max_port_backlog =
      static_cast<Time>(g_port_backlog_ns_->high_water()) * kNanosecond;
  return s;
}

Time Fabric::current_port_backlog_max() const {
  const Time now = engine_.now();
  Time worst = 0;
  for (const Time busy : port_busy_) {
    if (busy > now) worst = std::max(worst, busy - now);
  }
  for (const NodeAttach& at : node_attach_) {
    if (at.inj_busy > now) worst = std::max(worst, at.inj_busy - now);
  }
  return worst;
}

void Fabric::reserve(int switches, int ports, int nodes) {
  switches_.reserve(static_cast<std::size_t>(switches));
  const std::size_t total =
      static_cast<std::size_t>(ports) + static_cast<std::size_t>(nodes);
  port_busy_.reserve(total);
  port_link_.reserve(total);
  port_peer_sw_.reserve(total);
  port_peer_node_.reserve(total);
  node_attach_.reserve(static_cast<std::size_t>(nodes));
}

int Fabric::add_switch(Time latency, Bandwidth xbar_bw) {
  Switch s;
  s.latency = latency;
  s.xbar_bw = xbar_bw;
  s.port_base = static_cast<std::int32_t>(port_link_.size());
  s.num_ports = 0;
  switches_.push_back(s);
  return static_cast<int>(switches_.size()) - 1;
}

int Fabric::add_port(int sw, LinkParams link) {
  Switch& s = switches_[sw];
  // Ports are SoA-contiguous per switch: a switch's block must still sit
  // at the tail of the arrays when a port is appended to it.
  assert(static_cast<std::size_t>(s.port_base + s.num_ports) ==
             port_link_.size() &&
         "ports must be added switch-by-switch in id order");
  port_busy_.push_back(0);
  port_link_.push_back(link);
  port_peer_sw_.push_back(-1);
  port_peer_node_.push_back(-1);
  return s.num_ports++;
}

void Fabric::connect(int sw_a, int port_a, int sw_b, int port_b) {
  const std::size_t a = pid(sw_a, port_a);
  const std::size_t b = pid(sw_b, port_b);
  assert(port_peer_sw_[a] == -1 && port_peer_node_[a] == -1 &&
         "port already wired");
  assert(port_peer_sw_[b] == -1 && port_peer_node_[b] == -1 &&
         "port already wired");
  port_peer_sw_[a] = sw_b;
  port_peer_sw_[b] = sw_a;
}

int Fabric::attach_node(int sw, NodeId node, LinkParams link) {
  if (node >= static_cast<NodeId>(node_attach_.size())) {
    node_attach_.resize(node + 1);
  }
  NodeAttach& at = node_attach_[node];
  assert(at.sw == -1 && "node attached twice");
  const int port = add_port(sw, link);
  port_peer_node_[pid(sw, port)] = node;
  at.sw = sw;
  at.port = port;
  at.inj_link = link;
  at.inj_busy = 0;
  return port;
}

void Fabric::set_delivery(NodeId node, Delivery fn) {
  assert(node >= 0 && node < static_cast<NodeId>(node_attach_.size()));
  node_attach_[node].delivery = std::move(fn);
}

void Fabric::set_shard_map(int my_shard,
                           std::vector<std::int32_t> shard_of_switch,
                           RemoteHop hook) {
  assert(shard_of_switch.size() == switches_.size());
  my_shard_ = my_shard;
  shard_of_switch_ = std::move(shard_of_switch);
  remote_hop_ = std::move(hook);
}

void Fabric::receive_remote(int sw, Time arrival, Time rank, Packet&& pkt) {
  assert(sharded() && shard_of_switch_[static_cast<std::size_t>(sw)] ==
                          my_shard_);
  ++inflight_;
  const std::uint64_t tie = packet_tie(pkt);
  engine_.schedule_at_ranked(
      arrival, rank, tie, [this, sw, pkt = std::move(pkt)]() mutable {
        arrive_at_switch(sw, std::move(pkt));
      });
}

Time Fabric::port_backlog(int sw, int port) const {
  const Time busy = port_busy_[pid(sw, port)];
  const Time now = engine_.now();
  return busy > now ? busy - now : 0;
}

Time Fabric::injection_backlog(NodeId node) const {
  const Time busy = node_attach_[node].inj_busy;
  const Time now = engine_.now();
  return busy > now ? busy - now : 0;
}

void Fabric::fail_node(NodeId node) {
  assert(node >= 0 && node < static_cast<NodeId>(node_attach_.size()));
  // Failure injection is a whole-fabric event (liveness is checked at
  // delivery wherever the packet entered); a sharded run would need the
  // failure mirrored on every shard at the same instant. Unsupported, and
  // nothing clamps a failure run to one shard: this assert is the only
  // guard, so failure experiments must build a serial Cluster.
  assert(!sharded() && "fail_node is not supported on a sharded fabric");
  node_attach_[node].failed = true;
}

void Fabric::revive_node(NodeId node) {
  assert(node >= 0 && node < static_cast<NodeId>(node_attach_.size()));
  node_attach_[node].failed = false;
}

bool Fabric::node_failed(NodeId node) const {
  return node_attach_[node].failed;
}

Time Fabric::charge_injection(NodeAttach& at, Packet& pkt) {
  c_injected_->inc();
  ++inflight_;
  pkt.injected_at = engine_.now();
  RVMA_FREC(engine_, pkt.injected_at, obs::SpanKind::kTxInject, pkt.msg->id,
            pkt.src, static_cast<std::int64_t>(pkt.seq));
  const Time start = std::max(engine_.now(), at.inj_busy);
  at.inj_busy = start + at.inj_link.bw.serialize(pkt.wire_bytes());
  return at.inj_busy + at.inj_link.latency;
}

void Fabric::inject(Packet&& pkt) {
  assert(pkt.src >= 0 && pkt.src < static_cast<NodeId>(node_attach_.size()));
  assert(pkt.dst >= 0 && pkt.dst < static_cast<NodeId>(node_attach_.size()));
  if (node_attach_[pkt.src].failed || node_attach_[pkt.dst].failed) {
    c_drops_dead_node_->inc();
    return;
  }
  NodeAttach& at = node_attach_[pkt.src];
  const Time arrival = charge_injection(at, pkt);
  const int sw = at.sw;
  const std::uint64_t tie = packet_tie(pkt);
  engine_.schedule_at_ranked(arrival, engine_.now(), tie,
                             [this, sw, pkt = std::move(pkt)]() mutable {
                               arrive_at_switch(sw, std::move(pkt));
                             });
}

void Fabric::inject_burst(std::vector<Packet>& pkts) {
  assert(!pkts.empty());
  const NodeId src = pkts.front().src;
  const NodeId dst = pkts.front().dst;
  assert(src >= 0 && src < static_cast<NodeId>(node_attach_.size()));
  assert(dst >= 0 && dst < static_cast<NodeId>(node_attach_.size()));
  if (node_attach_[src].failed || node_attach_[dst].failed) {
    c_drops_dead_node_->inc(pkts.size());
    pkts.clear();
    return;
  }

  // Charge the injection link for the whole burst now: backlog-based
  // admission and the per-packet arrival times are exactly what N
  // inject() calls at this instant would have produced.
  NodeAttach& at = node_attach_[src];
  auto burst = std::make_unique<Burst>();
  burst->sw = at.sw;
  burst->arrivals.reserve(pkts.size());
  for (Packet& pkt : pkts) burst->arrivals.push_back(charge_injection(at, pkt));
  burst->pkts = std::move(pkts);
  pkts.clear();
  schedule_burst(std::move(burst));
}

void Fabric::schedule_burst(std::unique_ptr<Burst> burst) {
  // Rank = the injection instant (every packet of the burst was stamped
  // inside one event); tie = the packet this event hands to the switch.
  const Packet& head = burst->pkts[burst->next];
  const Time arrival = burst->arrivals[burst->next];
  const Time rank = head.injected_at;
  const std::uint64_t tie = packet_tie(head);
  engine_.schedule_at_ranked(
      arrival, rank, tie, [this, b = std::move(burst)]() mutable {
        const int sw = b->sw;
        Packet pkt = std::move(b->pkts[b->next++]);
        if (b->next < b->pkts.size()) schedule_burst(std::move(b));
        arrive_at_switch(sw, std::move(pkt));
      });
}

void Fabric::arrive_at_switch(int sw, Packet&& pkt) {
  ++pkt.hops;
  const Switch& s = switches_[sw];

  int port;
  const NodeAttach& dst_at = node_attach_[pkt.dst];
  if (dst_at.sw == sw) {
    port = dst_at.port;  // ejection to the destination node
  } else if (adaptive_) {
    port = topology_->route(*this, sw, pkt, Routing::kAdaptive);
    assert(port >= 0 && port < s.num_ports);
  } else {
    // Deterministic routing: one virtual call into O(1) coordinate
    // arithmetic on (switch, dst).
    port = topology_->static_next_hop(sw, pkt.dst);
    c_route_cache_hits_->inc();
    assert(port >= 0 && port < s.num_ports);
  }

  const std::size_t p = pid(sw, port);
  const LinkParams& link = port_link_[p];
  const std::uint64_t wire = pkt.wire_bytes();
  const Time xbar_done = engine_.now() + s.latency + s.xbar_bw.serialize(wire);
  if (port_busy_[p] > xbar_done) {
    // True queue wait beyond the crossbar (DESIGN.md §7), recorded only
    // when positive.
    g_port_backlog_ns_->set(
        static_cast<std::int64_t>((port_busy_[p] - xbar_done) / kNanosecond));
  }
  const Time start = std::max(xbar_done, port_busy_[p]);
  const Time finish = start + link.bw.serialize(wire);
  port_busy_[p] = finish;
  const Time arrival = finish + link.latency;

  if (port_peer_node_[p] >= 0) {
    // Delivery is ranked at the injection instant and keyed by the packet:
    // its heap position is a property of the packet, identical in serial
    // and sharded runs (sim/engine.hpp).
    const NodeId node = port_peer_node_[p];
    const Time rank = pkt.injected_at;
    const std::uint64_t tie = packet_tie(pkt);
    engine_.schedule_at_ranked(arrival, rank, tie,
                               [this, node, pkt = std::move(pkt)]() mutable {
                                 deliver(node, std::move(pkt));
                               });
  } else {
    const int next = port_peer_sw_[p];
    assert(next >= 0 && "packet routed to an unwired port");
    if (!shard_of_switch_.empty() &&
        shard_of_switch_[static_cast<std::size_t>(next)] != my_shard_) {
      // The next hop's switch belongs to a peer shard: this fabric's part
      // of the traversal (the arbitration above) is done. Hand the packet
      // across; the owning fabric re-accounts it via receive_remote and
      // ranks the arrival at this arbitration instant, the position the
      // serial tie-break gives it (sim/engine.hpp).
      --inflight_;
      remote_hop_(shard_of_switch_[static_cast<std::size_t>(next)], next,
                  arrival, engine_.now(), std::move(pkt));
      return;
    }
    const std::uint64_t tie = packet_tie(pkt);
    engine_.schedule_at_ranked(arrival, engine_.now(), tie,
                               [this, next, pkt = std::move(pkt)]() mutable {
                                 arrive_at_switch(next, std::move(pkt));
                               });
  }
}

void Fabric::deliver(NodeId node, Packet&& pkt) {
  if (node_attach_[node].failed) {
    c_drops_dead_node_->inc();
    --inflight_;
    return;
  }
  c_delivered_->inc();
  c_hops_->inc(pkt.hops);
  c_wire_bytes_->inc(pkt.wire_bytes());
  --inflight_;
  h_pkt_latency_ns_->record((engine_.now() - pkt.injected_at) / kNanosecond);
  RVMA_FREC(engine_, engine_.now(), obs::SpanKind::kPktDeliver, pkt.msg->id,
            pkt.dst, static_cast<std::int64_t>(pkt.seq));
  NodeAttach& at = node_attach_[node];
  assert(at.delivery && "packet delivered to node without a NIC");
  at.delivery(std::move(pkt));
}

void Fabric::check_wired() const {
  for (std::size_t sw = 0; sw < switches_.size(); ++sw) {
    const Switch& s = switches_[sw];
    for (int p = 0; p < s.num_ports; ++p) {
      const std::size_t id = pid(static_cast<int>(sw), p);
      if (port_peer_sw_[id] < 0 && port_peer_node_[id] < 0) {
        std::fprintf(stderr, "fabric: switch %zu port %d unwired\n", sw, p);
        std::abort();
      }
    }
  }
  for (std::size_t n = 0; n < node_attach_.size(); ++n) {
    if (node_attach_[n].sw < 0) {
      std::fprintf(stderr, "fabric: node %zu unattached\n", n);
      std::abort();
    }
  }
}

}  // namespace rvma::net
