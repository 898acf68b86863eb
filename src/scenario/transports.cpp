#include "scenario/transports.hpp"

#include <algorithm>
#include <utility>

#include "motifs/rdma_transport.hpp"
#include "motifs/rvma_transport.hpp"
#include "scenario/registry.hpp"

namespace rvma::scenario {

// ---------------------------------------------------------------- sockets

SocketsTransport::SocketsTransport(cluster::Cluster& cluster,
                                   const sockets::SocketParams& params)
    : cluster_(cluster) {
  // Every endpoint and stack on a shard counts into the same instruments.
  std::vector<std::pair<core::RvmaInstruments, sockets::SocketInstruments>>
      instruments;
  instruments.reserve(static_cast<std::size_t>(cluster.num_shards()));
  for (int k = 0; k < cluster.num_shards(); ++k) {
    instruments.emplace_back(cluster.metrics_for_shard(k),
                             cluster.metrics_for_shard(k));
  }
  endpoints_.reserve(cluster.num_nodes());
  stacks_.reserve(cluster.num_nodes());
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    const auto& [endpoint_ins, stack_ins] =
        instruments[static_cast<std::size_t>(cluster.shard_of_node(node))];
    endpoints_.push_back(std::make_unique<core::RvmaEndpoint>(
        cluster.nic(node), core::RvmaParams{}, endpoint_ins));
    stacks_.push_back(std::make_unique<sockets::SocketStack>(
        *endpoints_.back(), params, stack_ins));
  }
}

void SocketsTransport::setup(const std::vector<motifs::Channel>& channels) {
  std::uint64_t max_bytes = 0;
  std::uint16_t port = 1;
  // One listening port per channel so concurrent connects cannot cross:
  // channel index -> port, assigned in declaration order. Set-up goes
  // quiet only after every accept AND every connect ACK has landed, so
  // the sender side holds its ConnId before the motif's first send.
  channels_.resize(channels.size());
  for (motifs::ChannelId id = 0; id < channels.size(); ++id) {
    const motifs::Channel& ch = channels[id];
    ChannelState* slot = &channels_[id];
    slot->ch = ch;
    max_bytes = std::max(max_bytes, ch.bytes);
    stacks_[ch.dst]->listen(
        port, [slot](sockets::ConnId conn) { slot->recv_conn = conn; });
    stacks_[ch.src]->connect(
        ch.dst, port, [slot](sockets::ConnId conn) { slot->send_conn = conn; });
    ++port;
  }
  scratch_.assign(static_cast<std::size_t>(cluster_.num_shards()),
                  std::vector<std::byte>(max_bytes, std::byte{0}));
}

void SocketsTransport::recv_post(motifs::ChannelId) {
  // Receiver-managed placement: the stack owns its segment ring; arming a
  // receive requires no action and no message (paper §IV-B).
}

void SocketsTransport::send(motifs::ChannelId id, std::function<void()> done) {
  ChannelState& cs = channels_[id];
  ++cs.sent;
  stacks_[cs.ch.src]->send(cs.send_conn, scratch_for(cs.ch.src).data(),
                           cs.ch.bytes);
  // Stream semantics: the send is fire-and-forget; the sender's buffer is
  // reusable as soon as the stack has staged the put.
  cluster_.engine_for(cs.ch.src).schedule(0, std::move(done));
}

void SocketsTransport::drain(motifs::ChannelId id) {
  ChannelState& cs = channels_[id];
  sockets::SocketStack& stack = *stacks_[cs.ch.dst];
  std::vector<std::byte>& sink = scratch_for(cs.ch.dst);
  while (cs.draining > 0) {
    const std::uint64_t got =
        stack.recv(cs.recv_conn, sink.data(),
                   std::min<std::uint64_t>(cs.draining, sink.size()));
    if (got == 0) break;
    cs.draining -= got;
  }
  if (cs.draining > 0) {
    stack.recv_wait(cs.recv_conn, [this, id] { drain(id); });
    return;
  }
  cs.waiter.take()();
}

void SocketsTransport::recv_wait(motifs::ChannelId id,
                                 std::function<void()> done) {
  ChannelState& cs = channels_[id];
  cs.waiter.park(std::move(done));
  cs.draining = cs.ch.bytes;
  drain(id);
}

const motifs::TransportStats& SocketsTransport::stats() const {
  stats_ = motifs::TransportStats{};
  for (const ChannelState& cs : channels_) stats_.data_messages += cs.sent;
  return stats_;
}

// ---------------------------------------------------------------- portals

PortalsTransport::PortalsTransport(cluster::Cluster& cluster,
                                   const core::RvmaParams& params)
    : motifs::RvmaTransport(cluster, params),
      match_lists_(static_cast<std::size_t>(cluster.num_nodes())) {
  // Each node's matching unit counts into its own shard's registry,
  // resolved once per shard.
  std::vector<MatchCounters> by_shard;
  by_shard.reserve(static_cast<std::size_t>(cluster.num_shards()));
  for (int k = 0; k < cluster.num_shards(); ++k) {
    obs::MetricsRegistry& registry = cluster.metrics_for_shard(k);
    by_shard.push_back({&registry.counter("portals.entries_traversed"),
                        &registry.counter("portals.matches")});
  }
  match_counters_.reserve(match_lists_.size());
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    match_counters_.push_back(
        by_shard[static_cast<std::size_t>(cluster.shard_of_node(node))]);
  }
}

void PortalsTransport::setup(const std::vector<motifs::Channel>& channels) {
  // Each posted receive as a persistent match entry: source-qualified,
  // exact match bits, appended in channel declaration order.
  for (const motifs::Channel& ch : channels) {
    match_lists_[ch.dst].append(portals::MatchEntry{
        .match_bits = ch.tag,
        .source = ch.src,
        .use_once = false,
    });
  }
  motifs::RvmaTransport::setup(channels);
}

void PortalsTransport::recv_wait(motifs::ChannelId id,
                                 std::function<void()> done) {
  // The matching unit's list walk for the message this wait consumes,
  // and the entries it touched — the cost a single-lookup LUT never pays.
  // Entries are persistent and every message is consumed once, on the
  // receiver's shard, so the totals equal one walk per arrival.
  const motifs::Channel& ch = channel(id);
  portals::MatchList& list = match_lists_[ch.dst];
  const MatchCounters& counters = match_counters_[ch.dst];
  const std::uint64_t before = list.entries_traversed();
  list.match(ch.src, ch.tag);
  counters.traversed->inc(list.entries_traversed() - before);
  counters.matched->inc();
  motifs::RvmaTransport::recv_wait(id, std::move(done));
}

// --------------------------------------------------------- registration

void register_builtin_transports(Registry<TransportEntry>& reg) {
  reg.add("rvma",
          {"RVMA mailboxes: byte-threshold windows, no handshakes",
           [](cluster::Cluster& cluster, const ScenarioSpec&) {
             return std::unique_ptr<motifs::Transport>(
                 std::make_unique<motifs::RvmaTransport>(cluster,
                                                         core::RvmaParams{}));
           }});
  reg.add("rdma",
          {"RDMA baseline: buffer negotiation, credits, CQ completions",
           [](cluster::Cluster& cluster, const ScenarioSpec& spec) {
             net::Routing routing = net::Routing::kStatic;
             parse_routing(spec.routing, &routing);
             return std::unique_ptr<motifs::Transport>(
                 std::make_unique<motifs::RdmaTransport>(
                     cluster, rdma::RdmaParams{},
                     routing == net::Routing::kStatic, spec.rdma_slots));
           }});
  reg.add("sockets",
          {"stream sockets over receiver-managed RVMA mailboxes",
           [](cluster::Cluster& cluster, const ScenarioSpec&) {
             return std::unique_ptr<motifs::Transport>(
                 std::make_unique<SocketsTransport>(cluster,
                                                    sockets::SocketParams{}));
           }});
  reg.add("rma",
          {"op-counted RVMA epochs: one operation completes a message",
           [](cluster::Cluster& cluster, const ScenarioSpec&) {
             return std::unique_ptr<motifs::Transport>(
                 std::make_unique<motifs::RvmaTransport>(
                     cluster, core::RvmaParams{}, core::EpochType::kOps));
           }});
  reg.add("portals",
          {"RVMA wire with Portals-style match-list receive resolution",
           [](cluster::Cluster& cluster, const ScenarioSpec&) {
             return std::unique_ptr<motifs::Transport>(
                 std::make_unique<PortalsTransport>(cluster,
                                                    core::RvmaParams{}));
           }});
}

}  // namespace rvma::scenario
