#include "cluster/cluster.hpp"
#include "motifs/rdma_transport.hpp"

#include <cassert>

namespace rvma::motifs {

RdmaTransport::RdmaTransport(cluster::Cluster& cluster,
                             const rdma::RdmaParams& params,
                             bool ordered_network, int slots)
    : cluster_(cluster),
      params_(params),
      ordered_network_(ordered_network),
      slots_(slots < 1 ? 1 : slots) {
  // Every endpoint on a shard counts into the same instruments.
  std::vector<rdma::RdmaInstruments> instruments;
  instruments.reserve(static_cast<std::size_t>(cluster.num_shards()));
  shard_counters_.reserve(static_cast<std::size_t>(cluster.num_shards()));
  for (int k = 0; k < cluster.num_shards(); ++k) {
    obs::MetricsRegistry& registry = cluster.metrics_for_shard(k);
    instruments.emplace_back(registry);
    shard_counters_.push_back({&registry.counter("rdma.control_messages"),
                               &registry.counter("rdma.credit_stalls")});
  }
  endpoints_.reserve(cluster.num_nodes());
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    endpoints_.push_back(std::make_unique<rdma::RdmaEndpoint>(
        cluster.nic(node), params,
        instruments[static_cast<std::size_t>(cluster.shard_of_node(node))]));
  }
}

void RdmaTransport::setup(const std::vector<Channel>& channels) {
  channels_.resize(channels.size());
  for (ChannelId id = 0; id < channels.size(); ++id) {
    channels_[id].ch = channels[id];
  }

  // Target-side middleware: allocate timing-only regions for handshakes and
  // record each channel's region address (needed to arm last-byte polls).
  for (auto& ep : endpoints_) {
    ep->serve_buffer_requests(
        [](std::uint64_t, std::uint64_t) { return std::span<std::byte>{}; },
        [this](std::uint64_t id, std::uint64_t addr, std::uint64_t) {
          channels_[id].region_addr = addr;
        });
  }
  // Shared recv-CQ pump per node: credits and completion sends arrive here.
  for (int node = 0; node < cluster_.num_nodes(); ++node) {
    pump_cq(node);
  }

  // One negotiation handshake per channel, all in flight concurrently;
  // each reply lands on the initiator's shard.
  for (ChannelId id = 0; id < channels_.size(); ++id) {
    ChannelState* cs = &channels_[id];
    counters(cs->ch.src).control->inc(2);  // request + reply
    endpoints_[cs->ch.src]->request_buffer(
        cs->ch.dst, cs->ch.bytes * static_cast<std::uint64_t>(slots_),
        [cs](rdma::RemoteBuffer rb) { cs->remote = rb; }, id);
  }
}

void RdmaTransport::pump_cq(int node) {
  endpoints_[node]->post_recv([this, node](const rdma::Completion& entry) {
    const std::uint64_t type = entry.imm >> 32;
    const auto id = static_cast<ChannelId>(entry.imm & 0xffffffffULL);
    ChannelState& cs = channels_[id];
    if (type == kImmCredit) {
      ++cs.credits;
      if (!cs.credit_waiter.empty()) issue_send(id, cs.credit_waiter.take());
    } else if (type == kImmComplete) {
      on_channel_complete(id);
    }
    pump_cq(node);
  });
}

void RdmaTransport::on_channel_complete(ChannelId id) {
  ChannelState& cs = channels_[id];
  ++cs.completed;
  // A slot just freed up: grant a queued credit, if any.
  if (cs.pending_posts > 0) {
    --cs.pending_posts;
    grant_credit(id);
  }
  if (!cs.waiter.empty() && cs.completed > cs.consumed) {
    ++cs.consumed;
    cs.waiter.take()();
  }
}

void RdmaTransport::grant_credit(ChannelId id) {
  ChannelState& cs = channels_[id];
  if (ordered_network_) {
    // Arm the last-byte poll for the slot this message will land in.
    // The credit below is what authorizes the sender, so the poll is
    // always armed before its byte can be written.
    const std::uint64_t slot = cs.arm_seq % static_cast<std::uint64_t>(slots_);
    ++cs.arm_seq;
    endpoints_[cs.ch.dst]->arm_last_byte_poll(
        cs.region_addr, slot * cs.ch.bytes + cs.ch.bytes,
        [this, id](Time, std::uint64_t) { on_channel_complete(id); });
  }
  // Return a credit: the initiator owns the region, so the target must
  // tell it when a slot is safe to overwrite.
  ++cs.credits_granted;
  counters(cs.ch.dst).control->inc();
  endpoints_[cs.ch.dst]->send(cs.ch.src, (kImmCredit << 32) | id);
}

void RdmaTransport::recv_post(ChannelId id) {
  ChannelState& cs = channels_[id];
  // A credit may only be outstanding while a registered slot is free;
  // posts beyond the slot depth queue until a message completes.
  if (cs.credits_granted - cs.completed <
      static_cast<std::uint64_t>(slots_)) {
    grant_credit(id);
  } else {
    ++cs.pending_posts;
  }
}

void RdmaTransport::send(ChannelId id, std::function<void()> done) {
  ChannelState& cs = channels_[id];
  if (cs.credits == 0) {
    counters(cs.ch.src).stalls->inc();
    cs.credit_waiter.park(std::move(done));
    return;
  }
  issue_send(id, std::move(done));
}

void RdmaTransport::issue_send(ChannelId id, std::function<void()> done) {
  ChannelState& cs = channels_[id];
  assert(cs.credits > 0);
  --cs.credits;
  const std::uint64_t slot = cs.send_seq % static_cast<std::uint64_t>(slots_);
  ++cs.send_seq;
  const int src = cs.ch.src;
  const int dst = cs.ch.dst;
  // The sender pipelines: it continues as soon as the put is handed to the
  // wire (multiple outstanding WRs, as a tuned RDMA application would).
  // The spec-compliant trailing completion send on adaptively routed
  // fabrics still waits for the put's local completion (target-NIC ack),
  // preserving the data-before-notification ordering guarantee.
  endpoints_[src]->put(
      cs.remote, slot * cs.ch.bytes, nullptr, cs.ch.bytes,
      [this, src, dst, id] {
        if (!ordered_network_) {
          // Local completion fires on src's shard thread.
          counters(src).control->inc();
          endpoints_[src]->send(dst, (kImmComplete << 32) | id);
        }
      },
      std::move(done));
}

void RdmaTransport::recv_wait(ChannelId id, std::function<void()> done) {
  ChannelState& cs = channels_[id];
  if (cs.completed > cs.consumed) {
    ++cs.consumed;
    cluster_.engine_for(cs.ch.dst).schedule(0, std::move(done));
    return;
  }
  cs.waiter.park(std::move(done));
}

const TransportStats& RdmaTransport::stats() const {
  // Control messages and stalls are the Cluster registry's totals over all
  // shards: this transport's, as one RDMA transport runs per Cluster.
  const obs::MetricsSnapshot metrics = cluster_.collect_metrics();
  stats_ = TransportStats{};
  for (const ChannelState& cs : channels_) stats_.data_messages += cs.send_seq;
  stats_.control_messages = metrics.counters.at("rdma.control_messages");
  stats_.credit_stalls = metrics.counters.at("rdma.credit_stalls");
  return stats_;
}

}  // namespace rvma::motifs
