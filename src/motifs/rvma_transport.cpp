#include "cluster/cluster.hpp"
#include "motifs/rvma_transport.hpp"

namespace rvma::motifs {

RvmaTransport::RvmaTransport(cluster::Cluster& cluster,
                             const core::RvmaParams& params,
                             core::EpochType epoch)
    : cluster_(cluster), epoch_(epoch) {
  // Every endpoint on a shard counts into the same instruments.
  std::vector<core::RvmaInstruments> instruments;
  instruments.reserve(static_cast<std::size_t>(cluster.num_shards()));
  for (int k = 0; k < cluster.num_shards(); ++k) {
    instruments.emplace_back(cluster.metrics_for_shard(k));
  }
  endpoints_.reserve(cluster.num_nodes());
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    endpoints_.push_back(std::make_unique<core::RvmaEndpoint>(
        cluster.nic(node), params,
        instruments[static_cast<std::size_t>(cluster.shard_of_node(node))]));
  }
}

void RvmaTransport::setup(const std::vector<Channel>& channels) {
  channels_.resize(channels.size());
  // Receiver-side, purely local: create windows, fill buckets, install
  // the per-mailbox completion observers.
  for (ChannelId id = 0; id < channels.size(); ++id) {
    ChannelState& cs = channels_[id];
    cs.ch = channels[id];
    cs.remaining_posts = cs.ch.count;
    const std::uint64_t vaddr = vaddr_of(id);
    core::RvmaEndpoint& ep = *endpoints_[cs.ch.dst];
    ep.init_window(vaddr,
                   epoch_ == core::EpochType::kOps
                       ? 1
                       : static_cast<std::int64_t>(cs.ch.bytes),
                   epoch_);
    for (int i = 0; i < kBucketDepth && cs.remaining_posts > 0; ++i) {
      ep.post_buffer_timing_only(vaddr, cs.ch.bytes);
      --cs.remaining_posts;
    }
    ep.set_completion_observer(vaddr, [this, id](void*, std::int64_t) {
      ChannelState& cs = channels_[id];
      ++cs.completed;
      // Top the bucket back up — a local post, no coordination message.
      if (cs.remaining_posts > 0) {
        endpoints_[cs.ch.dst]->post_buffer_timing_only(vaddr_of(id),
                                                       cs.ch.bytes);
        --cs.remaining_posts;
      }
      if (!cs.waiter.empty() && cs.completed > cs.consumed) {
        ++cs.consumed;
        cs.waiter.take()();
      }
    });
  }
  // No network traffic: set-up is quiet, and channels usable, at once.
}

void RvmaTransport::recv_post(ChannelId) {
  // Buffers are managed locally by the completion observer's bucket
  // top-up; posting a receive requires no action and, critically, no
  // network message.
}

void RvmaTransport::send(ChannelId id, std::function<void()> done) {
  ChannelState& cs = channels_[id];
  ++cs.sent;
  endpoints_[cs.ch.src]->put(cs.ch.dst, vaddr_of(id), 0, nullptr, cs.ch.bytes,
                             std::move(done));
}

void RvmaTransport::recv_wait(ChannelId id, std::function<void()> done) {
  ChannelState& cs = channels_[id];
  if (cs.completed > cs.consumed) {
    ++cs.consumed;
    cluster_.engine_for(cs.ch.dst).schedule(0, std::move(done));
    return;
  }
  cs.waiter.park(std::move(done));
}

const TransportStats& RvmaTransport::stats() const {
  stats_ = TransportStats{};
  for (const ChannelState& cs : channels_) stats_.data_messages += cs.sent;
  return stats_;
}

}  // namespace rvma::motifs
