// RVMA-backed motif transport.
//
// Setup is purely local: the receiver creates one mailbox per channel and
// posts a bucket of timing-only buffers (threshold = message bytes). No
// address exchange crosses the network. Senders fire RVMA_Puts and
// continue; receivers observe hardware completions via the completion
// pointer (Monitor/MWait wake). The receiver tops its bucket up locally as
// buffers complete — the paper's RVMA_Win_get_epoch "keep N buffers
// posted" pattern — so senders never stall on the receiver.
//
// The epoch type picks what completes a buffer: kBytes (the "rvma"
// transport) counts the message's bytes, kOps (the "rma" transport)
// counts one operation, so a put completes its buffer regardless of
// length — the RMA epoch primitive src/rma builds its fences on.
#pragma once

#include <memory>

#include "core/endpoint.hpp"
#include "motifs/transport.hpp"
#include "cluster/cluster.hpp"

namespace rvma::motifs {

class RvmaTransport : public Transport {
 public:
  RvmaTransport(cluster::Cluster& cluster, const core::RvmaParams& params,
                core::EpochType epoch = core::EpochType::kBytes);

  std::string name() const override {
    return epoch_ == core::EpochType::kOps ? "rma" : "rvma";
  }
  void setup(const std::vector<Channel>& channels) override;
  void recv_post(ChannelId ch) override;
  void send(ChannelId ch, std::function<void()> done) override;
  void recv_wait(ChannelId ch, std::function<void()> done) override;
  const TransportStats& stats() const override;

  core::RvmaEndpoint& endpoint(int node) { return *endpoints_[node]; }

 protected:
  const Channel& channel(ChannelId id) const { return channels_[id].ch; }

 private:
  /// Buffers kept posted per mailbox at any time.
  static constexpr int kBucketDepth = 16;

  struct ChannelState {
    Channel ch;
    std::uint64_t sent = 0;     ///< written only on src's shard thread
    int remaining_posts = 0;    ///< buffers not yet posted
    std::uint64_t completed = 0;
    std::uint64_t consumed = 0;
    WaiterSlot waiter;
  };

  /// Channel `id`'s mailbox: one per channel, numbered in channel order.
  static std::uint64_t vaddr_of(ChannelId id) {
    return 0x11FF0000 + id;  // mailbox namespace
  }

  cluster::Cluster& cluster_;
  core::EpochType epoch_;
  std::vector<std::unique_ptr<core::RvmaEndpoint>> endpoints_;
  std::vector<ChannelState> channels_;  ///< indexed by ChannelId
  /// Aggregated from per-channel counters on demand: channel counters are
  /// single-writer on a sharded cluster, a shared total would race.
  mutable TransportStats stats_;
};

}  // namespace rvma::motifs
