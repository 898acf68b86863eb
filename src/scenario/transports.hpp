// Scenario transport adapters beyond the rvma/rdma motif transports:
// sockets (receiver-managed stream middleware) and portals (list matching
// on the receive path). Each implements the motifs::Transport interface
// so any registered motif runs over any registered backend; "rma" is
// motifs::RvmaTransport with op-counted epochs.
#pragma once

#include <memory>

#include "core/endpoint.hpp"
#include "motifs/rvma_transport.hpp"
#include "motifs/transport.hpp"
#include "cluster/cluster.hpp"
#include "portals/match_list.hpp"
#include "sockets/socket_stack.hpp"

namespace rvma::scenario {

/// Messages as stream writes over the sockets middleware (paper §IV-B):
/// one connection per channel, send() is a fire-and-forget stream write,
/// recv_wait() consumes exactly one message's bytes off the stream. No
/// per-message coordination — but also no message boundaries, so the
/// receiver counts bytes.
class SocketsTransport final : public motifs::Transport {
 public:
  SocketsTransport(cluster::Cluster& cluster,
                   const sockets::SocketParams& params);

  std::string name() const override { return "sockets"; }
  void setup(const std::vector<motifs::Channel>& channels) override;
  void recv_post(motifs::ChannelId ch) override;
  void send(motifs::ChannelId ch, std::function<void()> done) override;
  void recv_wait(motifs::ChannelId ch, std::function<void()> done) override;
  const motifs::TransportStats& stats() const override;

  sockets::SocketStack& stack(int node) { return *stacks_[node]; }

 private:
  struct ChannelState {
    motifs::Channel ch;
    sockets::ConnId send_conn = 0;  ///< valid on the src node's stack
    sockets::ConnId recv_conn = 0;  ///< valid on the dst node's stack
    /// Bytes of the message currently being drained by recv_wait.
    std::uint64_t draining = 0;
    std::uint64_t sent = 0;  ///< written only on src's shard thread
    motifs::WaiterSlot waiter;
  };

  void drain(motifs::ChannelId id);
  /// Payload source and receive sink for timing-only messages. Receives
  /// write it, so each shard has its own.
  std::vector<std::byte>& scratch_for(int node) {
    return scratch_[static_cast<std::size_t>(cluster_.shard_of_node(node))];
  }

  cluster::Cluster& cluster_;
  std::vector<std::unique_ptr<core::RvmaEndpoint>> endpoints_;
  std::vector<std::unique_ptr<sockets::SocketStack>> stacks_;
  std::vector<ChannelState> channels_;  ///< indexed by ChannelId
  std::vector<std::vector<std::byte>> scratch_;  ///< per shard
  mutable motifs::TransportStats stats_;  ///< scratch for stats()
};

/// RVMA wire with Portals-style receive-side resolution: every channel's
/// posted receive is a persistent match-list entry, and each consumed
/// message walks its node's posted-order list (paper §II / §IV-A). The
/// walk changes no timing here — it quantifies the matching work RVMA's
/// single-lookup LUT avoids, surfaced via the portals.* registry counters.
class PortalsTransport final : public motifs::RvmaTransport {
 public:
  PortalsTransport(cluster::Cluster& cluster, const core::RvmaParams& params);

  std::string name() const override { return "portals"; }
  void setup(const std::vector<motifs::Channel>& channels) override;
  void recv_wait(motifs::ChannelId ch, std::function<void()> done) override;

  const portals::MatchList& match_list(int node) const {
    return match_lists_[node];
  }

 private:
  /// A node's portals.* registry counters, in its own shard's registry.
  struct MatchCounters {
    obs::Counter* traversed = nullptr;
    obs::Counter* matched = nullptr;
  };

  std::vector<portals::MatchList> match_lists_;  ///< per node
  std::vector<MatchCounters> match_counters_;    ///< per node
};

}  // namespace rvma::scenario
