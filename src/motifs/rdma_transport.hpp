// RDMA-backed motif transport (the baseline the paper compares against).
//
// Setup: one buffer-negotiation handshake per channel — the initiator asks
// the target to allocate and register a region and ships back its address
// and length (Fig. 1 steps 1-3).
//
// Steady state per message:
//  * the receiver returns a credit (a small send) when it re-arms the
//    channel's buffer slot — RDMA targets must coordinate buffer reuse with
//    initiators because initiators "own" the remote region;
//  * the sender puts the payload once it holds a credit and continues when
//    its CQ reports local completion (target-NIC ack);
//  * completion at the target: under static routing, the last-byte polling
//    cheat; under adaptive routing, the InfiniBand-spec-compliant trailing
//    send/recv, observed through the shared recv CQ with its polling cost.
//
// RVMA removes every one of these control messages; this class exists so
// the benches can measure exactly how much they cost.
#pragma once

#include <memory>

#include "motifs/transport.hpp"
#include "cluster/cluster.hpp"
#include "rdma/rdma.hpp"

namespace rvma::motifs {

class RdmaTransport final : public Transport {
 public:
  /// `ordered_network`: true when the fabric is statically routed (byte
  /// ordering holds), enabling the last-byte completion cheat. `slots`:
  /// registered buffer slots per channel (credit pipeline depth).
  RdmaTransport(cluster::Cluster& cluster, const rdma::RdmaParams& params,
                bool ordered_network, int slots = 1);

  std::string name() const override {
    return ordered_network_ ? "rdma-static" : "rdma-adaptive";
  }
  void setup(const std::vector<Channel>& channels) override;
  void recv_post(ChannelId ch) override;
  void send(ChannelId ch, std::function<void()> done) override;
  void recv_wait(ChannelId ch, std::function<void()> done) override;
  const TransportStats& stats() const override;

  rdma::RdmaEndpoint& endpoint(int node) { return *endpoints_[node]; }

 private:
  // The two halves of a ChannelState are touched from two different shard
  // threads on a sharded cluster: sender-side fields only from events on
  // shard_of(src) (send/issue_send and the credit arrivals pumped through
  // src's recv CQ), receiver-side fields only from events on shard_of(dst)
  // (recv_post/recv_wait, last-byte polls, completion sends through dst's
  // CQ). For the same reason each control message and credit stall counts
  // into the registry of the node whose event counts it (counters()).
  struct ChannelState {
    Channel ch;
    // Sender side.
    rdma::RemoteBuffer remote;
    int credits = 0;
    std::uint64_t send_seq = 0;  ///< data messages put on this channel
    WaiterSlot credit_waiter;    ///< a send stalled for credit
    // Receiver side.
    std::uint64_t region_addr = 0;
    std::uint64_t arm_seq = 0;
    std::uint64_t credits_granted = 0;  ///< credits sent to the initiator
    std::uint64_t pending_posts = 0;    ///< recv_posts waiting for a slot
    std::uint64_t completed = 0;
    std::uint64_t consumed = 0;
    WaiterSlot waiter;
  };

  // Control-message immediate encoding: (type << 32) | ChannelId.
  static constexpr std::uint64_t kImmCredit = 1;
  static constexpr std::uint64_t kImmComplete = 2;

  void issue_send(ChannelId id, std::function<void()> done);
  void on_channel_complete(ChannelId id);
  void grant_credit(ChannelId id);
  void pump_cq(int node);

  cluster::Cluster& cluster_;
  rdma::RdmaParams params_;
  bool ordered_network_;
  int slots_;
  std::vector<std::unique_ptr<rdma::RdmaEndpoint>> endpoints_;
  std::vector<ChannelState> channels_;  ///< indexed by ChannelId
  /// `rdma.control_messages` (handshakes, credits, trailing completion
  /// sends) and `rdma.credit_stalls` on each shard's registry, indexed by
  /// shard.
  struct ShardCounters {
    obs::Counter* control;
    obs::Counter* stalls;
  };
  const ShardCounters& counters(int node) const {
    return shard_counters_[static_cast<std::size_t>(
        cluster_.shard_of_node(node))];
  }
  std::vector<ShardCounters> shard_counters_;
  mutable TransportStats stats_;  ///< scratch for stats() assembly
};

}  // namespace rvma::motifs
