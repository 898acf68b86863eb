// NIC and host-interface model.
//
// The NIC sits between protocol endpoints (RDMA baseline, RVMA core) and
// the switch fabric. Its job here: charge the host-side costs every message
// pays regardless of protocol — send-posting software overhead, the PCIe
// doorbell/descriptor crossing (150 ns in the paper's SST models), MTU
// segmentation on transmit, and per-packet receive processing — then
// dispatch received packets to the protocol endpoint that owns them.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace rvma::nic {

using net::Message;
using net::MsgId;
using net::NodeId;
using net::Packet;

struct NicParams {
  std::uint32_t mtu = 4096;          ///< max payload bytes per packet
  std::uint32_t header_bytes = 32;   ///< per-packet wire header
  Time host_overhead = 50 * kNanosecond;  ///< software cost to post a send
  Time pcie_latency = 150 * kNanosecond;  ///< host <-> NIC crossing (paper)
  Time rx_proc = 10 * kNanosecond;        ///< per-packet receive pipeline
  /// Transmit-queue depth expressed as injection-link backlog time; sends
  /// that would exceed it wait in the host. The default models the paper's
  /// "ample queue depths on the simulated NIC" (never a constraint).
  Time tx_queue_limit = kTimeInfinity;
  /// RDMAbox-style doorbell batching: a descriptor posted while an
  /// earlier doorbell's PCIe crossing is still in flight rides that
  /// crossing instead of ringing again, up to this many descriptors per
  /// doorbell. 1 rings per message — the paper's baseline, and byte-
  /// identical to the model before this knob existed.
  std::uint32_t doorbell_batch = 1;
};

/// Protocol class identifiers used in WireHeader::kind (proto << 8 | op).
inline constexpr std::uint32_t kProtoRdma = 1;
inline constexpr std::uint32_t kProtoRvma = 2;
inline constexpr std::uint32_t kMaxProto = 4;

class Nic {
 public:
  using PacketHandler = std::function<void(const Packet&)>;
  /// Invoked when the last packet of a message has been handed to the
  /// injection link (the send buffer is owned by the NIC from then on).
  using SendDone = std::function<void()>;

  /// `metrics` is the shared Cluster registry; nullptr gives this NIC a
  /// private one (standalone construction in unit tests). Its `nic.*`
  /// counters are the only record of what the NICs sent and received:
  /// fleet-wide aggregates over every NIC sharing the registry.
  Nic(sim::Engine& engine, net::Network& network, NodeId node,
      const NicParams& params, obs::MetricsRegistry* metrics = nullptr);

  NodeId node() const { return node_; }
  /// Nodes on this NIC's network; valid destinations are [0, num_nodes()).
  int num_nodes() const { return network_.num_nodes(); }
  const NicParams& params() const { return params_; }
  sim::Engine& engine() { return engine_; }
  /// Registry this NIC records into — protocol endpoints layered on the
  /// NIC resolve their instruments here.
  obs::MetricsRegistry& metrics() { return *metrics_; }

  /// Post a message for transmission. Charges host overhead + PCIe, then
  /// segments into MTU packets and injects them. Assigns msg.id if zero.
  void send(Message msg, SendDone on_sent = {});

  /// Register the handler for a protocol class (kProtoRdma / kProtoRvma)
  /// and process id; packets dispatch on (proto, hdr.dst_pid), so several
  /// endpoints (processes) can share the NIC.
  void register_proto(std::uint32_t proto, PacketHandler handler,
                      net::Pid pid = 0);

  /// Descriptors waiting in the host-side transmit queue right now — a
  /// sampler gauge provider.
  std::int64_t tx_queue_depth() const {
    return static_cast<std::int64_t>(tx_queue_.size());
  }

 private:
  void handle_delivery(Packet&& pkt);
  void inject_message(net::MsgRef msg, SendDone on_sent);
  void drain_tx_queue();

  sim::Engine& engine_;
  net::Network& network_;
  NodeId node_;
  NicParams params_;
  // Flat dense dispatch: dispatch_[proto][pid]. Registration is cold and
  // sizes the per-proto vector to the largest pid seen; delivery is two
  // bounds checks and two indexed loads — no hashing on the per-packet path.
  std::array<std::vector<PacketHandler>, kMaxProto> dispatch_;
  std::uint64_t next_msg_seq_ = 1;
  std::deque<std::pair<net::MsgRef, SendDone>> tx_queue_;
  bool drain_scheduled_ = false;
  /// Doorbell batching state: when the last rung doorbell's descriptor
  /// fetch completes, and how many descriptors ride it so far.
  Time doorbell_arrival_ = 0;
  std::uint32_t doorbell_count_ = 0;
  /// Segmentation buffer reused across sends; Fabric::inject_burst
  /// consumes the contents but preserves the capacity, so steady-state
  /// multi-packet sends allocate nothing.
  std::vector<Packet> burst_scratch_;

  /// Registry counters (shared across all NICs on a Cluster), resolved
  /// once at construction.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  obs::Counter* c_messages_sent_;
  obs::Counter* c_messages_injected_;
  obs::Counter* c_packets_received_;
  obs::Counter* c_tx_queue_stalls_;
  obs::Counter* c_drops_no_handler_;
  obs::Counter* c_doorbells_;
  obs::Counter* c_doorbells_merged_;
};

}  // namespace rvma::nic
