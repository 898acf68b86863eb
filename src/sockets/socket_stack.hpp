// Stream sockets over Receiver-Managed RVMA (paper §IV-B).
//
// The paper's alternative placement mode — the NIC counts received bytes
// and places them consecutively, ignoring offsets — exists to "efficiently
// support sockets-based network code with very minimal middleware
// support". This is that middleware:
//
//  * a connection is a pair of receiver-managed mailboxes, one per
//    direction, each holding a ring of segment buffers;
//  * send() is a plain RVMA put; bytes append at the receiver in arrival
//    order and spill across segment boundaries in hardware;
//  * a segment completes (byte threshold = segment size) and surfaces to
//    recv() with no per-message coordination; partially filled segments
//    can be claimed immediately with RVMA_Win_inc_epoch — the paper's
//    stream-semantics use case for that call;
//  * connection setup is one SYN/ACK exchange over a per-node control
//    mailbox (ops-threshold 1 per control record).
//
// One SocketStack instance runs per simulated node.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/endpoint.hpp"

namespace rvma::sockets {

using net::NodeId;

struct SocketParams {
  std::uint64_t segment_bytes = 16 * KiB;  ///< receive segment size
  int ring_depth = 8;                      ///< posted segments per conn
  int ctrl_ring = 16;                      ///< posted control records
};

using ConnId = std::uint32_t;

/// The `sockets.*` instruments a stack counts into, resolved by name from
/// one registry and shared by every stack on it (one per Cluster shard).
struct SocketInstruments {
  explicit SocketInstruments(obs::MetricsRegistry& m);

  obs::Counter* connections_accepted;
  obs::Counter* connections_opened;
  obs::Counter* bytes_sent;
  obs::Counter* bytes_received;
  obs::Counter* segments_completed;
  obs::Counter* partial_claims;  ///< inc_epoch pre-emptions
};

class SocketStack {
 public:
  SocketStack(core::RvmaEndpoint& ep, const SocketParams& params);
  /// As above, counting into `instruments`, resolved from the endpoint's
  /// registry (the constructor above resolves its own).
  SocketStack(core::RvmaEndpoint& ep, const SocketParams& params,
              const SocketInstruments& instruments);

  NodeId node() const { return ep_.node(); }

  /// Accept connections on `port`; `on_accept` fires per new connection.
  void listen(std::uint16_t port, std::function<void(ConnId)> on_accept);

  /// Open a connection to `server`:`port`; `on_connected` fires when the
  /// ACK arrives and both directions are usable.
  void connect(NodeId server, std::uint16_t port,
               std::function<void(ConnId)> on_connected);

  /// Stream `bytes` to the peer. Fire-and-forget: the receiver manages
  /// its own segment ring; no credits, no rendezvous.
  Status send(ConnId conn, const std::byte* data, std::uint64_t bytes);

  /// Bytes currently consumable (completed segments + claimed partials).
  std::uint64_t available(ConnId conn) const;

  /// Consume up to `max` bytes into `dst`; returns the byte count.
  std::uint64_t recv(ConnId conn, std::byte* dst, std::uint64_t max);

  /// Invoke `fn` once available() becomes non-zero (immediately if it is).
  void recv_wait(ConnId conn, std::function<void()> fn);

  /// Claim whatever has arrived in the partially filled current segment
  /// (RVMA_Win_inc_epoch). Returns kNotReady if the segment is empty.
  Status claim_partial(ConnId conn);

  /// Close the receive direction: further peer traffic is NACKed.
  Status close(ConnId conn);

 private:
  struct CtrlRecord {
    std::uint32_t kind = 0;  // 1 = SYN, 2 = ACK
    std::uint32_t port = 0;
    std::int32_t peer_node = -1;
    std::uint32_t peer_conn = 0;
    std::uint32_t dst_conn = 0;  // meaningful for ACK
  };

  struct Connection {
    NodeId peer_node = -1;
    std::uint32_t peer_conn = 0;     ///< peer's ConnId (data mailbox key)
    bool established = false;
    std::uint64_t rx_vaddr = 0;
    // Receive side: ring of segments; completed ones queue for recv().
    std::vector<std::vector<std::byte>> ring;
    int next_slot = 0;
    std::deque<std::pair<const std::byte*, std::uint64_t>> completed;
    std::uint64_t read_cursor = 0;  ///< within completed.front()
    std::vector<std::function<void()>> waiters;
    std::function<void(ConnId)> on_connected;
  };

  static constexpr std::uint64_t kCtrlVaddr = 0x50C7C700;
  std::uint64_t data_vaddr(ConnId conn) const {
    return 0x50DA7A00ULL + conn;
  }

  void post_ctrl_buffer();
  void post_segment(Connection& conn);
  void setup_rx(ConnId id, Connection& conn);
  void handle_ctrl(const CtrlRecord& record);
  void send_ctrl(NodeId to, const CtrlRecord& record);
  void on_segment_complete(ConnId id, void* buf, std::int64_t len);

  core::RvmaEndpoint& ep_;
  SocketParams params_;

  /// The stack's `sockets.*` instruments on its endpoint's registry.
  SocketInstruments ins_;

  std::unordered_map<ConnId, Connection> conns_;
  std::unordered_map<std::uint16_t, std::function<void(ConnId)>> listeners_;
  ConnId next_conn_ = 1;
  std::vector<std::unique_ptr<CtrlRecord>> ctrl_slots_;
  std::deque<std::unique_ptr<std::vector<std::byte>>> tx_staging_;
};

}  // namespace rvma::sockets
