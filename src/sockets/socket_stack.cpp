#include "sockets/socket_stack.hpp"

#include <cassert>
#include <cstring>

namespace rvma::sockets {

using core::EpochType;
using core::Placement;

SocketInstruments::SocketInstruments(obs::MetricsRegistry& m)
    : connections_accepted(&m.counter("sockets.connections_accepted")),
      connections_opened(&m.counter("sockets.connections_opened")),
      bytes_sent(&m.counter("sockets.bytes_sent")),
      bytes_received(&m.counter("sockets.bytes_received")),
      segments_completed(&m.counter("sockets.segments_completed")),
      partial_claims(&m.counter("sockets.partial_claims")) {}

SocketStack::SocketStack(core::RvmaEndpoint& ep, const SocketParams& params)
    : SocketStack(ep, params, SocketInstruments(ep.metrics())) {}

SocketStack::SocketStack(core::RvmaEndpoint& ep, const SocketParams& params,
                         const SocketInstruments& instruments)
    : ep_(ep), params_(params), ins_(instruments) {
  // Control mailbox: one SYN/ACK record per posted buffer (ops-threshold 1).
  ep_.init_window(kCtrlVaddr, 1, EpochType::kOps);
  for (int i = 0; i < params_.ctrl_ring; ++i) post_ctrl_buffer();
  ep_.set_completion_observer(
      kCtrlVaddr, [this](void* buf, std::int64_t len) {
        assert(len >= static_cast<std::int64_t>(sizeof(CtrlRecord)));
        (void)len;
        CtrlRecord record;
        std::memcpy(&record, buf, sizeof record);
        // Recycle the slot before handling (handling may send replies).
        ep_.post_buffer(kCtrlVaddr,
                        std::span<std::byte>(static_cast<std::byte*>(buf),
                                             sizeof(CtrlRecord)),
                        nullptr, nullptr);
        handle_ctrl(record);
      });
}

void SocketStack::post_ctrl_buffer() {
  ctrl_slots_.push_back(std::make_unique<CtrlRecord>());
  const Status st = ep_.post_buffer(
      kCtrlVaddr,
      std::span<std::byte>(
          reinterpret_cast<std::byte*>(ctrl_slots_.back().get()),
          sizeof(CtrlRecord)),
      nullptr, nullptr);
  assert(ok(st));
  (void)st;
}

void SocketStack::send_ctrl(NodeId to, const CtrlRecord& record) {
  std::vector<std::byte> payload(sizeof(CtrlRecord));
  std::memcpy(payload.data(), &record, sizeof record);
  ep_.put_owned(to, kCtrlVaddr, 0, std::move(payload));
}

void SocketStack::listen(std::uint16_t port,
                         std::function<void(ConnId)> on_accept) {
  listeners_[port] = std::move(on_accept);
}

void SocketStack::post_segment(Connection& conn) {
  auto& slot = conn.ring[conn.next_slot];
  conn.next_slot = (conn.next_slot + 1) % static_cast<int>(conn.ring.size());
  const Status st = ep_.post_buffer(
      conn.rx_vaddr, std::span<std::byte>(slot.data(), slot.size()), nullptr,
      nullptr);
  assert(ok(st));
  (void)st;
}

void SocketStack::setup_rx(ConnId id, Connection& conn) {
  conn.rx_vaddr = data_vaddr(id);
  conn.ring.assign(params_.ring_depth,
                   std::vector<std::byte>(params_.segment_bytes));
  ep_.init_window(conn.rx_vaddr,
                  static_cast<std::int64_t>(params_.segment_bytes),
                  EpochType::kBytes, Placement::kManaged);
  for (int i = 0; i < params_.ring_depth; ++i) post_segment(conn);
  ep_.set_completion_observer(conn.rx_vaddr,
                              [this, id](void* buf, std::int64_t len) {
                                on_segment_complete(id, buf, len);
                              });
  // Interrupt-driven receive: if an application is blocked in recv_wait
  // when data lands in a not-yet-full segment, claim the partial segment
  // immediately (the paper's inc_epoch stream-semantics use case).
  ep_.set_op_observer(conn.rx_vaddr,
                      [this, id](std::int64_t, std::uint64_t bytes) {
                        const auto it = conns_.find(id);
                        if (it == conns_.end()) return;
                        if (!it->second.waiters.empty() && bytes > 0) {
                          ins_.partial_claims->inc();
                          ep_.inc_epoch(it->second.rx_vaddr);
                        }
                      });
}

void SocketStack::connect(NodeId server, std::uint16_t port,
                          std::function<void(ConnId)> on_connected) {
  const ConnId id = next_conn_++;
  Connection& conn = conns_[id];
  conn.peer_node = server;
  conn.on_connected = std::move(on_connected);
  setup_rx(id, conn);

  CtrlRecord syn;
  syn.kind = 1;
  syn.port = port;
  syn.peer_node = ep_.node();
  syn.peer_conn = id;
  send_ctrl(server, syn);
}

void SocketStack::handle_ctrl(const CtrlRecord& record) {
  if (record.kind == 1) {  // SYN
    const auto it = listeners_.find(static_cast<std::uint16_t>(record.port));
    if (it == listeners_.end()) return;  // no listener: connection refused

    const ConnId id = next_conn_++;
    Connection& conn = conns_[id];
    conn.peer_node = record.peer_node;
    conn.peer_conn = record.peer_conn;
    conn.established = true;
    setup_rx(id, conn);
    ins_.connections_accepted->inc();

    CtrlRecord ack;
    ack.kind = 2;
    ack.peer_node = ep_.node();
    ack.peer_conn = id;
    ack.dst_conn = record.peer_conn;
    send_ctrl(record.peer_node, ack);
    it->second(id);
    return;
  }
  if (record.kind == 2) {  // ACK
    const auto it = conns_.find(record.dst_conn);
    if (it == conns_.end()) return;
    Connection& conn = it->second;
    conn.peer_conn = record.peer_conn;
    conn.established = true;
    ins_.connections_opened->inc();
    if (conn.on_connected) {
      auto fn = std::move(conn.on_connected);
      fn(record.dst_conn);
    }
  }
}

Status SocketStack::send(ConnId conn_id, const std::byte* data,
                         std::uint64_t bytes) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return Status::kInvalidArg;
  Connection& conn = it->second;
  if (!conn.established) return Status::kNotReady;
  // A plain put: the receiver appends wherever its stream cursor is.
  std::vector<std::byte> copy(data, data + bytes);
  ep_.put_owned(conn.peer_node, data_vaddr(conn.peer_conn), 0,
                std::move(copy));
  ins_.bytes_sent->inc(bytes);
  return Status::kOk;
}

void SocketStack::on_segment_complete(ConnId id, void* buf,
                                      std::int64_t len) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  ins_.segments_completed->inc();
  ins_.bytes_received->inc(static_cast<std::uint64_t>(len));
  if (len > 0) {
    conn.completed.emplace_back(static_cast<const std::byte*>(buf),
                                static_cast<std::uint64_t>(len));
  } else {
    // Empty claim: recycle the slot immediately.
    post_segment(conn);
  }
  if (!conn.waiters.empty() && available(id) > 0) {
    auto waiters = std::move(conn.waiters);
    conn.waiters.clear();
    for (auto& fn : waiters) fn();
  }
}

std::uint64_t SocketStack::available(ConnId conn_id) const {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return 0;
  std::uint64_t total = 0;
  for (const auto& [ptr, len] : it->second.completed) total += len;
  return total - it->second.read_cursor;
}

std::uint64_t SocketStack::recv(ConnId conn_id, std::byte* dst,
                                std::uint64_t max) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return 0;
  Connection& conn = it->second;
  std::uint64_t copied = 0;
  while (copied < max && !conn.completed.empty()) {
    auto& [ptr, len] = conn.completed.front();
    const std::uint64_t take =
        std::min(max - copied, len - conn.read_cursor);
    std::memcpy(dst + copied, ptr + conn.read_cursor, take);
    copied += take;
    conn.read_cursor += take;
    if (conn.read_cursor == len) {
      // Segment fully drained: hand its memory back to the ring. The
      // pointer identifies the slot (posting order is ring order).
      conn.completed.pop_front();
      conn.read_cursor = 0;
      post_segment(conn);
    }
  }
  return copied;
}

void SocketStack::recv_wait(ConnId conn_id, std::function<void()> fn) {
  if (available(conn_id) > 0) {
    ep_.engine().schedule(0, std::move(fn));
    return;
  }
  Connection& conn = conns_[conn_id];
  conn.waiters.push_back(std::move(fn));
  // Data may already be sitting in a partial segment: claim it now.
  const core::Mailbox* mb = ep_.find_mailbox(conn.rx_vaddr);
  if (mb != nullptr && mb->has_active() && mb->active().bytes_received > 0) {
    ins_.partial_claims->inc();
    ep_.inc_epoch(conn.rx_vaddr);
  }
}

Status SocketStack::claim_partial(ConnId conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return Status::kInvalidArg;
  const core::Mailbox* mb = ep_.find_mailbox(it->second.rx_vaddr);
  if (mb == nullptr || !mb->has_active()) return Status::kNoBuffer;
  if (mb->active().bytes_received == 0) return Status::kNotReady;
  ins_.partial_claims->inc();
  return ep_.inc_epoch(it->second.rx_vaddr);
}

Status SocketStack::close(ConnId conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return Status::kInvalidArg;
  return ep_.close_window(it->second.rx_vaddr);
}

}  // namespace rvma::sockets
