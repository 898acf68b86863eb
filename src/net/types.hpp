// Wire-level types shared by the fabric, NIC models, and protocol layers.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace rvma::net {

using NodeId = std::int32_t;
using MsgId = std::uint64_t;

/// Process id within a node — the PID half of the paper's NID/PID
/// addressing ("if remote process space targeting is desirable", §III-C).
using Pid = std::uint16_t;

/// Protocol header carried by every message/packet. The network treats it
/// as opaque; the RDMA / RVMA endpoint models interpret the fields. `kind`
/// encodes (protocol class << 8) | opcode so one NIC can host several
/// protocol endpoints; `dst_pid`/`src_pid` steer between processes
/// sharing a NIC.
struct WireHeader {
  std::uint32_t kind = 0;   ///< (proto << 8) | op
  Pid dst_pid = 0;          ///< target process on the destination node
  Pid src_pid = 0;          ///< originating process (reply address)
  std::uint64_t addr = 0;   ///< RVMA mailbox vaddr or RDMA remote address
  std::uint64_t offset = 0; ///< byte offset into the target buffer/window
  std::uint64_t imm = 0;    ///< immediate data / auxiliary scalar
  std::uint64_t imm2 = 0;   ///< second auxiliary scalar (lengths, epochs)
};

constexpr std::uint32_t proto_of(std::uint32_t kind) { return kind >> 8; }
constexpr std::uint32_t op_of(std::uint32_t kind) { return kind & 0xff; }
constexpr std::uint32_t make_kind(std::uint32_t proto, std::uint32_t op) {
  return (proto << 8) | op;
}

/// A message as handed to the NIC for transmission. The NIC segments it
/// into MTU-sized packets. `data`, when non-null, points at real payload
/// bytes owned by the sender; per RDMA/RVMA semantics the buffer must stay
/// valid until the operation completes. Timing-only workloads leave it
/// null.
struct Message {
  NodeId src = -1;
  NodeId dst = -1;
  MsgId id = 0;
  std::uint64_t bytes = 0;
  WireHeader hdr;
  const std::byte* data = nullptr;
  /// Optional payload ownership: when the sender cannot keep its buffer
  /// alive for the transfer's duration, it hands a copy here and points
  /// `data` into it; the message (and all its packets) keep it alive.
  std::shared_ptr<const std::vector<std::byte>> owned;
  Time created_at = 0;
  /// Intrusive refcount managed by MsgRef; 0 while the Message is a plain
  /// value (not yet handed to a MsgRef). Non-atomic: an engine and every
  /// packet it owns live on one thread (sweep workers isolate engines).
  std::uint32_t pool_rc = 0;
};

/// Pooled, non-atomic refcounted handle to a shared Message descriptor.
///
/// Every packet of a message used to carry a std::shared_ptr<const
/// Message>: an atomic RMW per packet copy/destroy plus a control-block
/// allocation per message. The simulation is single-threaded per engine,
/// so the refcount is a plain integer, and Message slots recycle through a
/// thread_local free list (same pattern as sim::CallbackBlockPool) — zero
/// allocator traffic once the pool is warm, and the free slots go back to
/// the allocator when the thread exits. thread_local keeps sweep workers
/// from sharing (and racing on) a pool; a packet never migrates off the
/// thread its engine runs on.
class MsgRef {
 public:
  MsgRef() noexcept = default;
  MsgRef(const MsgRef& o) noexcept : m_(o.m_) {
    if (m_ != nullptr) ++m_->pool_rc;
  }
  MsgRef(MsgRef&& o) noexcept : m_(o.m_) { o.m_ = nullptr; }
  MsgRef& operator=(const MsgRef& o) noexcept {
    if (this != &o) {
      reset();
      m_ = o.m_;
      if (m_ != nullptr) ++m_->pool_rc;
    }
    return *this;
  }
  MsgRef& operator=(MsgRef&& o) noexcept {
    if (this != &o) {
      reset();
      m_ = o.m_;
      o.m_ = nullptr;
    }
    return *this;
  }
  ~MsgRef() { reset(); }

  /// Move `msg` into a pooled slot and return the first reference to it.
  static MsgRef make(Message&& msg) {
    Message* m = acquire_slot();
    *m = std::move(msg);
    m->pool_rc = 1;
    return MsgRef(m);
  }

  void reset() noexcept {
    if (m_ != nullptr && --m_->pool_rc == 0) release_slot(m_);
    m_ = nullptr;
  }

  const Message* get() const noexcept { return m_; }
  const Message* operator->() const noexcept { return m_; }
  const Message& operator*() const noexcept { return *m_; }
  explicit operator bool() const noexcept { return m_ != nullptr; }

 private:
  explicit MsgRef(Message* m) noexcept : m_(m) {}

  /// Free slots are destroyed Messages whose first word holds the next
  /// free slot.
  struct FreeList {
    Message* head = nullptr;
    ~FreeList() {
      while (head != nullptr) {
        Message* next = *reinterpret_cast<Message**>(head);
        ::operator delete(static_cast<void*>(head));
        head = next;
      }
    }
  };

  static Message*& free_head() {
    thread_local FreeList list;
    return list.head;
  }
  static Message* acquire_slot() {
    Message*& head = free_head();
    if (head != nullptr) {
      Message* m = head;
      head = *reinterpret_cast<Message**>(m);
      return new (m) Message();
    }
    return new Message();
  }
  static void release_slot(Message* m) noexcept {
    m->~Message();  // drops `owned` payload before the slot idles
    Message*& head = free_head();
    *reinterpret_cast<Message**>(m) = head;
    head = m;
  }

  Message* m_ = nullptr;
};

/// One packet on the wire. Packets of a message share the Message
/// descriptor; `offset`/`bytes` delimit this packet's slice of the payload.
struct Packet {
  NodeId src = -1;
  NodeId dst = -1;
  MsgRef msg;
  std::uint64_t offset = 0;  ///< payload offset within the message
  std::uint32_t bytes = 0;   ///< payload bytes in this packet
  std::uint32_t header_bytes = 32;
  std::uint32_t seq = 0;     ///< packet index within the message
  std::uint32_t total = 1;   ///< total packets in the message
  /// Injection instant: the latency origin, and the tie-break rank of the
  /// packet's delivery and NIC receive events (sim/engine.hpp).
  Time injected_at = 0;
  std::uint16_t hops = 0;

  // Scratch routing state (e.g. dragonfly Valiant intermediate group).
  std::int32_t rt_aux = -1;
  bool rt_mid_done = false;

  std::uint64_t wire_bytes() const { return std::uint64_t{bytes} + header_bytes; }
};

/// Content tie-break key for packet events (Engine tie-break model,
/// sim/engine.hpp): equal-(time, rank) packet arbitrations order by
/// (source node, per-node message counter, packet index) — a function of
/// packet identity alone, never of scheduling history, so serial and
/// sharded runs arbitrate contending packets identically. Nonzero by
/// construction (src + 1), which keeps packet events distinct from plain
/// callbacks (tie 0) at the same (time, rank). Field widths: 22 bits of
/// node, 26 bits of message counter, 16 bits of packet index — wraps are
/// harmless unless two contenders alias on ALL THREE at one instant.
inline std::uint64_t packet_tie(const Packet& pkt) {
  const std::uint64_t counter =
      pkt.msg ? (pkt.msg->id & ((std::uint64_t{1} << 40) - 1)) : 0;
  return (static_cast<std::uint64_t>(pkt.src + 1) << 42) |
         ((counter & 0x3ffffff) << 16) | (pkt.seq & 0xffff);
}

}  // namespace rvma::net
