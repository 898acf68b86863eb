// Baseline RDMA model (the system the paper compares against).
//
// Implements the primitive set the paper instruments (§II, Fig. 1, §V-A):
//  * memory-region registration with a realistic cost,
//  * the buffer-negotiation handshake (request -> allocate+register -> reply
//    with address/length) every RDMA target must run before any put,
//  * one-sided put: data packets addressed to a remote physical address,
//    acked by the target NIC so the initiator's CQ can signal local
//    completion,
//  * two-sided send/recv with completion-queue polling cost — the
//    InfiniBand-spec-compliant way to signal put completion on adaptively
//    routed networks,
//  * write-with-immediate (single-packet payloads only),
//  * the last-byte-polling "cheat": completion inferred from the final byte
//    of the landing region. Correct only under static (in-order) routing;
//    under adaptive routing it can fire before all payload has landed, and
//    the model reports the premature byte count so tests can observe the
//    corruption the paper describes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "nic/nic.hpp"

namespace rvma::rdma {

using net::NodeId;
using rvma::Status;

enum Op : std::uint32_t {
  kReqBuf = 1,   ///< handshake: request a registered region (imm = size)
  kRepBuf = 2,   ///< handshake reply (addr = region addr, imm = size)
  kPut = 3,      ///< one-sided write (addr = region, offset into it)
  kPutAck = 4,   ///< target-NIC ack: all packets of a put have landed
  kSend = 5,     ///< two-sided send -> recv-CQ entry at the target
  kWriteImm = 6, ///< put with immediate; payload limited to one packet
  kGetReq = 7,   ///< one-sided read request
  kGetResp = 8,  ///< read response data
};

struct RdmaParams {
  Time cq_poll = 150 * kNanosecond;   ///< cost for the host to observe a CQE
  Time reg_base = 1500 * kNanosecond; ///< memory registration, fixed part
  double reg_ns_per_kib = 0.25;       ///< memory registration, per-KiB part
  Time ctrl_proc = 50 * kNanosecond;  ///< software handling of a ctrl msg
  Time flag_poll = 20 * kNanosecond;  ///< observing the polled last byte
  std::uint32_t ctrl_bytes = 64;      ///< control message payload size
  std::uint32_t write_imm_max = 64;   ///< max write-with-immediate payload
};

/// What an initiator must retain about a negotiated remote region —
/// exactly the state RVMA eliminates.
struct RemoteBuffer {
  NodeId node = -1;
  std::uint64_t addr = 0;
  std::uint64_t size = 0;
  net::Pid pid = 0;  ///< owning process on the target node
};

/// Recv-CQ entry for two-sided traffic.
struct Completion {
  NodeId peer = -1;
  std::uint64_t imm = 0;
  std::uint64_t bytes = 0;
  Time arrived_at = 0;
};

/// The `rdma.*` instruments an endpoint counts into, resolved by name
/// from one registry. Every endpoint on a registry (one per Cluster
/// shard) shares them, so a transport resolves one set per shard.
struct RdmaInstruments {
  explicit RdmaInstruments(obs::MetricsRegistry& m);

  obs::Counter* regions_registered;
  obs::Counter* handshakes_served;
  obs::Counter* puts_received;
  obs::Counter* put_acks;
  obs::Counter* sends_received;
  obs::Counter* premature_flag_fires;
};

class RdmaEndpoint {
 public:
  /// Allocates backing memory for a handshake-requested region of `size`
  /// bytes; `tag` is the requester-supplied channel identifier. May return
  /// an empty span for timing-only regions.
  using RegionAllocator =
      std::function<std::span<std::byte>(std::uint64_t size, std::uint64_t tag)>;
  /// Observes every region registered on behalf of a handshake.
  using RegionObserver = std::function<void(
      std::uint64_t tag, std::uint64_t addr, std::uint64_t size)>;

  /// `pid` identifies this endpoint's process on the node; several
  /// endpoints with distinct pids can share one NIC (NID/PID addressing).
  RdmaEndpoint(nic::Nic& nic, const RdmaParams& params, net::Pid pid = 0);
  /// As above, counting into `instruments`, resolved from the NIC's
  /// registry (the constructor above resolves its own).
  RdmaEndpoint(nic::Nic& nic, const RdmaParams& params,
               const RdmaInstruments& instruments, net::Pid pid = 0);

  NodeId node() const { return nic_.node(); }
  net::Pid pid() const { return pid_; }
  const RdmaParams& params() const { return params_; }

  // ---------------------------------------------------------------- target
  /// Register a memory region; `done(addr)` fires after the registration
  /// cost. `mem` may be empty for timing-only simulations, in which case
  /// `size` gives the modeled extent.
  void register_region(std::span<std::byte> mem, std::uint64_t size,
                       std::function<void(std::uint64_t)> done);

  /// Serve incoming kReqBuf handshakes: allocate (via `alloc`, which may
  /// return an empty span for timing-only), register, reply addr+len.
  /// `observer`, when set, sees (tag, addr, size) after registration — the
  /// hook target-side middleware uses to arm completion detection.
  void serve_buffer_requests(RegionAllocator alloc,
                             RegionObserver observer = {});

  /// Arm the last-byte-polling completion cheat on a region: fires when the
  /// byte at `expected - 1` is written. Reports the bytes received at that
  /// instant — under adaptive routing this can be < expected (corruption).
  void arm_last_byte_poll(std::uint64_t addr, std::uint64_t expected,
                          std::function<void(Time, std::uint64_t)> done);

  /// Consume the next recv-CQ entry (FIFO); charges the CQ poll cost.
  void post_recv(std::function<void(const Completion&)> done);

  /// Bytes landed in a region so far (test/diagnostic surface).
  std::uint64_t region_bytes_received(std::uint64_t addr) const;

  // ------------------------------------------------------------- initiator
  /// Full buffer-negotiation handshake (Fig. 1 steps 1-3). `tag` is an
  /// application channel identifier surfaced to the target's allocator.
  void request_buffer(NodeId target, std::uint64_t size,
                      std::function<void(RemoteBuffer)> done,
                      std::uint64_t tag = 0, net::Pid target_pid = 0);

  /// One-sided put. `local_done` fires when the initiator observes its CQ
  /// completion (target-NIC ack + CQ poll) — the precondition for issuing
  /// the spec-compliant completion send on adaptive networks. `on_wire`,
  /// when set, fires as soon as the message has been handed to the wire
  /// (the point at which a pipelined initiator issues its next WR).
  void put(const RemoteBuffer& dst, std::uint64_t offset,
           const std::byte* data, std::uint64_t bytes,
           std::function<void()> local_done,
           std::function<void()> on_wire = {});

  /// Two-sided small send (control / completion signaling).
  void send(NodeId dst, std::uint64_t imm, std::function<void()> on_wire = {});

  /// Put with immediate: payload must fit one packet; generates a recv-CQ
  /// entry at the target carrying `imm`.
  Status write_with_imm(const RemoteBuffer& dst, std::uint64_t offset,
                        const std::byte* data, std::uint32_t bytes,
                        std::uint64_t imm);

  /// One-sided get: fetch `bytes` at `offset` from the remote region into
  /// `into` (may be null for timing-only); `done` fires when all response
  /// data has landed locally.
  void get(const RemoteBuffer& src, std::uint64_t offset, std::byte* into,
           std::uint64_t bytes, std::function<void()> done);

 private:
  struct ArmedPoll {
    std::uint64_t index = 0;  ///< watched byte within the region
    std::function<void(Time, std::uint64_t)> done;
  };

  struct Region {
    std::span<std::byte> mem;
    std::uint64_t size = 0;
    std::uint64_t bytes_received = 0;
    // Outstanding last-byte polls (several slots may be watched at once).
    // A poll must be armed before the watched byte is written; the
    // credit-before-data discipline of the callers guarantees this.
    std::vector<ArmedPoll> polls;
  };

  struct PendingPut {
    std::function<void()> local_done;
  };

  struct PendingGet {
    std::byte* into = nullptr;
    std::uint64_t bytes = 0;
    std::uint64_t received = 0;
    std::function<void()> done;
  };

  void handle_packet(const net::Packet& pkt);
  void handle_put_packet(const net::Packet& pkt);
  void deliver_recv_completion(Completion entry);
  Time registration_cost(std::uint64_t size) const;

  nic::Nic& nic_;
  sim::Engine& engine_;
  RdmaParams params_;
  net::Pid pid_ = 0;

  /// The endpoint's `rdma.*` instruments on the NIC's registry.
  RdmaInstruments ins_;

  std::unordered_map<std::uint64_t, Region> regions_;
  std::uint64_t next_region_addr_ = 0x1000;
  RegionAllocator allocator_;
  RegionObserver region_observer_;

  // Per-message packet counting for put acks (target side).
  std::unordered_map<net::MsgId, std::uint32_t> put_arrived_;

  std::unordered_map<net::MsgId, PendingPut> pending_puts_;
  std::unordered_map<std::uint64_t, PendingGet> pending_gets_;
  std::uint64_t next_get_id_ = 1;
  std::unordered_map<std::uint64_t, std::function<void(RemoteBuffer)>>
      pending_handshakes_;
  std::uint64_t next_handshake_id_ = 1;

  std::deque<Completion> recv_cq_;
  std::deque<std::function<void(const Completion&)>> recv_waiters_;
};

}  // namespace rvma::rdma
