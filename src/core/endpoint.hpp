// RvmaEndpoint — the RVMA NIC protocol engine plus the host-side API from
// the paper (§III-C), and the Window convenience handle.
//
// Target side: mailbox LUT (single-lookup, no wildcards), per-buffer
// byte/op counters with a bounded on-NIC pool, the completion unit that
// writes (buffer head, length) to the completion pointer across PCIe, epoch
// advance with buffer switching, the retire ring for rewind, close/NACK,
// and an optional catch-all mailbox.
//
// Initiator side: RVMA_Put — no handshake, no stored remote buffer state;
// the destination is (node, mailbox vaddr, offset). And an RVMA get whose
// response arrives as an ordinary put into a local reply mailbox.
#pragma once

#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/mailbox.hpp"
#include "core/types.hpp"
#include "nic/nic.hpp"

namespace rvma::core {

using net::NodeId;

class RvmaEndpoint;

/// Host-side handle to one mailbox (the paper's RVMA_Win). Thin wrapper
/// over the endpoint API; copyable.
class Window {
 public:
  Window() = default;
  Window(RvmaEndpoint* ep, std::uint64_t vaddr) : ep_(ep), vaddr_(vaddr) {}

  bool valid() const { return ep_ != nullptr; }
  std::uint64_t vaddr() const { return vaddr_; }

  Status post(std::span<std::byte> buffer, void** notif_ptr,
              std::int64_t* len_ptr = nullptr);
  /// Timing-only post: models a buffer of `size` bytes without memory.
  Status post_timing_only(std::uint64_t size);
  Status close();
  Status inc_epoch();
  std::int64_t epoch() const;
  int get_buf_ptrs(void** out, int count) const;
  Status rewind(int epochs_back, void** buf, std::int64_t* len) const;
  /// Monitor/MWait-style wait for the next completion on this mailbox.
  void notify_wait(std::function<void(void* buf, std::int64_t len)> fn);
  std::uint64_t completions() const;

 private:
  RvmaEndpoint* ep_ = nullptr;
  std::uint64_t vaddr_ = 0;
};

/// The `rvma.*` instruments an endpoint counts into, resolved by name
/// from one registry. Every endpoint on a registry (one per Cluster
/// shard) shares them, so a transport building many endpoints resolves
/// one set per shard and passes it to each.
struct RvmaInstruments {
  explicit RvmaInstruments(obs::MetricsRegistry& m);

  obs::Counter* puts_received;
  obs::Counter* packets_received;
  obs::Counter* bytes_received;
  obs::Counter* completions;
  obs::Counter* soft_completions;
  obs::Counter* nacks_sent;
  obs::Counter* nacks_received;
  obs::Counter* drops_no_mailbox;
  obs::Counter* drops_closed;
  obs::Counter* drops_no_buffer;
  obs::Counter* drops_overflow;
  obs::Counter* drops_bad_key;
  obs::Counter* catch_all_packets;
  obs::Counter* host_counter_packets;
  obs::Counter* buffers_posted;
  obs::Counter* buffers_retired;
  obs::Counter* nic_counters_acquired;
  obs::Counter* nic_counters_released;
  obs::Histogram* completion_latency_ns;
  obs::Histogram* mailbox_ooo_degree;
};

class RvmaEndpoint {
 public:
  using NotifyFn = std::function<void(void* buf, std::int64_t len)>;
  using NackFn = std::function<void(std::uint64_t vaddr, Status reason)>;

  /// `pid` identifies this endpoint's process on the node (paper §III-C:
  /// NID/PID addressing); several endpoints with distinct pids can share
  /// one NIC.
  RvmaEndpoint(nic::Nic& nic, const RvmaParams& params, net::Pid pid = 0);
  /// As above, counting into `instruments`, resolved from the NIC's
  /// registry (the constructor above resolves its own).
  RvmaEndpoint(nic::Nic& nic, const RvmaParams& params,
               const RvmaInstruments& instruments, net::Pid pid = 0);

  NodeId node() const { return nic_.node(); }
  /// Nodes reachable from this endpoint: destinations are [0, num_nodes()).
  int num_nodes() const { return nic_.num_nodes(); }
  net::Pid pid() const { return pid_; }
  const RvmaParams& params() const { return params_; }
  const CounterPool& counter_pool() const { return counters_; }
  sim::Engine& engine() { return engine_; }
  /// The NIC's instrument registry, for middleware layered on this
  /// endpoint (the sockets stack) to resolve its own counters.
  obs::MetricsRegistry& metrics() { return nic_.metrics(); }

  // ----------------------------------------------------------- target side
  /// RVMA_Init_window: create the mailbox for `vaddr` in the LUT.
  /// `threshold` is interpreted per `type` (bytes or operations).
  /// A non-zero `key` makes the window keyed: incoming puts must carry it
  /// (the paper's key_t, enforced when RvmaParams::enforce_keys is set).
  Window init_window(std::uint64_t vaddr, std::int64_t threshold,
                     EpochType type, Placement placement = Placement::kSteered,
                     std::uint64_t key = 0);

  /// RVMA_Post_buffer: append a buffer to the mailbox's bucket.
  /// On hardware completion the NIC writes the buffer head to *notif_ptr
  /// and the received length to *len_ptr (both may be null).
  Status post_buffer(std::uint64_t vaddr, std::span<std::byte> buffer,
                     void** notif_ptr, std::int64_t* len_ptr);
  Status post_buffer_timing_only(std::uint64_t vaddr, std::uint64_t size);

  /// RVMA_Close_win: further operations are discarded (and NACKed if
  /// enabled).
  Status close_window(std::uint64_t vaddr);

  /// Remove a mailbox from the LUT entirely, releasing its NIC counter and
  /// observers. Traffic to the vaddr afterwards behaves as "no mailbox"
  /// (catch-all or NACK). Used by middleware that creates ephemeral
  /// mailboxes (e.g. per-get reply windows).
  Status free_window(std::uint64_t vaddr);

  /// RVMA_Win_inc_epoch: software pre-empts hardware completion, handing
  /// the partially filled active buffer to the application now.
  Status inc_epoch(std::uint64_t vaddr);

  /// RVMA_Win_get_epoch.
  std::int64_t get_epoch(std::uint64_t vaddr) const;

  /// RVMA_Win_get_buf_ptrs: notification pointers of posted buffers.
  int get_buf_ptrs(std::uint64_t vaddr, void** out, int count) const;

  /// Hardware rewind (§IV-F): address/length of the buffer completed
  /// `epochs_back` epochs ago, from the mailbox's retire ring.
  Status rewind(std::uint64_t vaddr, int epochs_back, void** buf,
                std::int64_t* len) const;

  /// Wait for the next completion on `vaddr`; fires mwait_wake after the
  /// completion-pointer write lands in host memory. One-shot.
  void notify_wait(std::uint64_t vaddr, NotifyFn fn);

  /// Persistent observer invoked for *every* completion on `vaddr` (same
  /// timing as notify_wait). Middleware (e.g. the motif transport) uses
  /// this to avoid re-arm races between back-to-back completions.
  /// The observer lives with the mailbox, so `vaddr` must name one
  /// (init_window first): a non-null fn for an unknown vaddr aborts.
  /// A null fn clears the observer, and is a no-op on an unknown vaddr.
  void set_completion_observer(std::uint64_t vaddr, NotifyFn fn);

  /// Null out the completion-pointer locations of buffers posted to
  /// `vaddr` that equal exactly (notif_ptr, len_ptr). api/rvma.h uses
  /// this when a context whose memory holds those words is finalized
  /// while the window — on a borrowed endpoint — stays live.
  void detach_notification(std::uint64_t vaddr, void** notif_ptr,
                           std::int64_t* len_ptr);

  /// Persistent observer invoked whenever a put *operation* fully arrives
  /// on `vaddr` (every packet placed), with the active buffer's operation
  /// and byte counters. This is host-side middleware state, not NIC
  /// hardware: the RMA layer uses it to detect "all expected ops arrived"
  /// without polling (paper §IV-E).
  using OpObserver = std::function<void(std::int64_t ops_received,
                                        std::uint64_t bytes_received)>;
  void set_op_observer(std::uint64_t vaddr, OpObserver fn);

  std::uint64_t completions(std::uint64_t vaddr) const;

  /// Install a catch-all window receiving traffic for unknown mailboxes.
  Window init_catch_all(std::int64_t threshold, EpochType type);

  // -------------------------------------------------------- initiator side
  /// RVMA_Put: one-sided transfer to (dst node, mailbox vaddr, offset).
  /// `on_sent` fires when the message has been handed to the wire (local
  /// buffer reusable).
  void put(NodeId dst, std::uint64_t vaddr, std::uint64_t offset,
           const std::byte* data, std::uint64_t bytes,
           std::function<void()> on_sent = {}, std::uint64_t key = 0,
           net::Pid dst_pid = 0);

  /// Put that takes ownership of a payload copy — for callers that reuse
  /// their buffer immediately (e.g. the sockets layer's stream sends).
  void put_owned(NodeId dst, std::uint64_t vaddr, std::uint64_t offset,
                 std::vector<std::byte> data,
                 std::function<void()> on_sent = {});

  /// RVMA get: ask `dst` to put `bytes` from its active buffer at `vaddr`
  /// (from `offset`) into this node's `reply_vaddr` mailbox. `on_sent`
  /// fires when the request has been handed to the wire (the initiator's
  /// local-completion point, mirroring put's).
  void get(NodeId dst, std::uint64_t vaddr, std::uint64_t offset,
           std::uint64_t bytes, std::uint64_t reply_vaddr,
           net::Pid dst_pid = 0, std::function<void()> on_sent = {});

  /// Observe NACKs for puts this node initiated.
  void on_nack(NackFn fn) { nack_fn_ = std::move(fn); }

  /// Test/diagnostic surface.
  const Mailbox* find_mailbox(std::uint64_t vaddr) const;

 private:
  /// One LUT record: a mailbox and its persistent completion observer, so
  /// each completion stage resolves both with one lookup.
  struct LutEntry {
    explicit LutEntry(Mailbox m) : mb(std::move(m)) {}
    Mailbox mb;
    NotifyFn observer;
  };

  void handle_packet(const net::Packet& pkt);
  void process_put(const net::Packet& pkt, Mailbox& mb, bool via_catch_all);
  void complete_active(Mailbox& mb, bool soft);
  /// Refuse message `msg_id`: record its kDrop span (aux = `reason`),
  /// then NACK the initiator unless NACKs are disabled.
  void send_nack(NodeId to, net::Pid to_pid, std::uint64_t vaddr,
                 std::uint64_t msg_id, Status reason);
  void assign_counter(PostedBuffer& buf);

  nic::Nic& nic_;
  sim::Engine& engine_;
  RvmaParams params_;
  net::Pid pid_ = 0;
  CounterPool counters_;

  /// The endpoint's `rvma.*` instruments: the only place it counts.
  RvmaInstruments ins_;

  /// The mailbox LUT. Records live in the map's nodes, which never move:
  /// a pending host-counter update holds a Mailbox reference across an
  /// event.
  std::unordered_map<std::uint64_t, LutEntry> lut_;
  /// One-shot waiters and op observers are rare, so they stay out of the
  /// LUT record and are consulted only when non-empty.
  std::unordered_map<std::uint64_t, std::vector<NotifyFn>> waiters_;
  std::unordered_map<std::uint64_t, OpObserver> op_observers_;
  // Per-message packet tracking for op counting: a multi-packet put counts
  // as one operation when fully arrived. Single-packet puts skip it.
  std::unordered_map<net::MsgId, std::uint32_t> msg_arrived_;
  NackFn nack_fn_;
};

}  // namespace rvma::core
