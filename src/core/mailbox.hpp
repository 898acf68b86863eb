// Mailbox, posted-buffer, and counter-pool state — the contents of the
// RVMA NIC's lookup table (paper Fig. 2).
//
// These are plain data structures with no simulator dependencies so their
// semantics (bucket-of-buffers, epoch thresholds, retire ring, counter
// spill) are unit-testable in isolation; RvmaEndpoint drives them with
// simulated timing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "core/types.hpp"

namespace rvma::core {

/// One buffer posted to a mailbox, plus the completion state the NIC keeps
/// for it while it is queued/active.
struct PostedBuffer {
  std::byte* base = nullptr;   ///< null for timing-only buffers
  std::uint64_t size = 0;
  void** notif_ptr = nullptr;  ///< completion pointer location (may be null)
  std::int64_t* len_ptr = nullptr;  ///< completed-length location

  /// 0 means "inherit the window's default threshold" at post time;
  /// negative values are rejected as kInvalidArg.
  std::int64_t threshold = 0;
  /// kInherit means "use the window's epoch type" at post time; a buffer
  /// that reached a mailbox always carries a concrete kBytes/kOps.
  EpochType type = EpochType::kInherit;

  std::uint64_t bytes_received = 0;
  std::int64_t ops_received = 0;
  std::uint64_t write_cursor = 0;  ///< kManaged append point
  bool counter_on_nic = true;
  /// When the first payload byte landed in this buffer while active;
  /// kTimeInfinity until then. Feeds the completion-latency histogram
  /// (first byte in -> completion-pointer write visible).
  Time first_rx_at = kTimeInfinity;

  bool threshold_reached() const {
    if (type == EpochType::kBytes) {
      return static_cast<std::int64_t>(bytes_received) >= threshold;
    }
    return ops_received >= threshold;
  }
};

/// A completed buffer retained in the mailbox's retire ring; the raw
/// material for hardware rewind (paper §IV-F).
struct RetiredBuffer {
  std::byte* base = nullptr;
  std::uint64_t size = 0;
  std::uint64_t bytes_received = 0;
  std::int64_t epoch = 0;   ///< the epoch this buffer served
  bool soft = false;        ///< completed via inc_epoch rather than threshold
};

/// Bounded pool of on-NIC completion counters. When exhausted, new active
/// buffers fall back to host-memory counters (slower per-packet updates).
class CounterPool {
 public:
  explicit CounterPool(int capacity) : capacity_(capacity) {}

  bool try_acquire() {
    if (in_use_ >= capacity_) return false;
    ++in_use_;
    return true;
  }
  void release() {
    if (in_use_ > 0) --in_use_;
  }

  int capacity() const { return capacity_; }
  int in_use() const { return in_use_; }
  int available() const { return capacity_ - in_use_; }

 private:
  int capacity_;
  int in_use_ = 0;
};

/// One entry in the RVMA LUT: a virtual mailbox address mapped to a bucket
/// of posted buffers, the epoch counter, and the retire ring.
class Mailbox {
 public:
  Mailbox(std::uint64_t vaddr, std::int64_t threshold, EpochType type,
          Placement placement, int retire_depth, std::uint64_t key = 0)
      : vaddr_(vaddr),
        threshold_(threshold),
        type_(type),
        placement_(placement),
        retire_depth_(retire_depth),
        key_(key) {}

  std::uint64_t vaddr() const { return vaddr_; }
  Placement placement() const { return placement_; }
  EpochType epoch_type() const { return type_; }
  std::int64_t default_threshold() const { return threshold_; }
  /// Protection key; 0 means unkeyed (accept any initiator).
  std::uint64_t key() const { return key_; }

  std::int64_t epoch() const { return epoch_; }
  bool closed() const { return closed_; }
  void close() { closed_ = true; }

  bool has_active() const { return count_ != 0; }
  PostedBuffer& active() { return ring_[head_]; }
  const PostedBuffer& active() const { return ring_[head_]; }
  std::size_t posted_count() const { return count_; }
  /// The i-th queued buffer, oldest (the active one) first.
  const PostedBuffer& posted(std::size_t i) const { return ring_[slot(i)]; }

  /// Append a buffer to the bucket.
  ///
  /// Defaults path: `buf.threshold == 0` inherits the window's default
  /// threshold and `buf.type == kInherit` inherits the window's epoch type;
  /// negative thresholds are rejected outright.
  /// Validation path: a caller-specified type is preserved, but a post that
  /// asks for the default threshold while naming a type different from the
  /// window's is inconsistent (the default threshold is counted in the
  /// window's units) and is rejected with kInvalidArg, never silently
  /// rewritten.
  Status post(PostedBuffer buf);

  /// Retire the active buffer (threshold reached or inc_epoch), advance the
  /// epoch, and surface the next posted buffer. Returns the retired entry,
  /// or nullopt — without touching any state — if no buffer is posted
  /// (a completion racing an already-drained mailbox).
  std::optional<RetiredBuffer> retire_active(bool soft);

  /// Retrieve the buffer completed `epochs_back` epochs ago (1 = most
  /// recently completed). Fails if the retire ring no longer holds it.
  Status rewind(int epochs_back, RetiredBuffer* out) const;

  /// Notification pointers of currently queued buffers, oldest first.
  int collect_notif_ptrs(void** out, int count) const;

  /// Null the completion-pointer locations of queued buffers that point
  /// at exactly (notif_ptr, len_ptr) — for middleware tearing down its
  /// completion storage while the window stays live. Buffers registered
  /// with other locations are untouched.
  void detach_notifications(void** notif_ptr, std::int64_t* len_ptr) {
    for (std::size_t i = 0; i < count_; ++i) {
      PostedBuffer& b = ring_[slot(i)];
      if (b.notif_ptr == notif_ptr) b.notif_ptr = nullptr;
      if (b.len_ptr == len_ptr) b.len_ptr = nullptr;
    }
  }

  const std::vector<RetiredBuffer>& retired() const { return retired_; }
  std::uint64_t completed_count() const { return completed_count_; }

  /// Out-of-order degree of an arriving message (the Eunomia metric,
  /// ROADMAP item 3): how far behind the highest per-sender post counter
  /// already seen at this mailbox the message is. `counter` is the
  /// sender's monotone message counter (the low bits of Message::id). A
  /// message overtaken by k later-posted messages from the same sender
  /// reports degree k; in-order arrivals — including arrival with gaps,
  /// when intervening posts targeted other mailboxes — report 0.
  /// Deterministic: arrival order is a pure function of the simulation.
  std::uint64_t ooo_degree(std::int32_t src, std::uint64_t counter);

 private:
  /// Highest post counter seen so far from one sender, for ooo_degree().
  struct OooMark {
    std::int32_t src;
    std::uint64_t high;
  };

  /// Ring index of the i-th queued buffer; the capacity is a power of two.
  std::size_t slot(std::size_t i) const {
    return (head_ + i) & (ring_.size() - 1);
  }

  std::uint64_t vaddr_;
  std::int64_t threshold_;
  EpochType type_;
  Placement placement_;
  int retire_depth_;
  std::uint64_t key_;

  /// The bucket: count_ posted buffers from ring_[head_] on, wrapping.
  /// It doubles when full and never shrinks, so its size is the high-water
  /// posted count rounded up to a power of two.
  std::vector<PostedBuffer> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::vector<RetiredBuffer> retired_;  // ring, newest at back
  std::int64_t epoch_ = 0;
  std::uint64_t completed_count_ = 0;
  bool closed_ = false;
  /// Sorted by src. A motif channel's mailbox hears one sender; a
  /// catch-all hears its clients.
  std::vector<OooMark> ooo_high_;
};

}  // namespace rvma::core
