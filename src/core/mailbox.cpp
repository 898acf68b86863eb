#include "core/mailbox.hpp"

#include <algorithm>

namespace rvma::core {

Status Mailbox::post(PostedBuffer buf) {
  if (closed_) return Status::kClosed;
  if (buf.size == 0) return Status::kInvalidArg;
  // 0 is the "unset" descriptor default; a negative count is a caller bug.
  if (buf.threshold < 0) return Status::kInvalidArg;
  if (buf.threshold == 0) {
    // Defaults path: inherit the window threshold. A caller-specified epoch
    // type is only consistent here if it matches the window's — the default
    // threshold is counted in the window's units — so reject mismatches
    // instead of silently overwriting the caller's choice.
    if (buf.type != EpochType::kInherit && buf.type != type_) {
      return Status::kInvalidArg;
    }
    buf.threshold = threshold_;
    buf.type = type_;
    if (buf.threshold <= 0) return Status::kInvalidArg;  // window has no default
  } else if (buf.type == EpochType::kInherit) {
    // Explicit threshold, inherited units.
    buf.type = type_;
  }
  // A window misconfigured with kInherit can never resolve a concrete type.
  if (buf.type == EpochType::kInherit) return Status::kInvalidArg;
  buf.bytes_received = 0;
  buf.ops_received = 0;
  buf.write_cursor = 0;
  if (count_ == ring_.size()) {
    // Full: unwrap into a ring twice the size.
    std::vector<PostedBuffer> grown(ring_.empty() ? 1 : 2 * ring_.size());
    for (std::size_t i = 0; i < count_; ++i) grown[i] = ring_[slot(i)];
    ring_ = std::move(grown);
    head_ = 0;
  }
  ring_[slot(count_)] = buf;
  ++count_;
  return Status::kOk;
}

std::optional<RetiredBuffer> Mailbox::retire_active(bool soft) {
  if (count_ == 0) return std::nullopt;
  const PostedBuffer& buf = ring_[head_];
  RetiredBuffer retired{buf.base, buf.size, buf.bytes_received, epoch_, soft};
  head_ = slot(1);
  --count_;
  retired_.push_back(retired);
  if (static_cast<int>(retired_.size()) > retire_depth_) {
    retired_.erase(retired_.begin());
  }
  ++epoch_;
  ++completed_count_;
  return retired;
}

Status Mailbox::rewind(int epochs_back, RetiredBuffer* out) const {
  if (epochs_back < 1 || out == nullptr) return Status::kInvalidArg;
  if (static_cast<std::size_t>(epochs_back) > retired_.size()) {
    return Status::kNoBuffer;  // aged out of the retire ring
  }
  *out = retired_[retired_.size() - static_cast<std::size_t>(epochs_back)];
  return Status::kOk;
}

int Mailbox::collect_notif_ptrs(void** out, int count) const {
  int n = 0;
  for (std::size_t i = 0; i < count_ && n < count; ++i) {
    out[n++] = static_cast<void*>(posted(i).notif_ptr);
  }
  return n;
}

std::uint64_t Mailbox::ooo_degree(std::int32_t src, std::uint64_t counter) {
  auto it = std::lower_bound(
      ooo_high_.begin(), ooo_high_.end(), src,
      [](const OooMark& mark, std::int32_t key) { return mark.src < key; });
  if (it == ooo_high_.end() || it->src != src) {
    it = ooo_high_.insert(it, OooMark{src, 0});
  }
  if (counter >= it->high) {
    it->high = counter;
    return 0;
  }
  return it->high - counter;
}

}  // namespace rvma::core
