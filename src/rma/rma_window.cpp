#include "rma/rma_window.hpp"

#include <cassert>
#include <cstring>
#include <limits>

namespace rvma::rma {

using core::EpochType;

RmaWindow::RmaWindow(std::vector<core::RvmaEndpoint*> endpoints,
                     std::uint64_t win_id, const Config& config)
    : config_(config), win_id_(win_id) {
  assert(!endpoints.empty());
  assert(config.size > 0);
  const int n = static_cast<int>(endpoints.size());
  ranks_.resize(n);
  for (int r = 0; r < n; ++r) {
    RankState& rank = ranks_[r];
    rank.ep = endpoints[r];
    assert(config.epochs_retained <= rank.ep->params().retire_depth &&
           "rewind depth exceeds the endpoint's retire ring");

    // Epoch buffer ring: one per retained retired epoch plus the active
    // one, so rewind never aliases a reused buffer.
    const int ring = rank.ep->params().retire_depth + 1;
    rank.epoch_buffers.assign(
        ring, std::vector<std::byte>(config.size, std::byte{0}));
    rank.ops_to_target.assign(n, 0);
    rank.fence_records.assign(n, 0);
    rank.record_payloads.assign(n, std::vector<std::int64_t>(1, 0));

    // Data mailbox: completion only via inc_epoch at fence time.
    rank.ep->init_window(data_vaddr(r),
                         std::numeric_limits<std::int64_t>::max(),
                         EpochType::kBytes);
    post_epoch_buffer(r, nullptr);
    rank.ep->set_op_observer(
        data_vaddr(r), [this, r](std::int64_t ops, std::uint64_t) {
          ranks_[r].ops_seen = ops;
          try_close_epoch(r);
        });

    // Fence mailbox: one 8-byte op-count record per peer closes it.
    if (n > 1) {
      rank.ep->init_window(fence_vaddr(r), n - 1, EpochType::kOps);
      rank.ep->post_buffer(
          fence_vaddr(r),
          std::span<std::byte>(
              reinterpret_cast<std::byte*>(rank.fence_records.data()),
              rank.fence_records.size() * sizeof(std::int64_t)),
          nullptr, nullptr);
      rank.ep->set_completion_observer(
          fence_vaddr(r), [this, r](void*, std::int64_t) {
            RankState& rk = ranks_[r];
            std::int64_t expected = 0;
            for (std::int64_t c : rk.fence_records) expected += c;
            rk.expected_ops = expected;
            rk.fence_msgs_done = true;
            // Re-arm the fence mailbox for the next epoch.
            std::fill(rk.fence_records.begin(), rk.fence_records.end(), 0);
            rk.ep->post_buffer(
                fence_vaddr(r),
                std::span<std::byte>(
                    reinterpret_cast<std::byte*>(rk.fence_records.data()),
                    rk.fence_records.size() * sizeof(std::int64_t)),
                nullptr, nullptr);
            try_close_epoch(r);
          });
    }
  }
}

void RmaWindow::post_epoch_buffer(int rank, const std::byte* copy_from) {
  RankState& rk = ranks_[rank];
  auto& buf = rk.epoch_buffers[rk.next_buffer];
  rk.next_buffer = (rk.next_buffer + 1) % static_cast<int>(rk.epoch_buffers.size());
  if (copy_from != nullptr && config_.copy_forward) {
    std::memcpy(buf.data(), copy_from, config_.size);
  }
  const Status st = rk.ep->post_buffer(
      data_vaddr(rank), std::span<std::byte>(buf.data(), buf.size()), nullptr,
      nullptr);
  assert(ok(st));
  (void)st;
}

std::byte* RmaWindow::data(int rank) {
  const core::Mailbox* mb = ranks_[rank].ep->find_mailbox(data_vaddr(rank));
  assert(mb != nullptr && mb->has_active());
  return mb->active().base;
}

const std::byte* RmaWindow::data(int rank) const {
  return const_cast<RmaWindow*>(this)->data(rank);
}

Status RmaWindow::put(int origin, int target, std::uint64_t target_offset,
                      const std::byte* src, std::uint64_t bytes) {
  if (origin < 0 || origin >= num_ranks() || target < 0 ||
      target >= num_ranks()) {
    return Status::kInvalidArg;
  }
  if (target_offset + bytes > config_.size) return Status::kOverflow;
  if (fences_outstanding_ != 0) return Status::kNotReady;  // inside a fence
  ++ranks_[origin].ops_to_target[target];
  ranks_[origin].ep->put(ranks_[target].ep->node(), data_vaddr(target),
                         target_offset, src, bytes);
  return Status::kOk;
}

Status RmaWindow::get(int origin, int target, std::uint64_t target_offset,
                      std::byte* dst, std::uint64_t bytes,
                      std::function<void()> done) {
  if (origin < 0 || origin >= num_ranks() || target < 0 ||
      target >= num_ranks()) {
    return Status::kInvalidArg;
  }
  if (target_offset + bytes > config_.size) return Status::kOverflow;

  // Ephemeral reply mailbox: the get response is an ordinary RVMA put
  // landing directly in the caller's destination memory.
  core::RvmaEndpoint& ep = *ranks_[origin].ep;
  const std::uint64_t reply = win_id_ + 0x100000u + next_get_++;
  ep.init_window(reply, static_cast<std::int64_t>(bytes), EpochType::kBytes);
  const Status st = ep.post_buffer(
      reply, std::span<std::byte>(dst, bytes), nullptr, nullptr);
  if (!ok(st)) return st;
  ep.set_completion_observer(reply,
                             [&ep, reply, done = std::move(done)](
                                 void*, std::int64_t) mutable {
                               // free_window destroys this observer, and
                               // with it the captured `done`: move it out
                               // first.
                               const std::function<void()> then =
                                   std::move(done);
                               ep.free_window(reply);
                               if (then) then();
                             });
  ep.get(ranks_[target].ep->node(), data_vaddr(target), target_offset, bytes,
         reply);
  return Status::kOk;
}

void RmaWindow::fence(std::function<void(int rank)> on_rank_done) {
  assert(fences_outstanding_ == 0 && "fence already in progress");
  on_rank_done_ = std::move(on_rank_done);
  fences_outstanding_ = num_ranks();

  const int n = num_ranks();
  if (n == 1) {
    ranks_[0].expected_ops = 0;
    ranks_[0].fence_msgs_done = true;
    try_close_epoch(0);
    return;
  }
  for (int r = 0; r < n; ++r) {
    RankState& rk = ranks_[r];
    for (int t = 0; t < n; ++t) {
      if (t == r) continue;
      // 8-byte op-count record, steered to slot `r` of t's fence buffer.
      rk.record_payloads[t][0] = rk.ops_to_target[t];
      rk.ep->put(ranks_[t].ep->node(), fence_vaddr(t),
                 static_cast<std::uint64_t>(r) * sizeof(std::int64_t),
                 reinterpret_cast<const std::byte*>(rk.record_payloads[t].data()),
                 sizeof(std::int64_t));
    }
  }
}

void RmaWindow::try_close_epoch(int rank) {
  RankState& rk = ranks_[rank];
  if (fences_outstanding_ == 0 || rk.epoch_closed) return;
  if (!rk.fence_msgs_done || rk.ops_seen < rk.expected_ops) return;

  // All expected operations have landed: retire the epoch buffer into the
  // rewind ring and surface the next one.
  const std::byte* old_data = data(rank);
  post_epoch_buffer(rank, old_data);
  const Status st = rk.ep->inc_epoch(data_vaddr(rank));
  assert(ok(st));
  (void)st;

  rk.epoch_closed = true;
  rk.ops_seen = 0;
  rk.expected_ops = -1;
  rk.fence_msgs_done = false;
  std::fill(rk.ops_to_target.begin(), rk.ops_to_target.end(), 0);

  if (on_rank_done_) on_rank_done_(rank);
  if (--fences_outstanding_ == 0) {
    ++epoch_;
    for (RankState& each : ranks_) each.epoch_closed = false;
  }
}

Status RmaWindow::rewind(int rank, int epochs_back, const std::byte** buffer,
                         std::int64_t* bytes) const {
  if (rank < 0 || rank >= num_ranks()) return Status::kInvalidArg;
  void* buf = nullptr;
  const Status st =
      ranks_[rank].ep->rewind(data_vaddr(rank), epochs_back, &buf, nullptr);
  if (!ok(st)) return st;
  if (buffer != nullptr) *buffer = static_cast<const std::byte*>(buf);
  // The retired buffer holds the rank's full window image for that epoch.
  if (bytes != nullptr) *bytes = static_cast<std::int64_t>(config_.size);
  return Status::kOk;
}

std::int64_t RmaWindow::pending_ops(int origin, int target) const {
  return ranks_[origin].ops_to_target[target];
}

}  // namespace rvma::rma
