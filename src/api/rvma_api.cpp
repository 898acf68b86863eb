// Implementation of the public rvma.h surface over cluster::Cluster and
// core::RvmaEndpoint.
//
// A context is a plain heap object owned by its node's shard thread; all
// mutation happens from calls and completion callbacks running on that
// thread (endpoint callbacks fire on the owning engine), so no locking
// is needed anywhere here — the same single-writer discipline the motif
// runner uses for its per-rank arrays.
#include "api/rvma.h"

#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/endpoint.hpp"

namespace {

using rvma::core::EpochType;
using rvma::core::RvmaEndpoint;

/// Auto-captured reply windows for rvma_get live in a reserved corner of
/// the 64-bit virtual address space far above any pointer- or
/// motif-derived address.
constexpr uint64_t kAutoReplyBase = 0xEEA0000000000000ULL;

/// Completions kept for rvma_poll; oldest are dropped beyond this, so an
/// unpolled high-rate window cannot grow the context without bound.
constexpr std::size_t kMaxPollTokens = 1024;

int to_c(rvma::Status st) {
  switch (st) {
    case rvma::Status::kOk: return RVMA_SUCCESS;
    case rvma::Status::kInvalidArg: return RVMA_ERR_INVALID;
    case rvma::Status::kClosed: return RVMA_ERR_CLOSED;
    case rvma::Status::kNoBuffer: return RVMA_ERR_NO_BUFFER;
    case rvma::Status::kNoMailbox: return RVMA_ERR_NO_MAILBOX;
    case rvma::Status::kOverflow: return RVMA_ERR_OVERFLOW;
    default: return RVMA_ERROR;
  }
}

EpochType to_epoch(rvma_epoch_type type) {
  return type == RVMA_EPOCH_OPS ? EpochType::kOps : EpochType::kBytes;
}

/// Protection key derivation: a fixed function of the window's virtual
/// address, so the same window always reports the same key.
uint64_t derive_key(uint64_t vaddr) { return vaddr * 0x9e3779b97f4a7c15ULL; }

}  // namespace

struct rvma_win_s {
  rvma_ctx ctx = nullptr;
  uint64_t vaddr = 0;
  rvma_notify_fn observer = nullptr;
  void* observer_arg = nullptr;
};

namespace {

/// Heap-held state for one auto-captured rvma_get reply window; freed by
/// the one-shot completion callback, or by rvma_finalize if the reply
/// never arrives.
struct ReplySlot {
  rvma_ctx ctx;
  uint64_t vaddr;
  rvma_notify_fn fn;
  void* arg;
  void* notif = nullptr;
  int64_t len = 0;
};

}  // namespace

struct rvma_ctx_s {
  RvmaEndpoint* ep = nullptr;
  std::unique_ptr<RvmaEndpoint> owned;
  rvma::cluster::Cluster* cluster = nullptr;
  int32_t node = 0;

  /// Counted local completion per destination plus the all-destinations
  /// aggregate (proc == RVMA_ALL_PROCS).
  struct Flight {
    uint64_t initiated = 0;
    uint64_t completed = 0;
    std::vector<std::pair<rvma_done_fn, void*>> waiters;
  };
  std::map<int32_t, Flight> flight;
  Flight all;

  struct Token {
    uint64_t vaddr;
    void* buf;
    int64_t len;
  };
  std::deque<Token> tokens;

  /// vaddr -> live handle, so the per-vaddr endpoint observer can reach
  /// the user observer without capturing a handle that rvma_win_free may
  /// have deleted.
  std::map<uint64_t, rvma_win_s*> wins;

  /// Every vaddr install_observer has armed on the endpoint. The endpoint
  /// observer captures this ctx raw, and it outlives the rvma_win handle
  /// (rvma_win_free erases from `wins` but keeps the window — and the
  /// observer — live), so finalize must walk this set, not `wins`, to
  /// disarm them all.
  std::set<uint64_t> observed;

  /// Internal two-word completion regions (head, length) for windows whose
  /// caller did not supply a notification pointer (capture path and
  /// rvma_post_buffer with NULL). The endpoint keeps raw pointers into
  /// these — in posted buffers and in already-scheduled completion-pointer
  /// writes — so their lifetime must match the *context*, not any rvma_win
  /// handle: rvma_win_free/rvma_release delete the handle while the window
  /// (or a pending write) can still be live. std::map node addresses are
  /// stable; slots are reclaimed only with the ctx in rvma_finalize.
  struct Slot {
    void* notif = nullptr;
    int64_t len = 0;
  };
  std::map<uint64_t, Slot> slots;

  /// Outstanding auto-captured rvma_get reply windows, so rvma_finalize
  /// can tear down the endpoint-side waiters (which capture this ctx raw)
  /// and reclaim the slots when a reply never arrived.
  std::map<uint64_t, ReplySlot*> replies;
  uint64_t reply_seq = 0;
};

namespace {

void push_token(rvma_ctx ctx, uint64_t vaddr, void* buf, int64_t len) {
  if (ctx->tokens.size() >= kMaxPollTokens) ctx->tokens.pop_front();
  ctx->tokens.push_back({vaddr, buf, len});
}

/// One endpoint-level observer per API window: queue a poll token, then
/// forward to the handle's user observer if one is set.
void install_observer(rvma_ctx ctx, uint64_t vaddr) {
  ctx->observed.insert(vaddr);
  ctx->ep->set_completion_observer(vaddr, [ctx, vaddr](void* buf,
                                                       int64_t len) {
    push_token(ctx, vaddr, buf, len);
    const auto it = ctx->wins.find(vaddr);
    if (it == ctx->wins.end()) return;
    rvma_win_s* win = it->second;
    if (win->observer != nullptr) win->observer(win->observer_arg, buf, len);
  });
}

rvma_win make_win(rvma_ctx ctx, uint64_t vaddr) {
  auto* win = new rvma_win_s;
  win->ctx = ctx;
  win->vaddr = vaddr;
  ctx->wins[vaddr] = win;
  install_observer(ctx, vaddr);
  return win;
}

void fire_waiters(rvma_ctx_s::Flight& f) {
  if (f.initiated != f.completed || f.waiters.empty()) return;
  std::vector<std::pair<rvma_done_fn, void*>> fired;
  fired.swap(f.waiters);
  for (const auto& [fn, arg] : fired) fn(arg);
}

void note_initiated(rvma_ctx ctx, int32_t proc) {
  ++ctx->flight[proc].initiated;
  ++ctx->all.initiated;
}

void note_completed(rvma_ctx ctx, int32_t proc) {
  rvma_ctx_s::Flight& f = ctx->flight[proc];
  ++f.completed;
  ++ctx->all.completed;
  fire_waiters(f);
  fire_waiters(ctx->all);
}

rvma_status do_put(rvma_ctx ctx, const void* local, int32_t proc,
                   uint64_t virtual_addr, int64_t offset, int64_t bytes) {
  if (ctx == nullptr || proc < 0 || bytes < 0 || offset < 0)
    return RVMA_ERR_INVALID;
  if (bytes > 0 && local == nullptr) return RVMA_ERR_INVALID;
  note_initiated(ctx, proc);
  ctx->ep->put(proc, virtual_addr, static_cast<uint64_t>(offset),
               static_cast<const std::byte*>(local),
               static_cast<uint64_t>(bytes),
               [ctx, proc] { note_completed(ctx, proc); });
  return RVMA_SUCCESS;
}

}  // namespace

extern "C" {

rvma_ctx rvma_initialize(void* cluster, int32_t node) {
  if (cluster == nullptr) return nullptr;
  auto* c = static_cast<rvma::cluster::Cluster*>(cluster);
  if (node < 0 || node >= c->num_nodes()) return nullptr;
  auto* ctx = new rvma_ctx_s;
  ctx->cluster = c;
  ctx->node = node;
  ctx->owned = std::make_unique<RvmaEndpoint>(c->nic(node),
                                              rvma::core::RvmaParams{});
  ctx->ep = ctx->owned.get();
  return ctx;
}

rvma_ctx rvma_wrap_endpoint(void* endpoint) {
  if (endpoint == nullptr) return nullptr;
  auto* ctx = new rvma_ctx_s;
  ctx->ep = static_cast<RvmaEndpoint*>(endpoint);
  ctx->node = ctx->ep->node();
  return ctx;
}

void rvma_finalize(rvma_ctx ctx) {
  if (ctx == nullptr) return;
  // The per-vaddr observers installed by install_observer capture this
  // ctx raw; on a wrapped (borrowed) endpoint they would outlive it and
  // fire into freed memory on the next completion. Disarm every vaddr
  // ever observed — `wins` is not enough, rvma_win_free drops the handle
  // from it while the window and its observer stay live.
  for (const uint64_t vaddr : ctx->observed) {
    ctx->ep->set_completion_observer(vaddr, nullptr);
  }
  ctx->observed.clear();
  for (const auto& [vaddr, win] : ctx->wins) delete win;
  ctx->wins.clear();
  // Posted buffers registered against ctx-owned completion slots: on a
  // borrowed endpoint the windows outlive this ctx, so detach the slot
  // pointers before the slots are freed with it.
  for (auto& [vaddr, slot] : ctx->slots) {
    ctx->ep->detach_notification(vaddr, &slot.notif, &slot.len);
  }
  // Auto-captured reply windows whose get never completed: freeing the
  // window drops the endpoint-side waiter (which captures ctx and the
  // slot), then the slot itself can be reclaimed.
  for (const auto& [vaddr, slot] : ctx->replies) {
    ctx->ep->free_window(vaddr);
    delete slot;
  }
  ctx->replies.clear();
  delete ctx;
}

int32_t rvma_ctx_node(rvma_ctx ctx) { return ctx == nullptr ? -1 : ctx->node; }

rvma_win rvma_capture_at(rvma_ctx ctx, uint64_t virtual_addr, void* data,
                         int64_t bytes) {
  if (ctx == nullptr || data == nullptr || bytes <= 0) return nullptr;
  ctx->ep->init_window(virtual_addr, bytes, EpochType::kBytes);
  rvma_win win = make_win(ctx, virtual_addr);
  rvma_ctx_s::Slot& slot = ctx->slots[virtual_addr];
  const rvma::Status st = ctx->ep->post_buffer(
      virtual_addr,
      std::span<std::byte>(static_cast<std::byte*>(data),
                           static_cast<std::size_t>(bytes)),
      &slot.notif, &slot.len);
  if (!rvma::ok(st)) {
    ctx->ep->free_window(virtual_addr);
    ctx->wins.erase(virtual_addr);
    delete win;
    return nullptr;
  }
  return win;
}

rvma_win rvma_capture(rvma_ctx ctx, void* data, int64_t bytes) {
  return rvma_capture_at(
      ctx, static_cast<uint64_t>(reinterpret_cast<uintptr_t>(data)), data,
      bytes);
}

rvma_status rvma_release(rvma_ctx ctx, rvma_win win) {
  if (ctx == nullptr || win == nullptr || win->ctx != ctx)
    return RVMA_ERR_INVALID;
  const rvma::Status st = ctx->ep->free_window(win->vaddr);
  ctx->wins.erase(win->vaddr);
  delete win;
  return to_c(st);
}

rvma_status rvma_put(rvma_ctx ctx, const void* local, int32_t proc,
                     uint64_t virtual_addr, int64_t bytes) {
  return do_put(ctx, local, proc, virtual_addr, 0, bytes);
}

rvma_status rvma_put_offset(rvma_ctx ctx, const void* local, int32_t proc,
                            uint64_t virtual_addr, int64_t offset,
                            int64_t bytes) {
  return do_put(ctx, local, proc, virtual_addr, offset, bytes);
}

rvma_status rvma_get_ex(rvma_ctx ctx, int32_t proc, uint64_t virtual_addr,
                        int64_t offset, int64_t bytes, void* local,
                        uint64_t reply_virtual_addr, rvma_notify_fn fn,
                        void* arg) {
  if (ctx == nullptr || proc < 0 || bytes <= 0 || offset < 0)
    return RVMA_ERR_INVALID;
  if (reply_virtual_addr != 0) {
    // Pre-posted reply mailbox: misuse fails loud, never a silent drop.
    if (ctx->ep->find_mailbox(reply_virtual_addr) == nullptr)
      return RVMA_ERR_NO_MAILBOX;
    if (fn != nullptr) {
      ctx->ep->notify_wait(reply_virtual_addr,
                           [fn, arg](void* buf, int64_t len) {
                             fn(arg, buf, len);
                           });
    }
    note_initiated(ctx, proc);
    ctx->ep->get(proc, virtual_addr, static_cast<uint64_t>(offset),
                 static_cast<uint64_t>(bytes), reply_virtual_addr,
                 /*dst_pid=*/0, [ctx, proc] { note_completed(ctx, proc); });
    return RVMA_SUCCESS;
  }
  // Auto-capture: a one-epoch reply window over `local`, torn down by its
  // own completion.
  if (local == nullptr) return RVMA_ERR_INVALID;
  const uint64_t reply = kAutoReplyBase + ctx->reply_seq++;
  ctx->ep->init_window(reply, bytes, EpochType::kBytes);
  auto* slot = new ReplySlot{ctx, reply, fn, arg};
  const rvma::Status st = ctx->ep->post_buffer(
      reply,
      std::span<std::byte>(static_cast<std::byte*>(local),
                           static_cast<std::size_t>(bytes)),
      &slot->notif, &slot->len);
  if (!rvma::ok(st)) {
    ctx->ep->free_window(reply);
    delete slot;
    return to_c(st);
  }
  ctx->replies[reply] = slot;
  ctx->ep->notify_wait(reply, [slot](void* buf, int64_t len) {
    rvma_ctx sctx = slot->ctx;
    push_token(sctx, slot->vaddr, buf, len);
    if (slot->fn != nullptr) slot->fn(slot->arg, buf, len);
    sctx->ep->free_window(slot->vaddr);
    sctx->replies.erase(slot->vaddr);
    delete slot;
  });
  note_initiated(ctx, proc);
  ctx->ep->get(proc, virtual_addr, static_cast<uint64_t>(offset),
               static_cast<uint64_t>(bytes), reply,
               /*dst_pid=*/0, [ctx, proc] { note_completed(ctx, proc); });
  return RVMA_SUCCESS;
}

rvma_status rvma_get(rvma_ctx ctx, int32_t proc, uint64_t virtual_addr,
                     int64_t bytes, void* local) {
  return rvma_get_ex(ctx, proc, virtual_addr, 0, bytes, local, 0, nullptr,
                     nullptr);
}

rvma_status rvma_flush(rvma_ctx ctx, int32_t proc) {
  if (ctx == nullptr) return RVMA_ERR_INVALID;
  if (proc == RVMA_ALL_PROCS) {
    return ctx->all.initiated == ctx->all.completed ? RVMA_SUCCESS
                                                    : RVMA_ERR_PENDING;
  }
  const auto it = ctx->flight.find(proc);
  if (it == ctx->flight.end()) return RVMA_SUCCESS;
  return it->second.initiated == it->second.completed ? RVMA_SUCCESS
                                                      : RVMA_ERR_PENDING;
}

rvma_status rvma_flush_wait(rvma_ctx ctx, int32_t proc, rvma_done_fn fn,
                            void* arg) {
  if (ctx == nullptr || fn == nullptr) return RVMA_ERR_INVALID;
  if (rvma_flush(ctx, proc) == RVMA_SUCCESS) {
    fn(arg);
    return RVMA_SUCCESS;
  }
  rvma_ctx_s::Flight& f =
      proc == RVMA_ALL_PROCS ? ctx->all : ctx->flight[proc];
  f.waiters.emplace_back(fn, arg);
  return RVMA_ERR_PENDING;
}

int rvma_poll(rvma_ctx ctx, rvma_completion* out) {
  if (ctx == nullptr || ctx->tokens.empty()) return 0;
  const rvma_ctx_s::Token token = ctx->tokens.front();
  ctx->tokens.pop_front();
  if (out != nullptr) {
    out->virtual_addr = token.vaddr;
    out->buf = token.buf;
    out->len = token.len;
  }
  return 1;
}

rvma_win rvma_init_window(rvma_ctx ctx, uint64_t virtual_addr, uint64_t* key,
                          int64_t epoch_threshold, rvma_epoch_type type) {
  if (ctx == nullptr || epoch_threshold <= 0) return nullptr;
  ctx->ep->init_window(virtual_addr, epoch_threshold, to_epoch(type));
  if (key != nullptr) *key = derive_key(virtual_addr);
  return make_win(ctx, virtual_addr);
}

rvma_win rvma_init_catch_all(rvma_ctx ctx, int64_t epoch_threshold,
                             rvma_epoch_type type) {
  if (ctx == nullptr || epoch_threshold <= 0) return nullptr;
  const rvma::core::Window w =
      ctx->ep->init_catch_all(epoch_threshold, to_epoch(type));
  return make_win(ctx, w.vaddr());
}

rvma_status rvma_post_buffer(rvma_win win, void* buffer, int64_t size,
                             void** notification_ptr) {
  if (win == nullptr || buffer == nullptr || size <= 0)
    return RVMA_ERR_INVALID;
  // Completion slot: the caller's two-word region (head word at
  // notification_ptr, length at notification_ptr + 1 — paper §III-B), or
  // the context-owned pair for this vaddr when the caller passes NULL
  // (ctx-owned, not handle-owned: the endpoint keeps these pointers past
  // rvma_win_free/rvma_release).
  void** notif;
  int64_t* len;
  if (notification_ptr != nullptr) {
    notif = notification_ptr;
    len = reinterpret_cast<int64_t*>(notification_ptr + 1);
  } else {
    rvma_ctx_s::Slot& slot = win->ctx->slots[win->vaddr];
    notif = &slot.notif;
    len = &slot.len;
  }
  return to_c(win->ctx->ep->post_buffer(
      win->vaddr,
      std::span<std::byte>(static_cast<std::byte*>(buffer),
                           static_cast<std::size_t>(size)),
      notif, len));
}

rvma_status rvma_post_buffer_timing_only(rvma_win win, int64_t size) {
  if (win == nullptr || size <= 0) return RVMA_ERR_INVALID;
  return to_c(win->ctx->ep->post_buffer_timing_only(
      win->vaddr, static_cast<uint64_t>(size)));
}

rvma_status rvma_win_inc_epoch(rvma_win win) {
  if (win == nullptr) return RVMA_ERR_INVALID;
  return to_c(win->ctx->ep->inc_epoch(win->vaddr));
}

int64_t rvma_win_get_epoch(rvma_win win) {
  return win == nullptr ? -1 : win->ctx->ep->get_epoch(win->vaddr);
}

int rvma_win_get_buf_ptrs(rvma_win win, void* notification_ptrs[],
                          int count) {
  if (win == nullptr) return 0;
  return win->ctx->ep->get_buf_ptrs(win->vaddr, notification_ptrs, count);
}

rvma_status rvma_win_rewind(rvma_win win, int epochs_back, void** buffer,
                            int64_t* length) {
  if (win == nullptr) return RVMA_ERR_INVALID;
  return to_c(win->ctx->ep->rewind(win->vaddr, epochs_back, buffer, length));
}

rvma_status rvma_win_close(rvma_win win) {
  if (win == nullptr) return RVMA_ERR_INVALID;
  return to_c(win->ctx->ep->close_window(win->vaddr));
}

uint64_t rvma_win_completions(rvma_win win) {
  return win == nullptr ? 0 : win->ctx->ep->completions(win->vaddr);
}

uint64_t rvma_win_vaddr(rvma_win win) {
  return win == nullptr ? 0 : win->vaddr;
}

void rvma_win_observe(rvma_win win, rvma_notify_fn fn, void* arg) {
  if (win == nullptr) return;
  win->observer = fn;
  win->observer_arg = arg;
}

void rvma_win_wait(rvma_win win, rvma_notify_fn fn, void* arg) {
  if (win == nullptr || fn == nullptr) return;
  win->ctx->ep->notify_wait(win->vaddr, [fn, arg](void* buf, int64_t len) {
    fn(arg, buf, len);
  });
}

void rvma_win_free(rvma_win win) {
  if (win == nullptr) return;
  win->ctx->wins.erase(win->vaddr);
  delete win;
}

void rvma_sim_run(void* cluster) {
  if (cluster == nullptr) return;
  auto* c = static_cast<rvma::cluster::Cluster*>(cluster);
  if (c->sharded()) {
    c->sharded_engine().run_windowed();
  } else {
    c->engine().run();
  }
}

}  // extern "C"
