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
#include <map>
#include <memory>
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
static_assert((kMaxPollTokens & (kMaxPollTokens - 1)) == 0,
              "the poll ring indexes by mask");

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

/// Everything a context keeps for one window vaddr. Records live in the
/// context's map nodes, which never move, and are reclaimed only with the
/// context: the endpoint observer captures the record's address, and
/// posted buffers and already-scheduled completion-pointer writes hold
/// raw pointers to its completion slot, all of which can outlive any
/// rvma_win handle (rvma_win_free/rvma_release delete the handle while
/// the window, or a pending write, can still be live).
struct WinRecord {
  rvma_ctx ctx = nullptr;
  uint64_t vaddr = 0;
  /// The live handle, or null once rvma_win_free/rvma_release dropped it.
  rvma_win win = nullptr;
  rvma_notify_fn observer = nullptr;
  void* observer_arg = nullptr;
  /// Context-owned two-word completion slot (head, length) for buffers
  /// posted without a caller notification region (capture path and
  /// rvma_post_buffer with NULL).
  void* notif = nullptr;
  int64_t len = 0;
  /// The endpoint observer is installed; rvma_release clears this, since
  /// freeing the window removes the observer with the mailbox.
  bool armed = false;
};

}  // namespace

struct rvma_win_s {
  WinRecord* rec;
};

struct rvma_ctx_s {
  RvmaEndpoint* ep = nullptr;
  std::unique_ptr<RvmaEndpoint> owned;
  int32_t node = 0;
  /// Valid destinations are [0, nodes): the endpoint's network size.
  int32_t nodes = 0;

  /// Counted local completion: operations initiated but not yet handed to
  /// the wire, per destination proc and in total. Indexed by proc and
  /// grown on demand to the highest proc this context has addressed, never
  /// to the node count: a context that talks to few peers stays small.
  std::vector<uint64_t> outstanding;
  uint64_t outstanding_all = 0;
  /// rvma_flush_wait callbacks, each list in registration order. The
  /// per-proc list is scanned only when some proc's count drains to zero.
  struct ProcWaiter {
    int32_t proc;
    rvma_done_fn fn;
    void* arg;
  };
  std::vector<ProcWaiter> proc_waiters;
  std::vector<std::pair<rvma_done_fn, void*>> all_waiters;

  /// Completions kept for rvma_poll: a ring whose capacity (a power of
  /// two) grows on demand up to kMaxPollTokens.
  struct Token {
    uint64_t vaddr;
    void* buf;
    int64_t len;
  };
  std::vector<Token> tokens;
  std::size_t token_head = 0;
  std::size_t token_count = 0;

  /// One record per window vaddr this context ever opened.
  std::map<uint64_t, WinRecord> windows;

  /// Outstanding auto-captured rvma_get reply windows, so rvma_finalize
  /// can tear down the endpoint-side waiters (which capture this ctx raw)
  /// and reclaim the slots when a reply never arrived.
  std::map<uint64_t, ReplySlot*> replies;
  uint64_t reply_seq = 0;
};

namespace {

void push_token(rvma_ctx ctx, uint64_t vaddr, void* buf, int64_t len) {
  std::vector<rvma_ctx_s::Token>& ring = ctx->tokens;
  if (ctx->token_count == ring.size()) {
    if (ring.size() < kMaxPollTokens) {
      // Grow, unrolling the ring so the oldest token sits at index 0.
      std::vector<rvma_ctx_s::Token> grown(
          ring.empty() ? 16 : 2 * ring.size());
      for (std::size_t i = 0; i < ctx->token_count; ++i) {
        grown[i] = ring[(ctx->token_head + i) & (ring.size() - 1)];
      }
      ring.swap(grown);
      ctx->token_head = 0;
    } else {
      // Full at the bound: drop the oldest.
      ctx->token_head = (ctx->token_head + 1) & (ring.size() - 1);
      --ctx->token_count;
    }
  }
  const std::size_t tail =
      (ctx->token_head + ctx->token_count) & (ring.size() - 1);
  ring[tail] = {vaddr, buf, len};
  ++ctx->token_count;
}

/// One endpoint-level observer per API window: queue a poll token, then
/// forward to the record's user observer if one is set.
void install_observer(WinRecord* rec) {
  rec->armed = true;
  rec->ctx->ep->set_completion_observer(
      rec->vaddr, [rec](void* buf, int64_t len) {
        push_token(rec->ctx, rec->vaddr, buf, len);
        if (rec->observer != nullptr) {
          rec->observer(rec->observer_arg, buf, len);
        }
      });
}

/// A fresh handle on the (possibly reused) record for `vaddr`, with no
/// user observer.
rvma_win make_win(rvma_ctx ctx, uint64_t vaddr) {
  WinRecord& rec = ctx->windows[vaddr];
  rec.ctx = ctx;
  rec.vaddr = vaddr;
  rec.observer = nullptr;
  rec.observer_arg = nullptr;
  rec.win = new rvma_win_s{&rec};
  install_observer(&rec);
  return rec.win;
}

/// Drop `win`'s handle; the record and its completion slot stay.
void drop_handle(rvma_win win) {
  WinRecord* rec = win->rec;
  rec->observer = nullptr;
  rec->observer_arg = nullptr;
  if (rec->win == win) rec->win = nullptr;
  delete win;
}

RvmaEndpoint& ep_of(rvma_win win) { return *win->rec->ctx->ep; }
uint64_t vaddr_of(rvma_win win) { return win->rec->vaddr; }

bool valid_proc(rvma_ctx ctx, int32_t proc) {
  return proc >= 0 && proc < ctx->nodes;
}

void note_initiated(rvma_ctx ctx, int32_t proc) {
  const auto p = static_cast<std::size_t>(proc);
  if (p >= ctx->outstanding.size()) ctx->outstanding.resize(p + 1, 0);
  ++ctx->outstanding[p];
  ++ctx->outstanding_all;
}

void note_completed(rvma_ctx ctx, int32_t proc) {
  const auto p = static_cast<std::size_t>(proc);
  --ctx->outstanding_all;
  if (--ctx->outstanding[p] == 0 && !ctx->proc_waiters.empty()) {
    // This proc's waiters, in registration order; taken off the list
    // before any fires, since a waiter may register more.
    std::vector<std::pair<rvma_done_fn, void*>> fired;
    std::size_t kept = 0;
    for (const rvma_ctx_s::ProcWaiter& w : ctx->proc_waiters) {
      if (w.proc == proc) {
        fired.emplace_back(w.fn, w.arg);
      } else {
        ctx->proc_waiters[kept++] = w;
      }
    }
    ctx->proc_waiters.resize(kept);
    for (const auto& [fn, arg] : fired) fn(arg);
  }
  if (ctx->outstanding_all == 0 && !ctx->all_waiters.empty()) {
    std::vector<std::pair<rvma_done_fn, void*>> fired;
    fired.swap(ctx->all_waiters);
    for (const auto& [fn, arg] : fired) fn(arg);
  }
}

rvma_status do_put(rvma_ctx ctx, const void* local, int32_t proc,
                   uint64_t virtual_addr, int64_t offset, int64_t bytes) {
  if (ctx == nullptr || !valid_proc(ctx, proc) || bytes < 0 || offset < 0)
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
  ctx->node = node;
  ctx->owned = std::make_unique<RvmaEndpoint>(c->nic(node),
                                              rvma::core::RvmaParams{});
  ctx->ep = ctx->owned.get();
  ctx->nodes = ctx->ep->num_nodes();
  return ctx;
}

rvma_ctx rvma_wrap_endpoint(void* endpoint) {
  if (endpoint == nullptr) return nullptr;
  auto* ctx = new rvma_ctx_s;
  ctx->ep = static_cast<RvmaEndpoint*>(endpoint);
  ctx->node = ctx->ep->node();
  ctx->nodes = ctx->ep->num_nodes();
  return ctx;
}

void rvma_finalize(rvma_ctx ctx) {
  if (ctx == nullptr) return;
  for (auto& [vaddr, rec] : ctx->windows) {
    // The endpoint observer captures this record raw; on a wrapped
    // (borrowed) endpoint it would outlive the ctx and fire into freed
    // memory on the next completion. A freed handle does not disarm it:
    // rvma_win_free keeps the window, and its observer, live.
    if (rec.armed) ctx->ep->set_completion_observer(vaddr, nullptr);
    // Posted buffers registered against the record's completion slot: on
    // a borrowed endpoint the windows outlive this ctx, so detach the
    // slot pointers before the record is freed with it.
    ctx->ep->detach_notification(vaddr, &rec.notif, &rec.len);
    delete rec.win;
  }
  ctx->windows.clear();
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
  WinRecord* rec = win->rec;
  const rvma::Status st = ctx->ep->post_buffer(
      virtual_addr,
      std::span<std::byte>(static_cast<std::byte*>(data),
                           static_cast<std::size_t>(bytes)),
      &rec->notif, &rec->len);
  if (!rvma::ok(st)) {
    ctx->ep->free_window(virtual_addr);
    rec->armed = false;
    drop_handle(win);
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
  if (ctx == nullptr || win == nullptr || win->rec->ctx != ctx)
    return RVMA_ERR_INVALID;
  const rvma::Status st = ctx->ep->free_window(win->rec->vaddr);
  win->rec->armed = false;  // the observer went with the mailbox
  drop_handle(win);
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
  if (ctx == nullptr || !valid_proc(ctx, proc) || bytes <= 0 || offset < 0)
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
    return ctx->outstanding_all == 0 ? RVMA_SUCCESS : RVMA_ERR_PENDING;
  }
  if (!valid_proc(ctx, proc)) return RVMA_ERR_INVALID;
  const auto p = static_cast<std::size_t>(proc);
  return p >= ctx->outstanding.size() || ctx->outstanding[p] == 0
             ? RVMA_SUCCESS
             : RVMA_ERR_PENDING;
}

rvma_status rvma_flush_wait(rvma_ctx ctx, int32_t proc, rvma_done_fn fn,
                            void* arg) {
  if (ctx == nullptr || fn == nullptr) return RVMA_ERR_INVALID;
  const rvma_status st = rvma_flush(ctx, proc);
  if (st == RVMA_SUCCESS) {
    fn(arg);
    return RVMA_SUCCESS;
  }
  if (st != RVMA_ERR_PENDING) return st;
  if (proc == RVMA_ALL_PROCS) {
    ctx->all_waiters.emplace_back(fn, arg);
  } else {
    ctx->proc_waiters.push_back({proc, fn, arg});
  }
  return RVMA_ERR_PENDING;
}

int rvma_poll(rvma_ctx ctx, rvma_completion* out) {
  if (ctx == nullptr || ctx->token_count == 0) return 0;
  const rvma_ctx_s::Token& token = ctx->tokens[ctx->token_head];
  if (out != nullptr) {
    out->virtual_addr = token.vaddr;
    out->buf = token.buf;
    out->len = token.len;
  }
  ctx->token_head = (ctx->token_head + 1) & (ctx->tokens.size() - 1);
  --ctx->token_count;
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
  // the record's context-owned pair when the caller passes NULL (not
  // handle-owned: the endpoint keeps these pointers past
  // rvma_win_free/rvma_release).
  WinRecord* rec = win->rec;
  void** notif = &rec->notif;
  int64_t* len = &rec->len;
  if (notification_ptr != nullptr) {
    notif = notification_ptr;
    len = reinterpret_cast<int64_t*>(notification_ptr + 1);
  }
  return to_c(rec->ctx->ep->post_buffer(
      rec->vaddr,
      std::span<std::byte>(static_cast<std::byte*>(buffer),
                           static_cast<std::size_t>(size)),
      notif, len));
}

rvma_status rvma_post_buffer_timing_only(rvma_win win, int64_t size) {
  if (win == nullptr || size <= 0) return RVMA_ERR_INVALID;
  return to_c(ep_of(win).post_buffer_timing_only(
      vaddr_of(win), static_cast<uint64_t>(size)));
}

rvma_status rvma_win_inc_epoch(rvma_win win) {
  if (win == nullptr) return RVMA_ERR_INVALID;
  return to_c(ep_of(win).inc_epoch(vaddr_of(win)));
}

int64_t rvma_win_get_epoch(rvma_win win) {
  return win == nullptr ? -1 : ep_of(win).get_epoch(vaddr_of(win));
}

int rvma_win_get_buf_ptrs(rvma_win win, void* notification_ptrs[],
                          int count) {
  if (win == nullptr) return 0;
  return ep_of(win).get_buf_ptrs(vaddr_of(win), notification_ptrs, count);
}

rvma_status rvma_win_rewind(rvma_win win, int epochs_back, void** buffer,
                            int64_t* length) {
  if (win == nullptr) return RVMA_ERR_INVALID;
  return to_c(ep_of(win).rewind(vaddr_of(win), epochs_back, buffer, length));
}

rvma_status rvma_win_close(rvma_win win) {
  if (win == nullptr) return RVMA_ERR_INVALID;
  return to_c(ep_of(win).close_window(vaddr_of(win)));
}

uint64_t rvma_win_completions(rvma_win win) {
  return win == nullptr ? 0 : ep_of(win).completions(vaddr_of(win));
}

uint64_t rvma_win_vaddr(rvma_win win) {
  return win == nullptr ? 0 : vaddr_of(win);
}

void rvma_win_observe(rvma_win win, rvma_notify_fn fn, void* arg) {
  if (win == nullptr) return;
  win->rec->observer = fn;
  win->rec->observer_arg = arg;
}

void rvma_win_wait(rvma_win win, rvma_notify_fn fn, void* arg) {
  if (win == nullptr || fn == nullptr) return;
  ep_of(win).notify_wait(vaddr_of(win), [fn, arg](void* buf, int64_t len) {
    fn(arg, buf, len);
  });
}

void rvma_win_free(rvma_win win) {
  if (win != nullptr) drop_handle(win);
}

void rvma_sim_run(void* cluster) {
  if (cluster == nullptr) return;
  static_cast<rvma::cluster::Cluster*>(cluster)->run();
}

}  // extern "C"
