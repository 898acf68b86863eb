// rvma.h — the public RVMA library surface.
//
// This is the SED99-style programming interface the paper positions RVMA
// as: applications obtain an `rvma_ctx` handle per (cluster, node) with
// rvma_initialize(), capture local memory into remotely writable windows
// with rvma_capture(), move data with rvma_put()/rvma_get(), and reason
// about completion with rvma_flush() (counted local completion) and
// rvma_poll() (notification-word check). The paper's window calls
// (RVMA_Init_window / Post_buffer / Win_inc_epoch / rewind / catch-all)
// are re-expressed here over explicit handles.
//
// Handles, not thread-locals: under the sharded engine (--par-shards) one
// OS thread drives many node endpoints, so "current endpoint" is not a
// per-thread notion — it must travel with the call. Every function below
// takes the context (or a window handle that knows its context), which
// makes the surface shard-safe by construction. docs/SPEC.md maps the
// paper's RVMA_* calls to these names.
//
// Threading contract: a context is owned by the shard thread of its node.
// All calls on a ctx (and on windows created from it) must run on that
// thread — in practice, from simulation callbacks scheduled on
// cluster.engine_for(node), which is exactly where motif code runs.
//
// Lifetime: rvma_finalize() releases every window handle still registered
// with the context; outstanding rvma_win pointers become invalid then.
// Release windows early with rvma_release(); drop just the handle (the
// window itself stays live) with rvma_win_free() — the window's internal
// completion slot is context-owned, so completions arriving after the
// handle is freed stay safe. Finalize only when the context is quiescent:
// rvma_flush(ctx, RVMA_ALL_PROCS) == RVMA_SUCCESS and no completion is
// mid-delivery (in practice, after the simulation has drained).
#ifndef RVMA_API_RVMA_H_
#define RVMA_API_RVMA_H_

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Status codes (the paper's RVMA_Status values). */
#define RVMA_SUCCESS 0
#define RVMA_ERROR 1
#define RVMA_ERR_INVALID 2
#define RVMA_ERR_CLOSED 3
#define RVMA_ERR_NO_BUFFER 4
#define RVMA_ERR_NO_MAILBOX 5
#define RVMA_ERR_OVERFLOW 7
/* rvma_flush: operations to this destination are still in flight. */
#define RVMA_ERR_PENDING 8

/* rvma_flush / rvma_flush_wait: match operations to every destination. */
#define RVMA_ALL_PROCS (-1)

typedef int rvma_status;

typedef struct rvma_ctx_s* rvma_ctx;
typedef struct rvma_win_s* rvma_win;

typedef enum rvma_epoch_type {
  RVMA_EPOCH_BYTES = 0,
  RVMA_EPOCH_OPS = 1,
} rvma_epoch_type;

/* Completion notification: `buf` is the head of the completed buffer and
 * `len` the bytes landed in it (the paper's two-word completion pointer,
 * unpacked). */
typedef void (*rvma_notify_fn)(void* arg, void* buf, int64_t len);
typedef void (*rvma_done_fn)(void* arg);

/* One completion drained by rvma_poll(). */
typedef struct rvma_completion {
  uint64_t virtual_addr;
  void* buf;
  int64_t len;
} rvma_completion;

/* ---- context lifecycle ---- */

/* Create a context for `node` on a cluster::Cluster (passed as void* to
 * keep this header C-clean). The context owns a fresh RVMA endpoint on
 * that node's NIC. Returns NULL on bad arguments. */
rvma_ctx rvma_initialize(void* cluster, int32_t node);

/* Wrap an existing core::RvmaEndpoint without taking ownership, so C++
 * code that already holds an endpoint can use this surface on it. */
rvma_ctx rvma_wrap_endpoint(void* endpoint);

/* Destroy the context; frees the owned endpoint (if any) and every
 * window handle still registered with the context. */
void rvma_finalize(rvma_ctx ctx);

int32_t rvma_ctx_node(rvma_ctx ctx);

/* ---- capture: window init + buffer post in one call ---- */

/* Make `bytes` of local memory at `data` remotely writable. The virtual
 * address is the pointer value itself (SED99 capture semantics); peers
 * rvma_put() to (uint64_t)(uintptr_t)data. The window completes (epoch
 * rolls) every `bytes` received. */
rvma_win rvma_capture(rvma_ctx ctx, void* data, int64_t bytes);

/* Capture under an explicit virtual address. Simulation motifs use this
 * with fixed integer vaddrs so results never depend on heap layout. */
rvma_win rvma_capture_at(rvma_ctx ctx, uint64_t virtual_addr, void* data,
                         int64_t bytes);

/* Close + free the window and its handle. */
rvma_status rvma_release(rvma_ctx ctx, rvma_win win);

/* ---- data movement ---- */

/* Destinations: `proc` names a node of the context's network, [0, nodes)
 * (the cluster's node count, also for rvma_wrap_endpoint contexts). The
 * put and get calls return RVMA_ERR_INVALID for any other value, and so
 * do rvma_flush/rvma_flush_wait for anything else but RVMA_ALL_PROCS;
 * nothing is sent and no waiter fires. */

/* Write `bytes` starting at `local` into the window at (proc,
 * virtual_addr). Zero-copy: `local` must stay untouched until a
 * rvma_flush()/rvma_flush_wait() covering this operation succeeds. */
rvma_status rvma_put(rvma_ctx ctx, const void* local, int32_t proc,
                     uint64_t virtual_addr, int64_t bytes);
rvma_status rvma_put_offset(rvma_ctx ctx, const void* local, int32_t proc,
                            uint64_t virtual_addr, int64_t offset,
                            int64_t bytes);

/* Fetch `bytes` from the active buffer of the window at (proc,
 * virtual_addr) into `local`. The reply window is captured automatically
 * over `local` and torn down after the reply lands (satellite: no
 * pre-posted reply mailbox needed). Completion is observable via
 * rvma_poll() or the _ex callback. */
rvma_status rvma_get(rvma_ctx ctx, int32_t proc, uint64_t virtual_addr,
                     int64_t bytes, void* local);

/* Full-control get: read at `offset` into the target buffer; optional
 * completion callback. When `reply_virtual_addr` is nonzero it must name
 * an already-posted local mailbox — an unknown address fails loudly with
 * RVMA_ERR_NO_MAILBOX (never a silent drop). When zero, the reply window
 * is auto-captured over `local` as in rvma_get(). */
rvma_status rvma_get_ex(rvma_ctx ctx, int32_t proc, uint64_t virtual_addr,
                        int64_t offset, int64_t bytes, void* local,
                        uint64_t reply_virtual_addr, rvma_notify_fn fn,
                        void* arg);

/* ---- completion ---- */

/* Counted local completion: RVMA_SUCCESS when every put/get issued from
 * this ctx to `proc` (or all procs, RVMA_ALL_PROCS) has been handed to
 * the NIC injection link — local buffers are reusable from then on.
 * RVMA_ERR_PENDING while operations are still in flight. */
rvma_status rvma_flush(rvma_ctx ctx, int32_t proc);

/* As rvma_flush, but invoke `fn(arg)` once the condition holds (fires
 * synchronously if it already does). */
rvma_status rvma_flush_wait(rvma_ctx ctx, int32_t proc, rvma_done_fn fn,
                            void* arg);

/* Drain one window completion (the notification-word check). Returns 1
 * and fills `*out` (if non-NULL) when a completion was pending, else 0.
 * The context keeps the newest 1,024 completions, oldest first; older
 * ones are dropped unpolled. Prefer rvma_win_observe() for high-rate
 * windows. */
int rvma_poll(rvma_ctx ctx, rvma_completion* out);

/* ---- the paper's window calls, over handles ---- */

/* RVMA_Init_window: create a window at `virtual_addr` completing every
 * `epoch_threshold` bytes/ops. `key` (optional out) receives the derived
 * protection key. Returns NULL on bad arguments. */
rvma_win rvma_init_window(rvma_ctx ctx, uint64_t virtual_addr, uint64_t* key,
                          int64_t epoch_threshold, rvma_epoch_type type);

/* RVMA_Init_catch_all: the per-process default mailbox receiving traffic
 * for unknown virtual addresses (always managed placement). */
rvma_win rvma_init_catch_all(rvma_ctx ctx, int64_t epoch_threshold,
                             rvma_epoch_type type);

/* RVMA_Post_buffer: append a real buffer to the window's posted queue.
 * `notification_ptr` (optional) names the first word of the caller's
 * cache-line two-word completion region (paper §III-B): the completed
 * buffer's head is written to word 0 and the received length to word 1.
 * NULL keeps completion in the handle (read it via rvma_poll or an
 * observer). */
rvma_status rvma_post_buffer(rvma_win win, void* buffer, int64_t size,
                             void** notification_ptr);
/* Timing-only variant: models the buffer without backing memory. */
rvma_status rvma_post_buffer_timing_only(rvma_win win, int64_t size);

rvma_status rvma_win_inc_epoch(rvma_win win);
int64_t rvma_win_get_epoch(rvma_win win);
int rvma_win_get_buf_ptrs(rvma_win win, void* notification_ptrs[], int count);
rvma_status rvma_win_rewind(rvma_win win, int epochs_back, void** buffer,
                            int64_t* length);
rvma_status rvma_win_close(rvma_win win);
uint64_t rvma_win_completions(rvma_win win);
uint64_t rvma_win_vaddr(rvma_win win);

/* Persistent completion observer: `fn(arg, buf, len)` on every epoch
 * roll of this window. One observer per window; NULL fn clears it, and
 * so do rvma_win_free and rvma_release (completions keep queueing poll
 * tokens; a window initialised again starts without an observer). */
void rvma_win_observe(rvma_win win, rvma_notify_fn fn, void* arg);
/* One-shot completion wait (paper notify semantics). */
void rvma_win_wait(rvma_win win, rvma_notify_fn fn, void* arg);

/* Release the handle only; the window itself stays live on the
 * endpoint (the paper's RVMA_Win_free semantics). */
void rvma_win_free(rvma_win win);

/* ---- simulation helper ---- */

/* Run the cluster's engine (serial or sharded) to completion — lets
 * examples stay entirely on this header. */
void rvma_sim_run(void* cluster);

#ifdef __cplusplus
}  /* extern "C" */
#endif

#endif  /* RVMA_API_RVMA_H_ */
