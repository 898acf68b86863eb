// Tests for the public rvma.h library surface (src/api): handle
// lifecycle, capture/put/get/flush/poll, the paper window calls over
// handles, and the byte-identity gates for the API-layer motifs
// (remote_paging / kv_store / alltoall) across shard counts, topologies,
// and grid job counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/rvma.h"
#include "cluster/cluster.hpp"
#include "core/endpoint.hpp"
#include "scenario/figure_grid.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace {

using rvma::scenario::GridCell;
using rvma::scenario::GridSpec;
using rvma::scenario::ScenarioResult;
using rvma::scenario::ScenarioSpec;

rvma::net::NetworkConfig star(int nodes) {
  rvma::net::NetworkConfig cfg;
  cfg.topology = rvma::net::TopologyKind::kStar;
  cfg.nodes_hint = nodes;
  return cfg;
}

/// Two-node serial cluster with one API context per node. Calls made
/// before engine().run() model time-zero application setup.
class ApiTest : public ::testing::Test {
 protected:
  ApiTest() : cluster_(star(2), rvma::nic::NicParams{}) {
    a_ = rvma_initialize(&cluster_, 0);
    b_ = rvma_initialize(&cluster_, 1);
  }
  ~ApiTest() override {
    rvma_finalize(a_);
    rvma_finalize(b_);
  }

  rvma::cluster::Cluster cluster_;
  rvma_ctx a_ = nullptr;
  rvma_ctx b_ = nullptr;
};

TEST_F(ApiTest, ContextLifecycle) {
  EXPECT_EQ(rvma_initialize(nullptr, 0), nullptr);
  EXPECT_EQ(rvma_initialize(&cluster_, -1), nullptr);
  EXPECT_EQ(rvma_initialize(&cluster_, 2), nullptr);
  ASSERT_NE(a_, nullptr);
  ASSERT_NE(b_, nullptr);
  EXPECT_EQ(rvma_ctx_node(a_), 0);
  EXPECT_EQ(rvma_ctx_node(b_), 1);
  EXPECT_EQ(rvma_ctx_node(nullptr), -1);

  rvma::core::RvmaEndpoint ep(cluster_.nic(0), rvma::core::RvmaParams{});
  rvma_ctx wrapped = rvma_wrap_endpoint(&ep);
  ASSERT_NE(wrapped, nullptr);
  EXPECT_EQ(rvma_ctx_node(wrapped), 0);
  rvma_finalize(wrapped);  // must not free the borrowed endpoint
  EXPECT_EQ(rvma_wrap_endpoint(nullptr), nullptr);
}

TEST_F(ApiTest, CapturePutFlushPollRoundTrip) {
  std::vector<unsigned char> dst(64, 0);
  rvma_win win = rvma_capture_at(b_, 0x1000, dst.data(), 64);
  ASSERT_NE(win, nullptr);
  EXPECT_EQ(rvma_win_vaddr(win), 0x1000u);

  std::vector<unsigned char> payload(64, 0x7E);
  EXPECT_EQ(rvma_flush(a_, 1), RVMA_SUCCESS);  // nothing in flight yet
  ASSERT_EQ(rvma_put(a_, payload.data(), 1, 0x1000, 64), RVMA_SUCCESS);
  EXPECT_EQ(rvma_flush(a_, 1), RVMA_ERR_PENDING);
  EXPECT_EQ(rvma_flush(a_, RVMA_ALL_PROCS), RVMA_ERR_PENDING);

  cluster_.engine().run();

  EXPECT_EQ(rvma_flush(a_, 1), RVMA_SUCCESS);
  EXPECT_EQ(rvma_flush(a_, RVMA_ALL_PROCS), RVMA_SUCCESS);
  EXPECT_EQ(dst[0], 0x7E);
  EXPECT_EQ(dst[63], 0x7E);
  EXPECT_EQ(rvma_win_completions(win), 1u);

  rvma_completion c{};
  ASSERT_EQ(rvma_poll(b_, &c), 1);
  EXPECT_EQ(c.virtual_addr, 0x1000u);
  EXPECT_EQ(c.buf, dst.data());
  EXPECT_EQ(c.len, 64);
  EXPECT_EQ(rvma_poll(b_, &c), 0);  // queue drained
  EXPECT_EQ(rvma_poll(a_, nullptr), 0);

  EXPECT_EQ(rvma_release(b_, win), RVMA_SUCCESS);
}

TEST_F(ApiTest, FlushWaitFiresAfterInjection) {
  std::vector<unsigned char> dst(32, 0);
  rvma_win win = rvma_capture_at(b_, 0x2000, dst.data(), 32);
  ASSERT_NE(win, nullptr);

  int fired = 0;
  auto bump = [](void* arg) { ++*static_cast<int*>(arg); };
  // Idle ctx: fires synchronously.
  EXPECT_EQ(rvma_flush_wait(a_, 1, bump, &fired), RVMA_SUCCESS);
  EXPECT_EQ(fired, 1);

  std::vector<unsigned char> payload(32, 0x11);
  ASSERT_EQ(rvma_put(a_, payload.data(), 1, 0x2000, 32), RVMA_SUCCESS);
  EXPECT_EQ(rvma_flush_wait(a_, 1, bump, &fired), RVMA_ERR_PENDING);
  EXPECT_EQ(rvma_flush_wait(a_, RVMA_ALL_PROCS, bump, &fired),
            RVMA_ERR_PENDING);
  EXPECT_EQ(fired, 1);
  cluster_.engine().run();
  EXPECT_EQ(fired, 3);  // both waiters fired exactly once
  EXPECT_EQ(rvma_release(b_, win), RVMA_SUCCESS);
}

TEST_F(ApiTest, GetAutoCapturesReplyWindow) {
  std::vector<unsigned char> data(128);
  for (int i = 0; i < 128; ++i) data[i] = static_cast<unsigned char>(i);
  rvma_win win = rvma_capture_at(b_, 0x3000, data.data(), 128);
  ASSERT_NE(win, nullptr);

  // No pre-posted reply mailbox anywhere: the reply window is captured
  // over `local` automatically and torn down after the reply lands.
  std::vector<unsigned char> local(128, 0);
  ASSERT_EQ(rvma_get(a_, 1, 0x3000, 128, local.data()), RVMA_SUCCESS);
  cluster_.engine().run();

  EXPECT_EQ(std::memcmp(local.data(), data.data(), 128), 0);
  rvma_completion c{};
  ASSERT_EQ(rvma_poll(a_, &c), 1);  // reply completion is pollable
  EXPECT_EQ(c.buf, local.data());
  EXPECT_EQ(c.len, 128);
  EXPECT_EQ(rvma_release(b_, win), RVMA_SUCCESS);
}

TEST_F(ApiTest, GetExCallbackAndExplicitMailbox) {
  std::vector<unsigned char> data(64, 0xAB);
  rvma_win src = rvma_capture_at(b_, 0x4000, data.data(), 64);
  ASSERT_NE(src, nullptr);

  // Satellite gate: an explicit reply vaddr that names no posted mailbox
  // fails loudly, never a silent drop.
  std::vector<unsigned char> local(64, 0);
  EXPECT_EQ(rvma_get_ex(a_, 1, 0x4000, 0, 64, local.data(), 0xDEAD, nullptr,
                        nullptr),
            RVMA_ERR_NO_MAILBOX);

  // Pre-posted reply mailbox + completion callback.
  rvma_win reply = rvma_init_window(a_, 0x5000, nullptr, 64,
                                    RVMA_EPOCH_BYTES);
  ASSERT_NE(reply, nullptr);
  ASSERT_EQ(rvma_post_buffer(reply, local.data(), 64, nullptr),
            RVMA_SUCCESS);
  int64_t got = 0;
  auto on_reply = [](void* arg, void*, int64_t len) {
    *static_cast<int64_t*>(arg) = len;
  };
  ASSERT_EQ(rvma_get_ex(a_, 1, 0x4000, 0, 64, nullptr, 0x5000, on_reply,
                        &got),
            RVMA_SUCCESS);
  cluster_.engine().run();
  EXPECT_EQ(got, 64);
  EXPECT_EQ(local[0], 0xAB);
  EXPECT_EQ(rvma_release(a_, reply), RVMA_SUCCESS);
  EXPECT_EQ(rvma_release(b_, src), RVMA_SUCCESS);
}

TEST_F(ApiTest, CatchAllReceivesUnknownVaddr) {
  rvma_win ca = rvma_init_catch_all(b_, 64, RVMA_EPOCH_BYTES);
  ASSERT_NE(ca, nullptr);
  std::vector<unsigned char> buf(64, 0);
  ASSERT_EQ(rvma_post_buffer(ca, buf.data(), 64, nullptr), RVMA_SUCCESS);

  std::vector<unsigned char> payload(64, 0x55);
  ASSERT_EQ(rvma_put(a_, payload.data(), 1, 0x9999DEAD, 64), RVMA_SUCCESS);
  cluster_.engine().run();

  EXPECT_EQ(rvma_win_completions(ca), 1u);
  EXPECT_EQ(buf[0], 0x55);
  rvma_completion c{};
  ASSERT_EQ(rvma_poll(b_, &c), 1);
  EXPECT_EQ(c.virtual_addr, rvma_win_vaddr(ca));
  EXPECT_EQ(rvma_release(b_, ca), RVMA_SUCCESS);
}

TEST_F(ApiTest, WindowEpochAndRewind) {
  uint64_t key = 0;
  rvma_win win = rvma_init_window(b_, 0x6000, &key, 32, RVMA_EPOCH_BYTES);
  ASSERT_NE(win, nullptr);
  EXPECT_NE(key, 0u);
  std::vector<unsigned char> epoch0(32, 0), epoch1(32, 0);
  ASSERT_EQ(rvma_post_buffer(win, epoch0.data(), 32, nullptr), RVMA_SUCCESS);
  ASSERT_EQ(rvma_post_buffer(win, epoch1.data(), 32, nullptr), RVMA_SUCCESS);
  EXPECT_EQ(rvma_win_get_epoch(win), 0);

  std::vector<unsigned char> payload(32, 0xC3);
  ASSERT_EQ(rvma_put(a_, payload.data(), 1, 0x6000, 32), RVMA_SUCCESS);
  ASSERT_EQ(rvma_put(a_, payload.data(), 1, 0x6000, 32), RVMA_SUCCESS);
  cluster_.engine().run();

  EXPECT_EQ(rvma_win_get_epoch(win), 2);
  EXPECT_EQ(rvma_win_completions(win), 2u);
  void* old_buf = nullptr;
  int64_t old_len = 0;
  ASSERT_EQ(rvma_win_rewind(win, 1, &old_buf, &old_len), RVMA_SUCCESS);
  EXPECT_EQ(old_buf, epoch1.data());  // most recent completed epoch
  EXPECT_EQ(old_len, 32);
  ASSERT_EQ(rvma_win_rewind(win, 2, &old_buf, &old_len), RVMA_SUCCESS);
  EXPECT_EQ(old_buf, epoch0.data());

  EXPECT_EQ(rvma_win_close(win), RVMA_SUCCESS);
  rvma_win_free(win);
}

TEST_F(ApiTest, WindowCallsValidateArguments) {
  EXPECT_EQ(rvma_init_window(nullptr, 0x1, nullptr, 64, RVMA_EPOCH_BYTES),
            nullptr);
  EXPECT_EQ(rvma_init_window(b_, 0x1, nullptr, 0, RVMA_EPOCH_BYTES), nullptr);
  rvma_win win = rvma_init_window(b_, 0x1, nullptr, 64, RVMA_EPOCH_BYTES);
  ASSERT_NE(win, nullptr);

  unsigned char buf[64];
  EXPECT_EQ(rvma_post_buffer(win, nullptr, 64, nullptr), RVMA_ERR_INVALID);
  EXPECT_EQ(rvma_post_buffer(win, buf, 0, nullptr), RVMA_ERR_INVALID);
  EXPECT_EQ(rvma_post_buffer(nullptr, buf, 64, nullptr), RVMA_ERR_INVALID);
  EXPECT_EQ(rvma_post_buffer(win, buf, 64, nullptr), RVMA_SUCCESS);
  EXPECT_EQ(rvma_release(b_, win), RVMA_SUCCESS);
}

TEST_F(ApiTest, ClosedWindowDropsLaterPuts) {
  std::vector<unsigned char> buf(64, 0);
  rvma_win win = rvma_capture_at(b_, 0x3, buf.data(), 64);
  ASSERT_NE(win, nullptr);
  ASSERT_EQ(rvma_win_close(win), RVMA_SUCCESS);

  std::vector<unsigned char> payload(64, 0x7E);
  ASSERT_EQ(rvma_put(a_, payload.data(), 1, 0x3, 64), RVMA_SUCCESS);
  cluster_.engine().run();

  EXPECT_EQ(cluster_.collect_metrics().counters.at("rvma.drops_closed"), 1u);
  EXPECT_EQ(buf[0], 0);
  EXPECT_EQ(rvma_win_completions(win), 0u);
  rvma_win_free(win);
}

TEST_F(ApiTest, IncEpochCompletesPostedBufferEarly) {
  rvma_win win = rvma_init_window(b_, 0x4, nullptr, 1024, RVMA_EPOCH_BYTES);
  ASSERT_NE(win, nullptr);
  void* line_a[2] = {};
  void* line_b[2] = {};
  std::vector<unsigned char> buf_a(1024), buf_b(1024);
  ASSERT_EQ(rvma_post_buffer(win, buf_a.data(), 1024, &line_a[0]),
            RVMA_SUCCESS);
  ASSERT_EQ(rvma_post_buffer(win, buf_b.data(), 1024, &line_b[0]),
            RVMA_SUCCESS);

  // Posted buffers report their notification regions in post order.
  void* ptrs[4] = {};
  EXPECT_EQ(rvma_win_get_buf_ptrs(win, ptrs, 4), 2);
  EXPECT_EQ(ptrs[0], static_cast<void*>(&line_a[0]));

  // Forcing the epoch completes the active buffer with nothing received.
  EXPECT_EQ(rvma_win_inc_epoch(win), RVMA_SUCCESS);
  cluster_.engine().run();
  EXPECT_EQ(rvma_win_get_epoch(win), 1);
  EXPECT_EQ(line_a[0], static_cast<void*>(buf_a.data()));
  EXPECT_EQ(reinterpret_cast<int64_t*>(line_a)[1], 0);
  EXPECT_EQ(rvma_release(b_, win), RVMA_SUCCESS);
}

TEST_F(ApiTest, PutOffsetHalvesAssembleOneBuffer) {
  std::vector<unsigned char> buf(64, 0);
  rvma_win win = rvma_capture_at(b_, 0x6, buf.data(), 64);
  ASSERT_NE(win, nullptr);

  std::vector<unsigned char> lo(32, 0x10), hi(32, 0x20);
  ASSERT_EQ(rvma_put_offset(a_, lo.data(), 1, 0x6, 0, 32), RVMA_SUCCESS);
  ASSERT_EQ(rvma_put_offset(a_, hi.data(), 1, 0x6, 32, 32), RVMA_SUCCESS);
  cluster_.engine().run();

  EXPECT_EQ(buf[0], 0x10);
  EXPECT_EQ(buf[31], 0x10);
  EXPECT_EQ(buf[32], 0x20);
  EXPECT_EQ(buf[63], 0x20);
  EXPECT_EQ(rvma_win_completions(win), 1u);  // both halves fill one epoch
  EXPECT_EQ(rvma_release(b_, win), RVMA_SUCCESS);
}

TEST_F(ApiTest, ObserverSeesEveryCompletion) {
  std::vector<unsigned char> b0(16, 0), b1(16, 0);
  rvma_win win = rvma_init_window(b_, 0x7000, nullptr, 16, RVMA_EPOCH_BYTES);
  ASSERT_NE(win, nullptr);
  ASSERT_EQ(rvma_post_buffer(win, b0.data(), 16, nullptr), RVMA_SUCCESS);
  ASSERT_EQ(rvma_post_buffer(win, b1.data(), 16, nullptr), RVMA_SUCCESS);
  int count = 0;
  rvma_win_observe(win, [](void* arg, void*, int64_t) {
    ++*static_cast<int*>(arg);
  }, &count);

  std::vector<unsigned char> payload(16, 0x01);
  ASSERT_EQ(rvma_put(a_, payload.data(), 1, 0x7000, 16), RVMA_SUCCESS);
  ASSERT_EQ(rvma_put(a_, payload.data(), 1, 0x7000, 16), RVMA_SUCCESS);
  cluster_.engine().run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(rvma_release(b_, win), RVMA_SUCCESS);
}

TEST_F(ApiTest, WinFreeKeepsLiveWindowSafe) {
  // rvma_win_free drops the handle while the window — and its posted
  // buffer's completion registration — stays live. The completion slot is
  // context-owned, so the later epoch roll must not touch freed memory
  // and the completion stays pollable.
  std::vector<unsigned char> dst(32, 0);
  rvma_win win = rvma_capture_at(b_, 0x8000, dst.data(), 32);
  ASSERT_NE(win, nullptr);
  rvma_win_free(win);

  std::vector<unsigned char> payload(32, 0x42);
  ASSERT_EQ(rvma_put(a_, payload.data(), 1, 0x8000, 32), RVMA_SUCCESS);
  cluster_.engine().run();

  EXPECT_EQ(dst[0], 0x42);
  rvma_completion c{};
  ASSERT_EQ(rvma_poll(b_, &c), 1);
  EXPECT_EQ(c.virtual_addr, 0x8000u);
  EXPECT_EQ(c.len, 32);
}

TEST_F(ApiTest, FlushCoversGets) {
  // The rvma.h contract counts gets in flush: PENDING until the get
  // request has been handed to the NIC injection link.
  std::vector<unsigned char> data(64, 0x5A);
  rvma_win src = rvma_capture_at(b_, 0x9000, data.data(), 64);
  ASSERT_NE(src, nullptr);

  std::vector<unsigned char> local(64, 0);
  EXPECT_EQ(rvma_flush(a_, 1), RVMA_SUCCESS);
  ASSERT_EQ(rvma_get(a_, 1, 0x9000, 64, local.data()), RVMA_SUCCESS);
  EXPECT_EQ(rvma_flush(a_, 1), RVMA_ERR_PENDING);
  EXPECT_EQ(rvma_flush(a_, RVMA_ALL_PROCS), RVMA_ERR_PENDING);
  cluster_.engine().run();
  EXPECT_EQ(rvma_flush(a_, 1), RVMA_SUCCESS);
  EXPECT_EQ(rvma_flush(a_, RVMA_ALL_PROCS), RVMA_SUCCESS);
  EXPECT_EQ(local[0], 0x5A);
  EXPECT_EQ(rvma_release(b_, src), RVMA_SUCCESS);
}

TEST_F(ApiTest, FinalizeOnWrappedEndpointDetachesState) {
  // A borrowed endpoint survives its wrapping ctx. Finalize must remove
  // every endpoint-side reference into the dead ctx — the per-vaddr
  // completion observers and the ctx-owned completion slots posted
  // buffers were registered with — so a later completion on the still
  // live window touches neither.
  auto ep = std::make_unique<rvma::core::RvmaEndpoint>(
      cluster_.nic(1), rvma::core::RvmaParams{});
  rvma_ctx wrapped = rvma_wrap_endpoint(ep.get());
  ASSERT_NE(wrapped, nullptr);
  std::vector<unsigned char> dst(32, 0);
  rvma_win win = rvma_capture_at(wrapped, 0xA000, dst.data(), 32);
  ASSERT_NE(win, nullptr);
  rvma_win_free(win);
  rvma_finalize(wrapped);  // ctx gone; window on `ep` still live

  std::vector<unsigned char> payload(32, 0x77);
  ASSERT_EQ(rvma_put(a_, payload.data(), 1, 0xA000, 32), RVMA_SUCCESS);
  cluster_.engine().run();

  EXPECT_EQ(dst[0], 0x77);  // payload still lands
  EXPECT_EQ(ep->completions(0xA000), 1u);
}

TEST_F(ApiTest, OutOfRangeProcIsRejected) {
  // Destinations are [0, nodes) of the endpoint's network: anything else
  // is RVMA_ERR_INVALID and nothing reaches the NIC. RVMA_ALL_PROCS is
  // valid only for the flush calls.
  std::vector<unsigned char> buf(64, 0x11);
  EXPECT_EQ(rvma_put(a_, buf.data(), 5, 0x1000, 64), RVMA_ERR_INVALID);
  EXPECT_EQ(rvma_put(a_, buf.data(), 2, 0x1000, 64), RVMA_ERR_INVALID);
  EXPECT_EQ(rvma_put(a_, buf.data(), RVMA_ALL_PROCS, 0x1000, 64),
            RVMA_ERR_INVALID);
  EXPECT_EQ(rvma_put_offset(a_, buf.data(), 2, 0x1000, 0, 64),
            RVMA_ERR_INVALID);
  EXPECT_EQ(rvma_get(a_, 2, 0x1000, 64, buf.data()), RVMA_ERR_INVALID);
  EXPECT_EQ(rvma_get_ex(a_, -3, 0x1000, 0, 64, buf.data(), 0, nullptr,
                        nullptr),
            RVMA_ERR_INVALID);
  EXPECT_EQ(rvma_flush(a_, -5), RVMA_ERR_INVALID);
  EXPECT_EQ(rvma_flush(a_, 2), RVMA_ERR_INVALID);
  int fired = 0;
  auto bump = [](void* arg) { ++*static_cast<int*>(arg); };
  EXPECT_EQ(rvma_flush_wait(a_, 7, bump, &fired), RVMA_ERR_INVALID);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(rvma_flush(a_, RVMA_ALL_PROCS), RVMA_SUCCESS);
  EXPECT_EQ(rvma_flush(a_, 1), RVMA_SUCCESS);

  // A wrapped endpoint takes the node count from its own network.
  rvma::core::RvmaEndpoint ep(cluster_.nic(0), rvma::core::RvmaParams{},
                              /*pid=*/1);
  rvma_ctx wrapped = rvma_wrap_endpoint(&ep);
  ASSERT_NE(wrapped, nullptr);
  EXPECT_EQ(rvma_put(wrapped, buf.data(), 2, 0x1000, 64), RVMA_ERR_INVALID);
  EXPECT_EQ(rvma_flush(wrapped, 2), RVMA_ERR_INVALID);
  rvma_finalize(wrapped);

  cluster_.engine().run();
  const auto counters = cluster_.collect_metrics().counters;
  const auto sent = counters.find("nic.messages_sent");
  EXPECT_TRUE(sent == counters.end() || sent->second == 0);
}

/// Records the firing order of rvma_flush_wait callbacks, and the flush
/// state each one saw.
struct FlushProbe {
  std::vector<std::string>* log;
  const char* name;
  rvma_ctx ctx;
};

void log_flush(void* arg) {
  auto* p = static_cast<FlushProbe*>(arg);
  std::string entry = p->name;
  for (int32_t proc : {1, 2, 3}) {
    entry += rvma_flush(p->ctx, proc) == RVMA_SUCCESS ? " 1" : " 0";
  }
  p->log->push_back(entry);
}

TEST(ApiFlush, WaitersFirePerProcInRegistrationOrderThenAll) {
  rvma::cluster::Cluster cluster(star(5), rvma::nic::NicParams{});
  rvma_ctx ctx = rvma_initialize(&cluster, 0);
  ASSERT_NE(ctx, nullptr);
  // Targets: a catch-all with room for two puts on each of procs 1-3.
  std::vector<rvma_ctx> targets;
  std::vector<std::vector<unsigned char>> sinks(3);
  for (int32_t proc = 1; proc <= 3; ++proc) {
    rvma_ctx t = rvma_initialize(&cluster, proc);
    rvma_win ca = rvma_init_catch_all(t, 4096, RVMA_EPOCH_BYTES);
    ASSERT_NE(ca, nullptr);
    std::vector<unsigned char>& sink =
        sinks[static_cast<std::size_t>(proc - 1)];
    sink.resize(2 * 4096);
    ASSERT_EQ(rvma_post_buffer(ca, sink.data(), 4096, nullptr), RVMA_SUCCESS);
    ASSERT_EQ(rvma_post_buffer(ca, sink.data() + 4096, 4096, nullptr),
              RVMA_SUCCESS);
    targets.push_back(t);
  }
  std::vector<unsigned char> payload(4096, 0x3C);
  // Posts in order: proc 1, 2, 1, 3. Local completions arrive in post
  // order, so proc 2 drains first, then proc 1, then proc 3 (and all).
  ASSERT_EQ(rvma_put(ctx, payload.data(), 1, 0x10, 4096), RVMA_SUCCESS);
  ASSERT_EQ(rvma_put(ctx, payload.data(), 2, 0x10, 4096), RVMA_SUCCESS);
  ASSERT_EQ(rvma_put(ctx, payload.data(), 1, 0x10, 4096), RVMA_SUCCESS);
  ASSERT_EQ(rvma_put(ctx, payload.data(), 3, 0x10, 4096), RVMA_SUCCESS);

  std::vector<std::string> log;
  FlushProbe all_a{&log, "all-a", ctx}, one_a{&log, "p1-a", ctx},
      two{&log, "p2", ctx}, one_b{&log, "p1-b", ctx},
      all_b{&log, "all-b", ctx};
  EXPECT_EQ(rvma_flush_wait(ctx, RVMA_ALL_PROCS, log_flush, &all_a),
            RVMA_ERR_PENDING);
  EXPECT_EQ(rvma_flush_wait(ctx, 1, log_flush, &one_a), RVMA_ERR_PENDING);
  EXPECT_EQ(rvma_flush_wait(ctx, 2, log_flush, &two), RVMA_ERR_PENDING);
  EXPECT_EQ(rvma_flush_wait(ctx, 1, log_flush, &one_b), RVMA_ERR_PENDING);
  EXPECT_EQ(rvma_flush_wait(ctx, RVMA_ALL_PROCS, log_flush, &all_b),
            RVMA_ERR_PENDING);
  // Never-used procs are flushed: one below and one above the highest
  // proc this context has addressed.
  EXPECT_EQ(rvma_flush(ctx, 0), RVMA_SUCCESS);
  EXPECT_EQ(rvma_flush(ctx, 4), RVMA_SUCCESS);
  EXPECT_TRUE(log.empty());

  cluster.engine().run();
  // Each entry: waiter name, then flush state of procs 1, 2, 3 when it
  // fired (1 = drained).
  const std::vector<std::string> expected = {
      "p2 0 1 0", "p1-a 1 1 0", "p1-b 1 1 0", "all-a 1 1 1", "all-b 1 1 1"};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(rvma_flush(ctx, RVMA_ALL_PROCS), RVMA_SUCCESS);
  EXPECT_EQ(sinks[0][4096], 0x3C);  // proc 1 took both of its puts
  rvma_finalize(ctx);
  for (rvma_ctx t : targets) rvma_finalize(t);
}

/// Counts observer calls (a rvma_notify_fn target).
void count_notify(void* arg, void*, int64_t) { ++*static_cast<int*>(arg); }

TEST_F(ApiTest, ObserverLifetimeOnWrappedEndpoint) {
  // Three lifetime cases on one borrowed endpoint, then finalize: a freed
  // handle's observer is gone but its completions still queue poll
  // tokens; a released and re-initialised vaddr starts without an
  // observer; and after finalize both windows complete without touching
  // the dead context.
  auto ep = std::make_unique<rvma::core::RvmaEndpoint>(
      cluster_.nic(1), rvma::core::RvmaParams{});
  rvma_ctx wrapped = rvma_wrap_endpoint(ep.get());
  ASSERT_NE(wrapped, nullptr);
  std::vector<unsigned char> payload(16, 0x5D);

  // rvma_win_free, then a completion.
  std::vector<unsigned char> freed_buf(32, 0);
  rvma_win freed = rvma_init_window(wrapped, 0xB000, nullptr, 16,
                                    RVMA_EPOCH_BYTES);
  ASSERT_NE(freed, nullptr);
  ASSERT_EQ(rvma_post_buffer(freed, freed_buf.data(), 16, nullptr),
            RVMA_SUCCESS);
  ASSERT_EQ(rvma_post_buffer(freed, freed_buf.data() + 16, 16, nullptr),
            RVMA_SUCCESS);
  int freed_calls = 0;
  rvma_win_observe(freed, count_notify, &freed_calls);
  rvma_win_free(freed);
  ASSERT_EQ(rvma_put(a_, payload.data(), 1, 0xB000, 16), RVMA_SUCCESS);
  cluster_.engine().run();
  EXPECT_EQ(freed_calls, 0);
  rvma_completion c{};
  ASSERT_EQ(rvma_poll(wrapped, &c), 1);
  EXPECT_EQ(c.virtual_addr, 0xB000u);
  EXPECT_EQ(c.buf, freed_buf.data());
  EXPECT_EQ(rvma_poll(wrapped, &c), 0);

  // rvma_release, then the same vaddr again.
  std::vector<unsigned char> re_buf(32, 0);
  rvma_win first = rvma_init_window(wrapped, 0xC000, nullptr, 16,
                                    RVMA_EPOCH_BYTES);
  ASSERT_NE(first, nullptr);
  int first_calls = 0;
  rvma_win_observe(first, count_notify, &first_calls);
  EXPECT_EQ(rvma_release(wrapped, first), RVMA_SUCCESS);
  rvma_win again = rvma_init_window(wrapped, 0xC000, nullptr, 16,
                                    RVMA_EPOCH_BYTES);
  ASSERT_NE(again, nullptr);
  ASSERT_EQ(rvma_post_buffer(again, re_buf.data(), 16, nullptr),
            RVMA_SUCCESS);
  ASSERT_EQ(rvma_post_buffer(again, re_buf.data() + 16, 16, nullptr),
            RVMA_SUCCESS);
  ASSERT_EQ(rvma_put(a_, payload.data(), 1, 0xC000, 16), RVMA_SUCCESS);
  cluster_.engine().run();
  EXPECT_EQ(first_calls, 0);
  ASSERT_EQ(rvma_poll(wrapped, &c), 1);
  EXPECT_EQ(c.virtual_addr, 0xC000u);
  EXPECT_EQ(c.buf, re_buf.data());
  rvma_win_free(again);

  // Finalize: both windows stay live on `ep` and keep completing.
  rvma_finalize(wrapped);
  ASSERT_EQ(rvma_put(a_, payload.data(), 1, 0xB000, 16), RVMA_SUCCESS);
  ASSERT_EQ(rvma_put(a_, payload.data(), 1, 0xC000, 16), RVMA_SUCCESS);
  cluster_.engine().run();
  EXPECT_EQ(ep->completions(0xB000), 2u);
  EXPECT_EQ(ep->completions(0xC000), 2u);
  EXPECT_EQ(freed_buf[16], 0x5D);
  EXPECT_EQ(re_buf[16], 0x5D);
  EXPECT_EQ(freed_calls, 0);
}

TEST_F(ApiTest, PollKeepsNewestCompletionsOldestFirst) {
  // The poll queue holds the newest 1,024 completions, oldest first.
  // Partial drains between the bursts make the ring grow while its head
  // has moved, and the last burst overfills it so the oldest entries are
  // overwritten.
  constexpr int kBursts[] = {20, 30, 1500};
  constexpr int kTotal = 20 + 30 + 1500;
  std::vector<uint64_t> bufs(kTotal, 0);
  rvma_win win = rvma_init_window(b_, 0xD000, nullptr, 8, RVMA_EPOCH_BYTES);
  ASSERT_NE(win, nullptr);
  for (uint64_t& b : bufs) {
    ASSERT_EQ(rvma_post_buffer(win, &b, 8, nullptr), RVMA_SUCCESS);
  }
  const uint64_t word = 0x0123456789ABCDEFULL;
  auto burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(rvma_put(a_, &word, 1, 0xD000, 8), RVMA_SUCCESS);
    }
    cluster_.engine().run();
  };
  // Expects exactly completions [first, last) in order, then an empty
  // queue.
  auto drain = [&](int first, int last) {
    rvma_completion c{};
    for (int i = first; i < last; ++i) {
      ASSERT_EQ(rvma_poll(b_, &c), 1) << i;
      EXPECT_EQ(c.buf, &bufs[static_cast<std::size_t>(i)]) << i;
      EXPECT_EQ(c.len, 8);
    }
    EXPECT_EQ(rvma_poll(b_, &c), 0);
  };
  burst(kBursts[0]);
  rvma_completion c{};
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(rvma_poll(b_, &c), 1);
    EXPECT_EQ(c.buf, &bufs[static_cast<std::size_t>(i)]);
  }
  burst(kBursts[1]);
  drain(5, 50);
  burst(kBursts[2]);
  EXPECT_EQ(rvma_win_completions(win), static_cast<uint64_t>(kTotal));
  drain(kTotal - 1024, kTotal);
  EXPECT_EQ(rvma_release(b_, win), RVMA_SUCCESS);
}

// ---- API-motif byte-identity gates -------------------------------------

ScenarioSpec motif_spec(const std::string& motif, const std::string& topo) {
  ScenarioSpec spec;
  spec.topology = topo;
  spec.nodes = 8;
  spec.motif = motif;
  if (motif == "remote_paging") {
    spec.motif_params = {{"pages_per_rank", "4"}, {"faults", "6"}};
  } else if (motif == "kv_store") {
    spec.motif_params = {{"servers", "2"}, {"requests", "4"},
                         {"outstanding", "2"}};
  } else {
    spec.motif_params = {{"bytes", "2KiB"}, {"iterations", "2"}};
  }
  return spec;
}

ScenarioResult run_ok(const ScenarioSpec& spec) {
  ScenarioResult result;
  std::string error;
  EXPECT_TRUE(rvma::scenario::run_scenario(spec, &result, &error))
      << spec.motif << "/" << spec.topology << ": " << error;
  return result;
}

/// Acceptance gate: every new motif runs on all five topologies and the
/// sharded runs (--par-shards 2 and 4) are byte-identical to serial in
/// every field, the engine's event counts included.
TEST(ApiMotifIdentity, SerialVsShardsAcrossTopologies) {
  const std::vector<std::string> topologies = {"star", "torus3d", "fattree",
                                               "dragonfly", "hyperx"};
  for (const std::string& motif : {"remote_paging", "kv_store", "alltoall"}) {
    for (const std::string& topo : topologies) {
      ScenarioSpec spec = motif_spec(motif, topo);
      const ScenarioResult serial = run_ok(spec);
      EXPECT_GT(serial.makespan, 0) << motif << "/" << topo;
      EXPECT_GT(serial.packets_delivered, 0u) << motif << "/" << topo;
      for (int shards : {2, 4}) {
        spec.par_shards = shards;
        const ScenarioResult sharded = run_ok(spec);
        EXPECT_EQ(sharded, serial)
            << motif << "/" << topo << " @ par_shards=" << shards;
      }
    }
  }
}

/// doorbell_batch=1 must reproduce the unbatched schedule byte-for-byte;
/// batch>1 must strictly reduce NIC doorbells on a doorbell-heavy motif.
TEST(ApiMotifIdentity, DoorbellBatchingGate) {
  ScenarioSpec spec = motif_spec("kv_store", "star");
  const ScenarioResult base = run_ok(spec);
  spec.doorbell_batch = 1;
  EXPECT_EQ(run_ok(spec), base);

  spec.doorbell_batch = 8;
  const ScenarioResult batched = run_ok(spec);
  const auto base_db = base.metrics.counters.at("nic.doorbells");
  const auto batched_db = batched.metrics.counters.at("nic.doorbells");
  EXPECT_LT(batched_db, base_db);
  EXPECT_EQ(base.metrics.counters.at("nic.doorbells_merged"), 0u);
  EXPECT_GT(batched.metrics.counters.at("nic.doorbells_merged"), 0u);
  // Merged or not, every send crosses PCIe exactly once.
  EXPECT_EQ(batched_db + batched.metrics.counters.at("nic.doorbells_merged"),
            base_db);
}

/// Mini grid over an API motif: jobs=1 and jobs=4 agree cell-for-cell.
TEST(ApiMotifIdentity, GridJobsIdentity) {
  GridSpec grid;
  grid.figure = "api-mini";
  grid.motif_label = "KvStore";
  grid.base = motif_spec("kv_store", "star");
  grid.cases = {"star-static", "torus3d-static"};
  grid.gbps = {100, 400};
  std::vector<GridCell> serial, parallel;
  std::string error;
  ASSERT_TRUE(rvma::scenario::run_grid(grid, 1, &serial, &error)) << error;
  ASSERT_TRUE(rvma::scenario::run_grid(grid, 4, &parallel, &error)) << error;
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
