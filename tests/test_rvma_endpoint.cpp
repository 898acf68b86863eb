// RVMA endpoint tests: the paper's semantics end-to-end on a simulated
// two-node network — thresholds (bytes/ops), mailbox bucket separation
// (the 0x11FF0011 / 0x11FF0031 example from §III-B), offset assembly,
// out-of-order placement, close/NACK, catch-all, inc_epoch, counter spill,
// receiver-managed streaming, and get.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/endpoint.hpp"

namespace rvma::core {
namespace {

net::NetworkConfig star2() {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kStar;
  cfg.nodes_hint = 2;
  cfg.link.bw = Bandwidth::gbps(100);
  cfg.link.latency = 100 * kNanosecond;
  cfg.switch_latency = 100 * kNanosecond;
  return cfg;
}

class RvmaTest : public ::testing::Test {
 protected:
  RvmaTest()
      : cluster_(star2(), nic::NicParams{}),
        sender_(cluster_.nic(0), RvmaParams{}),
        receiver_(cluster_.nic(1), RvmaParams{}) {}

  void run() { cluster_.engine().run(); }

  /// Cluster-wide registry counter; throws on a name nothing registered.
  std::uint64_t counter(const char* name) const {
    return cluster_.collect_metrics().counters.at(name);
  }

  cluster::Cluster cluster_;
  RvmaEndpoint sender_;
  RvmaEndpoint receiver_;
};

TEST_F(RvmaTest, ByteThresholdCompletionWritesNotificationLine) {
  std::vector<std::byte> buf(4096, std::byte{0});
  void* notif = nullptr;
  std::int64_t len = -1;
  Window win = receiver_.init_window(0x100, 4096, EpochType::kBytes);
  ASSERT_EQ(win.post(buf, &notif, &len), Status::kOk);

  std::vector<std::byte> src(4096);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>(i % 251);
  }
  sender_.put(1, 0x100, 0, src.data(), src.size());
  run();

  EXPECT_EQ(notif, buf.data());  // completion pointer -> buffer head
  EXPECT_EQ(len, 4096);
  EXPECT_EQ(std::memcmp(buf.data(), src.data(), src.size()), 0);
  EXPECT_EQ(counter("rvma.completions"), 1u);
  EXPECT_EQ(win.epoch(), 1);
}

TEST_F(RvmaTest, NoCompletionBelowThreshold) {
  void* notif = nullptr;
  std::vector<std::byte> buf(4096);
  Window win = receiver_.init_window(0x100, 4096, EpochType::kBytes);
  ASSERT_EQ(win.post(buf, &notif), Status::kOk);

  sender_.put(1, 0x100, 0, nullptr, 1000);
  run();
  EXPECT_EQ(notif, nullptr);
  EXPECT_EQ(counter("rvma.completions"), 0u);
  EXPECT_EQ(win.epoch(), 0);

  // The remaining bytes (at the right offset) complete the epoch.
  sender_.put(1, 0x100, 1000, nullptr, 3096);
  run();
  EXPECT_EQ(notif, buf.data());
  EXPECT_EQ(win.epoch(), 1);
}

TEST_F(RvmaTest, OpsThresholdCountsWholePuts) {
  void* notif = nullptr;
  Window win = receiver_.init_window(0x200, 3, EpochType::kOps);
  ASSERT_EQ(receiver_.post_buffer_timing_only(0x200, 1 * MiB), Status::kOk);
  receiver_.notify_wait(0x200, [&](void* b, std::int64_t) { notif = b ? b : reinterpret_cast<void*>(1); });

  // A multi-packet put is ONE operation (counted on full arrival).
  sender_.put(1, 0x200, 0, nullptr, 10000);  // 3 packets at default MTU
  sender_.put(1, 0x200, 10000, nullptr, 64);
  run();
  EXPECT_EQ(win.epoch(), 0);  // only 2 ops so far
  sender_.put(1, 0x200, 10064, nullptr, 64);
  run();
  EXPECT_EQ(win.epoch(), 1);
  EXPECT_EQ(counter("rvma.puts_received"), 3u);
}

// Paper §III-B: puts to different RVMA addresses land in different
// mailboxes, NOT contiguously in memory.
TEST_F(RvmaTest, DistinctMailboxesAreDistinctBuckets) {
  std::vector<std::byte> buf_a(32), buf_b(32);
  void* notif_a = nullptr;
  void* notif_b = nullptr;
  receiver_.init_window(0x11FF0011, 32, EpochType::kBytes);
  receiver_.init_window(0x11FF0031, 32, EpochType::kBytes);
  ASSERT_EQ(receiver_.post_buffer(0x11FF0011, buf_a, &notif_a, nullptr),
            Status::kOk);
  ASSERT_EQ(receiver_.post_buffer(0x11FF0031, buf_b, &notif_b, nullptr),
            Status::kOk);

  std::vector<std::byte> first(32, std::byte{0xAA});
  std::vector<std::byte> second(32, std::byte{0xBB});
  sender_.put(1, 0x11FF0011, 0, first.data(), 32);
  sender_.put(1, 0x11FF0031, 0, second.data(), 32);
  run();

  EXPECT_EQ(notif_a, buf_a.data());
  EXPECT_EQ(notif_b, buf_b.data());
  EXPECT_EQ(buf_a[0], std::byte{0xAA});
  EXPECT_EQ(buf_b[0], std::byte{0xBB});
}

// Paper §III-B: two threshold-sized messages to the SAME mailbox complete
// two separate buffers out of the bucket.
TEST_F(RvmaTest, SameMailboxConsumesBucketInOrder) {
  std::vector<std::byte> buf1(32), buf2(32);
  void* notif1 = nullptr;
  void* notif2 = nullptr;
  receiver_.init_window(0x11FF0011, 32, EpochType::kBytes);
  ASSERT_EQ(receiver_.post_buffer(0x11FF0011, buf1, &notif1, nullptr),
            Status::kOk);
  ASSERT_EQ(receiver_.post_buffer(0x11FF0011, buf2, &notif2, nullptr),
            Status::kOk);

  std::vector<std::byte> m1(32, std::byte{0x11});
  std::vector<std::byte> m2(32, std::byte{0x22});
  sender_.put(1, 0x11FF0011, 0, m1.data(), 32);
  sender_.put(1, 0x11FF0011, 0, m2.data(), 32);
  run();

  EXPECT_EQ(notif1, buf1.data());
  EXPECT_EQ(notif2, buf2.data());
  EXPECT_EQ(buf1[0], std::byte{0x11});
  EXPECT_EQ(buf2[0], std::byte{0x22});
  EXPECT_EQ(receiver_.completions(0x11FF0011), 2u);
}

// Paper §III-B: a contiguous 64-byte payload is assembled with two puts at
// offsets 0 and 32 to the same mailbox.
TEST_F(RvmaTest, OffsetsAssembleContiguousPayload) {
  std::vector<std::byte> buf(64, std::byte{0});
  void* notif = nullptr;
  receiver_.init_window(0x11FF0011, 64, EpochType::kBytes);
  ASSERT_EQ(receiver_.post_buffer(0x11FF0011, buf, &notif, nullptr),
            Status::kOk);

  std::vector<std::byte> lo(32, std::byte{0x01});
  std::vector<std::byte> hi(32, std::byte{0x02});
  sender_.put(1, 0x11FF0011, 0, lo.data(), 32);
  sender_.put(1, 0x11FF0011, 32, hi.data(), 32);
  run();

  EXPECT_EQ(notif, buf.data());
  EXPECT_EQ(buf[0], std::byte{0x01});
  EXPECT_EQ(buf[31], std::byte{0x01});
  EXPECT_EQ(buf[32], std::byte{0x02});
  EXPECT_EQ(buf[63], std::byte{0x02});
}

TEST_F(RvmaTest, ClosedWindowDropsAndNacks) {
  Window win = receiver_.init_window(0x300, 64, EpochType::kBytes);
  ASSERT_EQ(receiver_.post_buffer_timing_only(0x300, 64), Status::kOk);
  ASSERT_EQ(win.close(), Status::kOk);

  Status nack_reason = Status::kOk;
  std::uint64_t nack_vaddr = 0;
  sender_.on_nack([&](std::uint64_t vaddr, Status reason) {
    nack_vaddr = vaddr;
    nack_reason = reason;
  });
  sender_.put(1, 0x300, 0, nullptr, 64);
  run();
  EXPECT_EQ(counter("rvma.drops_closed"), 1u);
  EXPECT_EQ(nack_vaddr, 0x300u);
  EXPECT_EQ(nack_reason, Status::kClosed);
  EXPECT_EQ(counter("rvma.nacks_received"), 1u);
  EXPECT_EQ(win.epoch(), 0);
}

TEST_F(RvmaTest, UnknownMailboxNacks) {
  Status reason = Status::kOk;
  sender_.on_nack([&](std::uint64_t, Status r) { reason = r; });
  sender_.put(1, 0xDEAD, 0, nullptr, 64);
  run();
  EXPECT_EQ(counter("rvma.drops_no_mailbox"), 1u);
  EXPECT_EQ(reason, Status::kNoMailbox);
}

TEST_F(RvmaTest, NacksCanBeDisabled) {
  RvmaParams params;
  params.nacks_enabled = false;
  cluster::Cluster cluster(star2(), nic::NicParams{});
  RvmaEndpoint sender(cluster.nic(0), params);
  RvmaEndpoint receiver(cluster.nic(1), params);
  int nacks = 0;
  sender.on_nack([&](std::uint64_t, Status) { ++nacks; });
  sender.put(1, 0xDEAD, 0, nullptr, 64);
  cluster.engine().run();
  EXPECT_EQ(cluster.collect_metrics().counters.at("rvma.drops_no_mailbox"), 1u);
  EXPECT_EQ(cluster.collect_metrics().counters.at("rvma.nacks_sent"), 0u);
  EXPECT_EQ(nacks, 0);
}

TEST_F(RvmaTest, NoPostedBufferNacks) {
  receiver_.init_window(0x400, 64, EpochType::kBytes);
  Status reason = Status::kOk;
  sender_.on_nack([&](std::uint64_t, Status r) { reason = r; });
  sender_.put(1, 0x400, 0, nullptr, 64);
  run();
  EXPECT_EQ(counter("rvma.drops_no_buffer"), 1u);
  EXPECT_EQ(reason, Status::kNoBuffer);
}

TEST_F(RvmaTest, OverflowBeyondBufferExtentNacks) {
  std::vector<std::byte> buf(64);
  receiver_.init_window(0x500, 64, EpochType::kBytes);
  ASSERT_EQ(receiver_.post_buffer(0x500, buf, nullptr, nullptr), Status::kOk);
  Status reason = Status::kOk;
  sender_.on_nack([&](std::uint64_t, Status r) { reason = r; });
  sender_.put(1, 0x500, 32, nullptr, 64);  // 32 + 64 > 64
  run();
  EXPECT_EQ(counter("rvma.drops_overflow"), 1u);
  EXPECT_EQ(reason, Status::kOverflow);
  EXPECT_EQ(receiver_.completions(0x500), 0u);
}

TEST_F(RvmaTest, CatchAllReceivesUnmatchedTraffic) {
  std::vector<std::byte> buf(4096, std::byte{0});
  void* notif = nullptr;
  Window catch_all = receiver_.init_catch_all(128, EpochType::kBytes);
  ASSERT_EQ(catch_all.post(buf, &notif), Status::kOk);

  std::vector<std::byte> payload(128, std::byte{0x5C});
  sender_.put(1, 0xFEED, 0, payload.data(), 128);  // no such mailbox
  run();
  EXPECT_EQ(counter("rvma.catch_all_packets"), 1u);
  EXPECT_EQ(counter("rvma.drops_no_mailbox"), 0u);
  EXPECT_EQ(notif, buf.data());
  EXPECT_EQ(buf[0], std::byte{0x5C});
  EXPECT_EQ(buf[127], std::byte{0x5C});
}

TEST_F(RvmaTest, IncEpochHandsOverPartialBuffer) {
  std::vector<std::byte> buf(4096);
  void* notif = nullptr;
  std::int64_t len = -1;
  Window win = receiver_.init_window(0x600, 4096, EpochType::kBytes);
  ASSERT_EQ(win.post(buf, &notif, &len), Status::kOk);

  sender_.put(1, 0x600, 0, nullptr, 600);
  run();
  ASSERT_EQ(notif, nullptr);
  ASSERT_EQ(win.inc_epoch(), Status::kOk);
  run();
  EXPECT_EQ(notif, buf.data());
  EXPECT_EQ(len, 600);  // partial length reported
  EXPECT_EQ(win.epoch(), 1);
  EXPECT_EQ(counter("rvma.soft_completions"), 1u);
  EXPECT_EQ(counter("rvma.completions"), 0u);
}

TEST_F(RvmaTest, IncEpochWithoutBufferFails) {
  Window win = receiver_.init_window(0x700, 64, EpochType::kBytes);
  EXPECT_EQ(win.inc_epoch(), Status::kNoBuffer);
}

TEST_F(RvmaTest, GetEpochAndBufPtrs) {
  Window win = receiver_.init_window(0x800, 64, EpochType::kBytes);
  EXPECT_EQ(win.epoch(), 0);
  EXPECT_EQ(receiver_.get_epoch(0x9999), -1);  // unknown mailbox

  void* lines[2] = {};
  void** notif_a = reinterpret_cast<void**>(&lines[0]);
  void** notif_b = reinterpret_cast<void**>(&lines[1]);
  std::vector<std::byte> buf_a(64), buf_b(64);
  ASSERT_EQ(receiver_.post_buffer(0x800, buf_a, notif_a, nullptr), Status::kOk);
  ASSERT_EQ(receiver_.post_buffer(0x800, buf_b, notif_b, nullptr), Status::kOk);
  void* out[4] = {};
  EXPECT_EQ(win.get_buf_ptrs(out, 4), 2);
  EXPECT_EQ(out[0], static_cast<void*>(notif_a));
  EXPECT_EQ(out[1], static_cast<void*>(notif_b));
}

TEST_F(RvmaTest, CounterSpillFallsBackToHostMemory) {
  RvmaParams params;
  params.nic_counters = 1;
  cluster::Cluster cluster(star2(), nic::NicParams{});
  RvmaEndpoint sender(cluster.nic(0), params);
  RvmaEndpoint receiver(cluster.nic(1), params);

  receiver.init_window(0xA, 64, EpochType::kBytes);
  receiver.init_window(0xB, 64, EpochType::kBytes);
  ASSERT_EQ(receiver.post_buffer_timing_only(0xA, 64), Status::kOk);
  ASSERT_EQ(receiver.post_buffer_timing_only(0xB, 64), Status::kOk);
  EXPECT_EQ(receiver.counter_pool().in_use(), 1);  // second spilled

  sender.put(1, 0xA, 0, nullptr, 64);
  sender.put(1, 0xB, 0, nullptr, 64);
  cluster.engine().run();
  EXPECT_EQ(receiver.completions(0xA) + receiver.completions(0xB), 2u);
  EXPECT_GT(cluster.collect_metrics().counters.at("rvma.host_counter_packets"),
            0u);
}

TEST_F(RvmaTest, CounterReleasedOnCompletionIsReused) {
  RvmaParams params;
  params.nic_counters = 1;
  cluster::Cluster cluster(star2(), nic::NicParams{});
  RvmaEndpoint sender(cluster.nic(0), params);
  RvmaEndpoint receiver(cluster.nic(1), params);

  receiver.init_window(0xA, 64, EpochType::kBytes);
  ASSERT_EQ(receiver.post_buffer_timing_only(0xA, 64), Status::kOk);
  sender.put(1, 0xA, 0, nullptr, 64);
  cluster.engine().run();
  EXPECT_EQ(receiver.counter_pool().in_use(), 0);  // released at completion

  receiver.init_window(0xB, 64, EpochType::kBytes);
  ASSERT_EQ(receiver.post_buffer_timing_only(0xB, 64), Status::kOk);
  EXPECT_EQ(receiver.counter_pool().in_use(), 1);  // reacquired by B
}

TEST_F(RvmaTest, ReceiverManagedAppendsInArrivalOrder) {
  // Receiver-managed (sockets-like) mode: offsets ignored, bytes appended.
  std::vector<std::byte> buf(96, std::byte{0});
  void* notif = nullptr;
  receiver_.init_window(0x900, 96, EpochType::kBytes, Placement::kManaged);
  ASSERT_EQ(receiver_.post_buffer(0x900, buf, &notif, nullptr), Status::kOk);

  std::vector<std::byte> a(32, std::byte{0x0A});
  std::vector<std::byte> b(64, std::byte{0x0B});
  // Both sent with offset 0 — steered mode would overwrite; managed
  // appends (star topology delivers in injection order).
  sender_.put(1, 0x900, 0, a.data(), 32);
  sender_.put(1, 0x900, 0, b.data(), 64);
  run();
  EXPECT_EQ(notif, buf.data());
  EXPECT_EQ(buf[0], std::byte{0x0A});
  EXPECT_EQ(buf[31], std::byte{0x0A});
  EXPECT_EQ(buf[32], std::byte{0x0B});
  EXPECT_EQ(buf[95], std::byte{0x0B});
}

TEST_F(RvmaTest, GetPullsFromActiveBufferIntoReplyMailbox) {
  // Target (node 1) has data in its active buffer at 0xD00.
  std::vector<std::byte> remote(256);
  for (std::size_t i = 0; i < remote.size(); ++i) {
    remote[i] = static_cast<std::byte>(i);
  }
  receiver_.init_window(0xD00, 1 << 20, EpochType::kBytes);
  ASSERT_EQ(receiver_.post_buffer(0xD00, remote, nullptr, nullptr), Status::kOk);

  // Requester (node 0) prepares the reply mailbox.
  std::vector<std::byte> reply(128, std::byte{0});
  void* notif = nullptr;
  sender_.init_window(0xE00, 128, EpochType::kBytes);
  ASSERT_EQ(sender_.post_buffer(0xE00, reply, &notif, nullptr), Status::kOk);

  sender_.get(1, 0xD00, 64, 128, 0xE00);
  run();
  EXPECT_EQ(notif, reply.data());
  EXPECT_EQ(std::memcmp(reply.data(), remote.data() + 64, 128), 0);
}

TEST_F(RvmaTest, NotifyWaitIsOneShotObserverIsPersistent) {
  receiver_.init_window(0xF00, 8, EpochType::kBytes);
  receiver_.post_buffer_timing_only(0xF00, 8);
  receiver_.post_buffer_timing_only(0xF00, 8);

  int waits = 0, observes = 0;
  receiver_.notify_wait(0xF00, [&](void*, std::int64_t) { ++waits; });
  receiver_.set_completion_observer(0xF00,
                                    [&](void*, std::int64_t) { ++observes; });
  sender_.put(1, 0xF00, 0, nullptr, 8);
  sender_.put(1, 0xF00, 0, nullptr, 8);
  run();
  EXPECT_EQ(waits, 1);
  EXPECT_EQ(observes, 2);
}

TEST_F(RvmaTest, WindowHandleRoundTrip) {
  Window win = receiver_.init_window(0xAB, 16, EpochType::kBytes);
  EXPECT_TRUE(win.valid());
  EXPECT_EQ(win.vaddr(), 0xABu);
  EXPECT_EQ(win.completions(), 0u);
  ASSERT_EQ(win.post_timing_only(16), Status::kOk);
  sender_.put(1, 0xAB, 0, nullptr, 16);
  run();
  EXPECT_EQ(win.completions(), 1u);
}

TEST_F(RvmaTest, PostToUnknownMailboxFails) {
  std::vector<std::byte> buf(64);
  EXPECT_EQ(receiver_.post_buffer(0xCAFE, buf, nullptr, nullptr),
            Status::kNoMailbox);
  EXPECT_EQ(receiver_.post_buffer_timing_only(0xCAFE, 64), Status::kNoMailbox);
  EXPECT_EQ(receiver_.close_window(0xCAFE), Status::kNoMailbox);
  EXPECT_EQ(receiver_.inc_epoch(0xCAFE), Status::kNoMailbox);
}

TEST_F(RvmaTest, SendDoneCallbackFires) {
  receiver_.init_window(0x1, 64, EpochType::kBytes);
  receiver_.post_buffer_timing_only(0x1, 64);
  Time sent_at = 0;
  sender_.put(1, 0x1, 0, nullptr, 64,
              [&] { sent_at = cluster_.engine().now(); });
  run();
  EXPECT_GT(sent_at, 0u);
}

TEST(RvmaOpCounting, InterleavedSingleAndMultiPacketPuts) {
  // Operation counting with 1-packet and 3-packet puts in one mailbox,
  // with arrivals reordered: the receiver has one on-NIC counter, held by
  // a blocker window when the first buffer is posted, so that buffer's
  // packets pay the host-counter penalty. Once it completes, the next
  // buffer takes the freed counter and a burst of small puts behind the
  // boundary overtakes the ones still in the penalty. Every put counts
  // once, and the op observer fires for each put that completes no
  // buffer. Which puts are tracked per message must not move any of the
  // pinned values.
  cluster::Cluster cluster(star2(), nic::NicParams{});
  RvmaParams params;
  params.nic_counters = 1;
  RvmaEndpoint sender(cluster.nic(0), RvmaParams{});
  RvmaEndpoint receiver(cluster.nic(1), params);
  constexpr std::uint64_t kVaddr = 0x700, kBlocker = 0x900;
  constexpr std::uint64_t kSmall = 64, kLarge = 10000;  // 1 and 3 packets
  receiver.init_window(kBlocker, 1, EpochType::kOps);
  ASSERT_EQ(receiver.post_buffer_timing_only(kBlocker, 64), Status::kOk);
  receiver.init_window(kVaddr, static_cast<std::int64_t>(kLarge + kSmall),
                       EpochType::kBytes);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(receiver.post_buffer_timing_only(kVaddr, 64 * 1024),
              Status::kOk);
  }
  ASSERT_EQ(receiver.free_window(kBlocker), Status::kOk);
  int op_calls = 0;
  receiver.set_op_observer(kVaddr,
                           [&](std::int64_t, std::uint64_t) { ++op_calls; });

  // Large, small (the first buffer completes), a burst of 28 small puts
  // straddling the counter switch, then large/small pairs.
  std::vector<std::uint64_t> sizes = {kLarge, kSmall};
  sizes.insert(sizes.end(), 28, kSmall);
  for (int i = 0; i < 3; ++i) {
    sizes.push_back(kLarge);
    sizes.push_back(kSmall);
  }
  for (const std::uint64_t bytes : sizes) {
    sender.put(1, kVaddr, 0, nullptr, bytes);
  }
  cluster.engine().run();

  const obs::MetricsSnapshot m = cluster.collect_metrics();
  EXPECT_EQ(m.counters.at("rvma.puts_received"), sizes.size());
  EXPECT_EQ(m.counters.at("rvma.packets_received"), 4 * 3 + 32u);
  EXPECT_EQ(cluster.collect_metrics().counters.at("rvma.puts_received"),
            sizes.size());
  const obs::HistogramSnapshot& ooo =
      m.histograms.at("rvma.mailbox_ooo_degree");
  EXPECT_EQ(ooo.count, sizes.size());
  EXPECT_EQ(ooo.sum, 376u);
  EXPECT_EQ(ooo.max, 26u);
  EXPECT_EQ(cluster.collect_metrics().counters.at("rvma.host_counter_packets"),
            30u);
  EXPECT_EQ(cluster.collect_metrics().counters.at("rvma.completions"), 4u);
  EXPECT_EQ(op_calls, 32);  // 36 puts, 4 of them completed a buffer
}

TEST(RvmaEndpointDeathTest, CompletionObserverNeedsAMailbox) {
  // The observer lives in the mailbox's LUT record: arming one for a
  // vaddr without a mailbox is misuse and aborts, while clearing one is
  // a no-op before init_window and after free_window alike.
  cluster::Cluster cluster(star2(), nic::NicParams{});
  RvmaEndpoint ep(cluster.nic(1), RvmaParams{});
  ep.set_completion_observer(0xBAD, nullptr);
  EXPECT_DEATH(ep.set_completion_observer(0xBAD, [](void*, std::int64_t) {}),
               "has no mailbox");
  ep.init_window(0xBAD, 8, EpochType::kBytes);
  ep.set_completion_observer(0xBAD, [](void*, std::int64_t) {});
  ASSERT_EQ(ep.free_window(0xBAD), Status::kOk);
  ep.set_completion_observer(0xBAD, nullptr);
}

}  // namespace
}  // namespace rvma::core
