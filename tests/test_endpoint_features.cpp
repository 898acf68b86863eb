// Tests for core features beyond the basic put path: protection keys,
// managed-mode boundary spilling, owned-payload puts, window freeing,
// NIC transmit-queue limits, and network failure injection.
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
  return cfg;
}

class FeatureTest : public ::testing::Test {
 protected:
  FeatureTest()
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

// ------------------------------------------------------- protection keys

TEST_F(FeatureTest, KeyedWindowRejectsWrongKey) {
  constexpr std::uint64_t kKey = 0xfeedface;
  receiver_.init_window(0x1, 64, EpochType::kBytes, Placement::kSteered, kKey);
  receiver_.post_buffer_timing_only(0x1, 64);

  Status nack = Status::kOk;
  sender_.on_nack([&](std::uint64_t, Status r) { nack = r; });
  sender_.put(1, 0x1, 0, nullptr, 64, {}, /*key=*/0xBAD);
  run();
  EXPECT_EQ(counter("rvma.drops_bad_key"), 1u);
  EXPECT_EQ(nack, Status::kError);
  EXPECT_EQ(receiver_.completions(0x1), 0u);
}

TEST_F(FeatureTest, KeyedWindowAcceptsCorrectKey) {
  constexpr std::uint64_t kKey = 0xfeedface;
  receiver_.init_window(0x1, 64, EpochType::kBytes, Placement::kSteered, kKey);
  receiver_.post_buffer_timing_only(0x1, 64);
  sender_.put(1, 0x1, 0, nullptr, 64, {}, kKey);
  run();
  EXPECT_EQ(receiver_.completions(0x1), 1u);
  EXPECT_EQ(counter("rvma.drops_bad_key"), 0u);
}

TEST_F(FeatureTest, UnkeyedWindowAcceptsAnything) {
  receiver_.init_window(0x1, 64, EpochType::kBytes);
  receiver_.post_buffer_timing_only(0x1, 64);
  sender_.put(1, 0x1, 0, nullptr, 64, {}, /*key=*/12345);
  run();
  EXPECT_EQ(receiver_.completions(0x1), 1u);
}

TEST_F(FeatureTest, KeyEnforcementCanBeDisabled) {
  RvmaParams params;
  params.enforce_keys = false;
  cluster::Cluster cluster(star2(), nic::NicParams{});
  RvmaEndpoint sender(cluster.nic(0), params);
  RvmaEndpoint receiver(cluster.nic(1), params);
  receiver.init_window(0x1, 64, EpochType::kBytes, Placement::kSteered, 0x77);
  receiver.post_buffer_timing_only(0x1, 64);
  sender.put(1, 0x1, 0, nullptr, 64, {}, /*key=*/0);
  cluster.engine().run();
  EXPECT_EQ(receiver.completions(0x1), 1u);
}

// -------------------------------------------- managed-mode boundary split

TEST_F(FeatureTest, ManagedModeSpillsAcrossBuffers) {
  std::vector<std::byte> seg_a(100), seg_b(100);
  receiver_.init_window(0x2, 100, EpochType::kBytes, Placement::kManaged);
  ASSERT_EQ(receiver_.post_buffer(0x2, seg_a, nullptr, nullptr), Status::kOk);
  ASSERT_EQ(receiver_.post_buffer(0x2, seg_b, nullptr, nullptr), Status::kOk);

  std::vector<std::byte> payload(150);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i);
  }
  sender_.put(1, 0x2, 0, payload.data(), payload.size());
  run();

  // First buffer completed full, second holds the 50-byte tail.
  EXPECT_EQ(receiver_.completions(0x2), 1u);
  EXPECT_EQ(std::memcmp(seg_a.data(), payload.data(), 100), 0);
  EXPECT_EQ(std::memcmp(seg_b.data(), payload.data() + 100, 50), 0);
  const Mailbox* mb = receiver_.find_mailbox(0x2);
  ASSERT_TRUE(mb->has_active());
  EXPECT_EQ(mb->active().bytes_received, 50u);
}

TEST_F(FeatureTest, ManagedSpillAcrossManyBuffersOnePacket) {
  // A single 4096-byte packet spanning 5 x 1000-byte segments.
  std::vector<std::vector<std::byte>> segs(5, std::vector<std::byte>(1000));
  receiver_.init_window(0x3, 1000, EpochType::kBytes, Placement::kManaged);
  for (auto& s : segs) {
    ASSERT_EQ(receiver_.post_buffer(0x3, s, nullptr, nullptr), Status::kOk);
  }
  std::vector<std::byte> payload(4096);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 7);
  }
  sender_.put(1, 0x3, 0, payload.data(), payload.size());
  run();
  EXPECT_EQ(receiver_.completions(0x3), 4u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(std::memcmp(segs[s].data(), payload.data() + s * 1000, 1000), 0);
  }
  EXPECT_EQ(std::memcmp(segs[4].data(), payload.data() + 4000, 96), 0);
}

TEST_F(FeatureTest, ManagedRunsOutOfBuffersMidPacket) {
  std::vector<std::byte> seg(100);
  receiver_.init_window(0x4, 100, EpochType::kBytes, Placement::kManaged);
  ASSERT_EQ(receiver_.post_buffer(0x4, seg, nullptr, nullptr), Status::kOk);
  sender_.put(1, 0x4, 0, nullptr, 250);  // only 100 bytes have a home
  run();
  EXPECT_EQ(receiver_.completions(0x4), 1u);
  EXPECT_EQ(counter("rvma.drops_no_buffer"), 1u);
}

TEST_F(FeatureTest, SteeredModeStillBoundsChecks) {
  std::vector<std::byte> buf(100);
  receiver_.init_window(0x5, 100, EpochType::kBytes, Placement::kSteered);
  ASSERT_EQ(receiver_.post_buffer(0x5, buf, nullptr, nullptr), Status::kOk);
  sender_.put(1, 0x5, 50, nullptr, 100);  // 50 + 100 > 100
  run();
  EXPECT_EQ(counter("rvma.drops_overflow"), 1u);
  EXPECT_EQ(receiver_.completions(0x5), 0u);
}

// --------------------------------------------------- owned-payload puts

TEST_F(FeatureTest, PutOwnedSurvivesSenderBufferReuse) {
  std::vector<std::byte> buf(64, std::byte{0});
  void* notif = nullptr;
  receiver_.init_window(0x6, 64, EpochType::kBytes);
  ASSERT_EQ(receiver_.post_buffer(0x6, buf, &notif, nullptr), Status::kOk);

  std::vector<std::byte> payload(64, std::byte{0xCD});
  sender_.put_owned(1, 0x6, 0, std::move(payload));
  // The local vector was moved away; nothing for the caller to keep alive.
  run();
  EXPECT_EQ(notif, buf.data());
  EXPECT_EQ(buf[0], std::byte{0xCD});
  EXPECT_EQ(buf[63], std::byte{0xCD});
}

// ------------------------------------------------------- window freeing

TEST_F(FeatureTest, FreeWindowReleasesCounterAndLutEntry) {
  RvmaParams params;
  params.nic_counters = 1;
  cluster::Cluster cluster(star2(), nic::NicParams{});
  RvmaEndpoint sender(cluster.nic(0), params);
  RvmaEndpoint receiver(cluster.nic(1), params);

  receiver.init_window(0xA, 64, EpochType::kBytes);
  receiver.post_buffer_timing_only(0xA, 64);
  EXPECT_EQ(receiver.counter_pool().in_use(), 1);
  ASSERT_EQ(receiver.free_window(0xA), Status::kOk);
  EXPECT_EQ(receiver.counter_pool().in_use(), 0);
  EXPECT_EQ(receiver.find_mailbox(0xA), nullptr);

  // Traffic to the freed vaddr behaves like "no mailbox".
  sender.put(1, 0xA, 0, nullptr, 64);
  cluster.engine().run();
  EXPECT_EQ(cluster.collect_metrics().counters.at("rvma.drops_no_mailbox"), 1u);
  EXPECT_EQ(receiver.free_window(0xA), Status::kNoMailbox);
}

// --------------------------------------------------- NIC transmit queue

TEST_F(FeatureTest, TxQueueLimitStallsButDelivers) {
  nic::NicParams nic_params;
  nic_params.tx_queue_limit = 500 * kNanosecond;  // tiny: ~6 KiB at 100 Gbps
  cluster::Cluster cluster(star2(), nic_params);
  RvmaEndpoint sender(cluster.nic(0), RvmaParams{});
  RvmaEndpoint receiver(cluster.nic(1), RvmaParams{});
  receiver.init_window(0x1, 1, EpochType::kOps);
  for (int i = 0; i < 20; ++i) receiver.post_buffer_timing_only(0x1, 1 * MiB);

  for (int i = 0; i < 20; ++i) {
    sender.put(1, 0x1, 0, nullptr, 32 * KiB);
  }
  cluster.engine().run();
  EXPECT_EQ(receiver.completions(0x1), 20u);  // everything still arrives
  EXPECT_GT(cluster.metrics().counter("nic.tx_queue_stalls").value(), 0u);
}

TEST_F(FeatureTest, AmpleTxQueueNeverStalls) {
  for (int i = 0; i < 10; ++i) {
    receiver_.init_window(0x100 + i, 1, EpochType::kOps);
    receiver_.post_buffer_timing_only(0x100 + i, 1 * MiB);
    sender_.put(1, 0x100 + i, 0, nullptr, 64 * KiB);
  }
  run();
  // Paper: ample queue depths.
  EXPECT_EQ(cluster_.metrics().counter("nic.tx_queue_stalls").value(), 0u);
}

// ----------------------------------------------------- failure injection

TEST_F(FeatureTest, FailedNodeDropsTraffic) {
  receiver_.init_window(0x1, 64, EpochType::kBytes);
  receiver_.post_buffer_timing_only(0x1, 64);
  cluster_.network().fabric().fail_node(1);
  sender_.put(1, 0x1, 0, nullptr, 64);
  run();
  EXPECT_EQ(receiver_.completions(0x1), 0u);
  EXPECT_GT(cluster_.network().fabric().stats().packets_dropped_dead_node, 0u);
}

TEST_F(FeatureTest, RevivedNodeReceivesAgain) {
  receiver_.init_window(0x1, 64, EpochType::kBytes);
  receiver_.post_buffer_timing_only(0x1, 64);
  cluster_.network().fabric().fail_node(1);
  sender_.put(1, 0x1, 0, nullptr, 64);
  run();
  ASSERT_EQ(receiver_.completions(0x1), 0u);

  cluster_.network().fabric().revive_node(1);
  EXPECT_FALSE(cluster_.network().fabric().node_failed(1));
  sender_.put(1, 0x1, 0, nullptr, 64);
  run();
  EXPECT_EQ(receiver_.completions(0x1), 1u);
}

TEST_F(FeatureTest, FailureMidTransferLeavesPartialEpoch) {
  // Multi-packet transfer; the *sender* dies after injecting. The packets
  // already on the wire land; those dropped at injection never do — the
  // buffer stays incomplete and rewind recovers the previous epoch.
  nic::NicParams nic_params;
  nic_params.mtu = 1024;
  cluster::Cluster cluster(star2(), nic_params);
  RvmaEndpoint sender(cluster.nic(0), RvmaParams{});
  RvmaEndpoint receiver(cluster.nic(1), RvmaParams{});

  Window win = receiver.init_window(0x1, 8 * KiB, EpochType::kBytes);
  std::vector<std::byte> good(8 * KiB, std::byte{0x0A});
  std::vector<std::byte> buf0(8 * KiB), buf1(8 * KiB);
  ASSERT_EQ(win.post(buf0, nullptr), Status::kOk);
  ASSERT_EQ(win.post(buf1, nullptr), Status::kOk);

  sender.put(1, 0x1, 0, good.data(), good.size());
  cluster.engine().run();
  ASSERT_EQ(win.epoch(), 1);

  // Second epoch arrives as two halves; the sender dies between them.
  const Time t0 = cluster.engine().now();
  sender.put(1, 0x1, 0, good.data(), 4 * KiB);
  cluster.engine().schedule_at(t0 + 500 * kNanosecond, [&] {
    cluster.network().fabric().fail_node(0);
  });
  cluster.engine().schedule_at(t0 + kMicrosecond, [&] {
    sender.put(1, 0x1, 4 * KiB, good.data(), 4 * KiB);  // dropped: dead
  });
  cluster.engine().run();

  EXPECT_EQ(win.epoch(), 1);  // epoch 2 never completed
  const Mailbox* mb = receiver.find_mailbox(0x1);
  ASSERT_TRUE(mb->has_active());
  EXPECT_EQ(mb->active().bytes_received, 4u * KiB);  // half-written buffer

  void* recovered = nullptr;
  std::int64_t len = 0;
  ASSERT_EQ(win.rewind(1, &recovered, &len), Status::kOk);
  EXPECT_EQ(recovered, buf0.data());
  EXPECT_EQ(len, static_cast<std::int64_t>(8 * KiB));
}

}  // namespace
}  // namespace rvma::core
