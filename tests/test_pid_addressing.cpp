// NID/PID addressing tests (paper §III-C: "Physical and/or logical
// addresses may include a network ID (NID) and process ID (PID) pair, if
// remote process space targeting is desirable"): multiple endpoints —
// processes — share one NIC and traffic steers by pid.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/endpoint.hpp"
#include "rdma/rdma.hpp"

namespace rvma {
namespace {

using core::EpochType;
using core::RvmaEndpoint;
using core::RvmaParams;

net::NetworkConfig star2() {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kStar;
  cfg.nodes_hint = 2;
  return cfg;
}

TEST(PidAddressing, TwoRvmaProcessesShareOneNic) {
  cluster::Cluster cluster(star2(), nic::NicParams{});
  RvmaEndpoint sender(cluster.nic(0), RvmaParams{});
  RvmaEndpoint proc_a(cluster.nic(1), RvmaParams{}, /*pid=*/1);
  RvmaEndpoint proc_b(cluster.nic(1), RvmaParams{}, /*pid=*/2);
  EXPECT_EQ(proc_a.pid(), 1);
  EXPECT_EQ(proc_b.pid(), 2);

  // Same mailbox vaddr in both processes: pid disambiguates.
  std::vector<std::byte> buf_a(64, std::byte{0}), buf_b(64, std::byte{0});
  proc_a.init_window(0x1, 64, EpochType::kBytes);
  proc_b.init_window(0x1, 64, EpochType::kBytes);
  ASSERT_EQ(proc_a.post_buffer(0x1, buf_a, nullptr, nullptr), Status::kOk);
  ASSERT_EQ(proc_b.post_buffer(0x1, buf_b, nullptr, nullptr), Status::kOk);

  std::vector<std::byte> to_a(64, std::byte{0xA1});
  std::vector<std::byte> to_b(64, std::byte{0xB2});
  sender.put(1, 0x1, 0, to_a.data(), 64, {}, 0, /*dst_pid=*/1);
  sender.put(1, 0x1, 0, to_b.data(), 64, {}, 0, /*dst_pid=*/2);
  cluster.engine().run();

  EXPECT_EQ(buf_a[0], std::byte{0xA1});
  EXPECT_EQ(buf_b[0], std::byte{0xB2});
  EXPECT_EQ(proc_a.completions(0x1), 1u);
  EXPECT_EQ(proc_b.completions(0x1), 1u);
}

TEST(PidAddressing, NackRoutesBackToOriginProcess) {
  cluster::Cluster cluster(star2(), nic::NicParams{});
  RvmaEndpoint proc_x(cluster.nic(0), RvmaParams{}, /*pid=*/5);
  RvmaEndpoint proc_y(cluster.nic(0), RvmaParams{}, /*pid=*/6);
  RvmaEndpoint target(cluster.nic(1), RvmaParams{});

  int x_nacks = 0, y_nacks = 0;
  proc_x.on_nack([&](std::uint64_t, Status) { ++x_nacks; });
  proc_y.on_nack([&](std::uint64_t, Status) { ++y_nacks; });
  proc_x.put(1, 0xDEAD, 0, nullptr, 8);  // no such mailbox -> NACK
  cluster.engine().run();
  EXPECT_EQ(x_nacks, 1);
  EXPECT_EQ(y_nacks, 0);  // the co-located process must not see it
}

TEST(PidAddressing, GetRepliesToRequestingProcess) {
  cluster::Cluster cluster(star2(), nic::NicParams{});
  RvmaEndpoint requester(cluster.nic(0), RvmaParams{}, /*pid=*/3);
  RvmaEndpoint other(cluster.nic(0), RvmaParams{}, /*pid=*/4);
  RvmaEndpoint target(cluster.nic(1), RvmaParams{}, /*pid=*/7);

  std::vector<std::byte> remote(128, std::byte{0x77});
  target.init_window(0x10, 1 << 20, EpochType::kBytes);
  ASSERT_EQ(target.post_buffer(0x10, remote, nullptr, nullptr), Status::kOk);

  std::vector<std::byte> reply(128, std::byte{0});
  requester.init_window(0x20, 128, EpochType::kBytes);
  other.init_window(0x20, 128, EpochType::kBytes);  // decoy, no buffer
  ASSERT_EQ(requester.post_buffer(0x20, reply, nullptr, nullptr), Status::kOk);

  requester.get(1, 0x10, 0, 128, 0x20, /*dst_pid=*/7);
  cluster.engine().run();
  EXPECT_EQ(reply[0], std::byte{0x77});
  EXPECT_EQ(requester.completions(0x20), 1u);
  EXPECT_EQ(other.completions(0x20), 0u);
}

TEST(PidAddressing, RdmaHandshakeCarriesPid) {
  cluster::Cluster cluster(star2(), nic::NicParams{});
  rdma::RdmaEndpoint initiator(cluster.nic(0), rdma::RdmaParams{}, /*pid=*/9);
  rdma::RdmaEndpoint server(cluster.nic(1), rdma::RdmaParams{}, /*pid=*/11);
  server.serve_buffer_requests(
      [](std::uint64_t, std::uint64_t) { return std::span<std::byte>{}; });

  rdma::RemoteBuffer rb;
  cluster.engine().schedule(0, [&] {
    initiator.request_buffer(
        1, 4096, [&](rdma::RemoteBuffer b) { rb = b; }, 0, /*target_pid=*/11);
  });
  cluster.engine().run();
  EXPECT_EQ(rb.pid, 11);  // the region's owning process

  // Put targets the region owner's process; ack returns to pid 9.
  bool done = false;
  cluster.engine().schedule(0, [&] {
    initiator.put(rb, 0, nullptr, 4096, [&] { done = true; });
  });
  cluster.engine().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(cluster.collect_metrics().counters.at("rdma.puts_received"), 1u);
}

TEST(PidAddressing, RvmaAndRdmaProcessesAllCoexist) {
  cluster::Cluster cluster(star2(), nic::NicParams{});
  // Four endpoints on node 1: two protocols x two processes.
  RvmaEndpoint rvma_p0(cluster.nic(1), RvmaParams{}, 0);
  RvmaEndpoint rvma_p1(cluster.nic(1), RvmaParams{}, 1);
  rdma::RdmaEndpoint rdma_p0(cluster.nic(1), rdma::RdmaParams{}, 0);
  rdma::RdmaEndpoint rdma_p1(cluster.nic(1), rdma::RdmaParams{}, 1);

  RvmaEndpoint rvma_src(cluster.nic(0), RvmaParams{});
  rvma_p0.init_window(0x1, 8, EpochType::kBytes);
  rvma_p1.init_window(0x1, 8, EpochType::kBytes);
  rvma_p0.post_buffer_timing_only(0x1, 8);
  rvma_p1.post_buffer_timing_only(0x1, 8);
  rvma_src.put(1, 0x1, 0, nullptr, 8, {}, 0, 0);
  rvma_src.put(1, 0x1, 0, nullptr, 8, {}, 0, 1);
  cluster.engine().run();
  EXPECT_EQ(rvma_p0.completions(0x1), 1u);
  EXPECT_EQ(rvma_p1.completions(0x1), 1u);
}

}  // namespace
}  // namespace rvma
