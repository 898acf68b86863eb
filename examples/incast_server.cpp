// incast_server: many-to-one service on RVMA — the client/server pattern
// the paper's abstract says RDMA handles badly (per-client exclusive
// regions, unbounded reservations) and RVMA handles naturally (one mailbox,
// receiver-managed bucket of buffers, no per-client state).
//
// N clients each send `--requests` records to one server mailbox. The
// server posts a modest rolling bucket and tops it up locally as records
// complete; clients never negotiate or hold server resources. Late
// clients whose records find no posted buffer are NACKed, and the server
// reports its drop statistics — receiver-side resource management in
// action.
//
// Usage: incast_server [--clients=12] [--requests=6] [--record=4096]
//                      [--bucket=8]
#include <cstdio>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/cli.hpp"
#include "core/endpoint.hpp"

using namespace rvma;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int clients = static_cast<int>(cli.get_int("clients", 12));
  const int requests = static_cast<int>(cli.get_int("requests", 6));
  const std::uint64_t record = cli.get_int("record", 4096);
  const int bucket = static_cast<int>(cli.get_int("bucket", 8));
  for (const auto& key : cli.unconsumed()) {
    std::fprintf(stderr, "unknown option --%s\n", key.c_str());
    return 2;
  }

  net::NetworkConfig net_cfg;
  net_cfg.topology = net::TopologyKind::kFatTree;
  net_cfg.routing = net::Routing::kAdaptive;
  net_cfg.nodes_hint = clients + 1;
  cluster::Cluster cluster(net_cfg, nic::NicParams{});
  const int server_node = 0;

  core::RvmaEndpoint server(cluster.nic(server_node), core::RvmaParams{});
  std::vector<std::unique_ptr<core::RvmaEndpoint>> client_eps;
  for (int c = 1; c <= clients; ++c) {
    client_eps.push_back(std::make_unique<core::RvmaEndpoint>(
        cluster.nic(c), core::RvmaParams{}));
  }

  // The service mailbox: every record is one epoch (byte threshold =
  // record size). The bucket is topped up locally on each completion.
  constexpr std::uint64_t kService = 0x5E41CE;
  core::Window service =
      server.init_window(kService, static_cast<std::int64_t>(record),
                         core::EpochType::kBytes);
  const int total_records = clients * requests;
  std::vector<std::vector<std::byte>> pool(
      total_records, std::vector<std::byte>(record));
  int next_pool = 0;
  for (int i = 0; i < bucket && next_pool < total_records; ++i) {
    service.post(pool[next_pool++], nullptr);
  }

  std::uint64_t served = 0;
  std::vector<std::uint64_t> per_client(clients + 1, 0);
  server.set_completion_observer(kService, [&](void* buf, std::int64_t len) {
    ++served;
    const auto* data = static_cast<const std::byte*>(buf);
    const int client = std::to_integer<int>(data[0]);
    if (client >= 1 && client <= clients && len > 0) ++per_client[client];
    if (next_pool < total_records) {
      service.post(pool[next_pool++], nullptr);  // local top-up, no network
    }
  });

  // Clients fire their records with no setup handshake at all.
  std::vector<std::vector<std::byte>> payloads;
  payloads.reserve(static_cast<std::size_t>(clients) * requests);
  std::uint64_t nacks = 0;
  for (int c = 1; c <= clients; ++c) {
    client_eps[c - 1]->on_nack([&](std::uint64_t, Status) { ++nacks; });
    for (int q = 0; q < requests; ++q) {
      payloads.emplace_back(record, static_cast<std::byte>(c));
      auto& payload = payloads.back();
      // Stagger each client's requests slightly.
      cluster.engine().schedule(
          static_cast<Time>(q) * 2 * kMicrosecond + c * 100 * kNanosecond,
          [&, c] {
            client_eps[c - 1]->put(server_node, kService, 0, payload.data(),
                                   record);
          });
    }
  }
  cluster.engine().run();

  std::printf("incast_server: %d clients x %d requests of %llu B "
              "(bucket depth %d)\n",
              clients, requests, static_cast<unsigned long long>(record),
              bucket);
  std::printf("served %llu/%d records in %s; NACKs to clients: %llu, "
              "drops(no buffer): %llu\n",
              static_cast<unsigned long long>(served), total_records,
              format_time(cluster.engine().now()).c_str(),
              static_cast<unsigned long long>(nacks),
              static_cast<unsigned long long>(
                  cluster.collect_metrics().counters.at(
                      "rvma.drops_no_buffer")));
  for (int c = 1; c <= clients; ++c) {
    if (per_client[c] != static_cast<std::uint64_t>(requests)) {
      std::printf("  client %d: %llu/%d records\n", c,
                  static_cast<unsigned long long>(per_client[c]), requests);
    }
  }
  return served == static_cast<std::uint64_t>(total_records) ? 0 : 1;
}
