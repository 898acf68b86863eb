// Extension table: many-to-one incast, RVMA vs RDMA, sweeping client
// count — the client-server pattern the paper's abstract says makes RDMA
// "unattractive" (per-client exclusive regions, unbounded reservations).
//
// RVMA serves all clients from ONE mailbox with a receiver-managed bucket;
// RDMA must negotiate and register a region per client and return credits
// per message. The table reports completion time, control-message counts,
// and the registered-region footprint the RDMA server must dedicate.
#include <cstdio>

#include "cluster/cluster.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "motifs/incast.hpp"
#include "motifs/rdma_transport.hpp"
#include "motifs/runner.hpp"
#include "motifs/rvma_transport.hpp"

using namespace rvma;
using namespace rvma::motifs;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int messages = static_cast<int>(cli.get_int("messages", 8));
  const std::uint64_t bytes = cli.get_int("bytes", 16 * KiB);
  for (const auto& key : cli.unconsumed()) {
    std::fprintf(stderr, "unknown option --%s\n", key.c_str());
    return 2;
  }

  std::printf("Extension: incast (many-to-one) on adaptive fat-tree @ "
              "400 Gbps, %d msgs of %llu B per client\n\n",
              messages, static_cast<unsigned long long>(bytes));
  Table table({"clients", "rdma us", "ctrl msgs", "regions", "rvma us",
               "ctrl msgs", "mailboxes", "speedup"});

  for (int clients : {4, 8, 16, 32, 64}) {
    IncastConfig cfg;
    cfg.clients = clients;
    cfg.messages_per_client = messages;
    cfg.bytes = bytes;
    cfg.client_compute = 200 * kNanosecond;

    net::NetworkConfig net_cfg;
    net_cfg.topology = net::TopologyKind::kFatTree;
    net_cfg.routing = net::Routing::kAdaptive;
    net_cfg.nodes_hint = cfg.ranks();
    net_cfg.link.bw = Bandwidth::gbps(400);
    net_cfg.seed = 13;

    Time rdma_time = 0, rvma_time = 0;
    std::uint64_t rdma_ctrl = 0, rvma_ctrl = 0, regions = 0;
    {
      cluster::Cluster cluster(net_cfg, nic::NicParams{});
      RdmaTransport transport(cluster, rdma::RdmaParams{}, false, 2);
      const MotifResult r =
          MotifRunner(cluster, transport, build_incast(cfg)).run();
      rdma_time = r.makespan;
      rdma_ctrl = r.transport.control_messages;
      regions =
          cluster.collect_metrics().counters.at("rdma.regions_registered");
    }
    {
      cluster::Cluster cluster(net_cfg, nic::NicParams{});
      RvmaTransport transport(cluster, core::RvmaParams{});
      const MotifResult r =
          MotifRunner(cluster, transport, build_incast(cfg)).run();
      rvma_time = r.makespan;
      rvma_ctrl = r.transport.control_messages;
    }
    table.add_row({std::to_string(clients), Table::num(to_us(rdma_time), 1),
                   std::to_string(rdma_ctrl), std::to_string(regions),
                   Table::num(to_us(rvma_time), 1),
                   std::to_string(rvma_ctrl),
                   std::to_string(clients),  // one mailbox per channel
                   Table::num(static_cast<double>(rdma_time) /
                                  static_cast<double>(rvma_time),
                              2) +
                       "x"});
  }
  table.print();
  std::printf("\nRDMA: a registered region + credit stream per client.\n"
              "RVMA: receiver-managed buckets, zero control messages.\n");
  return 0;
}
