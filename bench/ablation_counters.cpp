// Ablation: bounded on-NIC counter pool with host-memory spill.
//
// The paper (§III-B) argues the RVMA translation table is sparse, so a
// limited counter pool suffices; overflowing to host memory costs ~200 ns
// per update on today's PCIe and tens of ns on Gen 6+. This bench sweeps
// the pool size against a fixed number of concurrently active mailboxes
// and reports completion latency with both penalty settings.
#include <cstdio>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/endpoint.hpp"
#include "exec/sweep_executor.hpp"

using namespace rvma;
using core::EpochType;
using core::RvmaEndpoint;
using core::RvmaParams;

namespace {

struct Result {
  double mean_us;
  std::uint64_t spilled_packets;
};

Result run_case(int active_mailboxes, int nic_counters, Time penalty,
                int epochs) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kStar;
  cfg.nodes_hint = 2;
  cluster::Cluster cluster(cfg, nic::NicParams{});
  RvmaParams params;
  params.nic_counters = nic_counters;
  params.host_counter_penalty = penalty;
  RvmaEndpoint sender(cluster.nic(0), params);
  RvmaEndpoint receiver(cluster.nic(1), params);

  constexpr std::uint64_t kBytes = 1024;
  RunningStat lat;
  std::vector<Time> put_at(active_mailboxes);
  for (int m = 0; m < active_mailboxes; ++m) {
    const std::uint64_t vaddr = 0x1000 + m;
    receiver.init_window(vaddr, kBytes, EpochType::kBytes);
    for (int e = 0; e < epochs; ++e) {
      receiver.post_buffer_timing_only(vaddr, kBytes);
    }
    receiver.set_completion_observer(vaddr, [&, m](void*, std::int64_t) {
      lat.add(to_us(cluster.engine().now() - put_at[m]));
    });
  }
  // Serialized epochs per mailbox, all mailboxes concurrently.
  for (int e = 0; e < epochs; ++e) {
    cluster.engine().schedule(
        static_cast<Time>(e) * 20 * kMicrosecond, [&, e] {
          for (int m = 0; m < active_mailboxes; ++m) {
            put_at[m] = cluster.engine().now();
            sender.put(1, 0x1000 + m, 0, nullptr, kBytes);
          }
        });
  }
  cluster.engine().run();
  return {lat.mean(),
          cluster.collect_metrics().counters.at("rvma.host_counter_packets")};
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int mailboxes = static_cast<int>(cli.get_int("mailboxes", 64));
  const int epochs = static_cast<int>(cli.get_int("epochs", 20));
  const int jobs = static_cast<int>(cli.get_int("jobs", 0));
  for (const auto& key : cli.unconsumed()) {
    std::fprintf(stderr, "unknown option --%s\n", key.c_str());
    return 2;
  }

  std::printf("Ablation: on-NIC counter pool size vs completion latency\n");
  std::printf("%d concurrently active mailboxes, %d epochs each, 1 KiB "
              "epochs\n\n",
              mailboxes, epochs);

  Table table({"nic counters", "spilled pkts", "lat us (PCIe5 200ns)",
               "lat us (PCIe6 20ns)"});
  const std::vector<int> pool_sizes = {0, 8, 16, 32, 48, 64, 128};
  // Each (pool size, PCIe gen) case is an independent simulation: fan the
  // grid out over the sweep executor, collect in deterministic order.
  const auto results = exec::sweep_map<Result>(
      jobs, pool_sizes.size() * 2, [&](std::size_t i) {
        const int counters = pool_sizes[i / 2];
        const Time penalty =
            (i % 2) == 0 ? 200 * kNanosecond : 20 * kNanosecond;
        return run_case(mailboxes, counters, penalty, epochs);
      });
  for (std::size_t i = 0; i < pool_sizes.size(); ++i) {
    const Result& gen5 = results[i * 2];
    const Result& gen6 = results[i * 2 + 1];
    table.add_row({std::to_string(pool_sizes[i]),
                   std::to_string(gen5.spilled_packets),
                   Table::num(gen5.mean_us, 3), Table::num(gen6.mean_us, 3)});
  }
  table.print();
  std::printf("\npool >= active mailboxes -> zero spill, no penalty; the\n"
              "PCIe Gen 6 row shows the paper's point that the spill cost\n"
              "becomes minimal on future buses.\n");
  return 0;
}
