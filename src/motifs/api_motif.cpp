#include "motifs/api_motif.hpp"

#include <algorithm>
#include <cassert>

namespace rvma::motifs {

void ApiMotif::finish_rank(int rank) {
  const auto r = static_cast<std::size_t>(rank);
  rank_done_[r] = 1;
  rank_finish_[r] = cluster_->engine_for(rank).now();
}

ApiMotifResult ApiMotif::run(cluster::Cluster& cluster) {
  cluster_ = &cluster;
  ranks_ = cluster.num_nodes();
  const auto n = static_cast<std::size_t>(ranks_);
  rank_ops_.assign(n, 0);
  rank_done_.assign(n, 0);
  rank_finish_.assign(n, 0);
  counters_.assign(n * instruments_.size(), nullptr);
  ctx_.resize(n);
  for (int r = 0; r < ranks_; ++r) {
    ctx_[static_cast<std::size_t>(r)] = rvma_initialize(&cluster, r);
  }
  setup();
  // Kick every rank off at t=0 on its own shard engine; all cross-rank
  // influence from here on travels through the network, which is what
  // keeps serial and sharded runs bit-identical.
  for (int r = 0; r < ranks_; ++r) {
    cluster.engine_for(r).schedule(0, [this, r] { start(r); });
  }
  cluster.run();
  ApiMotifResult res;
  for (int r = 0; r < ranks_; ++r) {
    const auto i = static_cast<std::size_t>(r);
    assert(rank_done_[i] != 0 && "api motif rank never finished (deadlock)");
    res.ops_executed += rank_ops_[i];
    res.makespan = std::max(res.makespan, rank_finish_[i]);
  }
  for (auto& c : ctx_) {
    rvma_finalize(c);
    c = nullptr;
  }
  return res;
}

}  // namespace rvma::motifs
