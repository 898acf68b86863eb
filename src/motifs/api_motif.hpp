// ApiMotif: base class for application motifs written entirely against
// the public rvma.h surface.
//
// Where MotifRunner interprets per-rank op lists over a Transport,
// ApiMotif subclasses are real programs: each rank owns an rvma_ctx and
// drives windows, puts and gets from callbacks on its node's engine. The
// base class supplies the deterministic scaffolding the runner has — one
// context per rank, per-rank single-writer progress arrays, a t=0
// kickoff on each rank's shard engine, and the serial/sharded run split
// — so a subclass only writes setup() (local window/buffer creation, no
// network traffic) and start(rank) (the first simulated action).
//
// The spec's transport field is ignored for API motifs: the API layer
// *is* the transport, and building a second endpoint stack would hijack
// packet dispatch (Nic::register_proto replaces the handler per pid).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "api/rvma.h"
#include "cluster/cluster.hpp"

namespace rvma::motifs {

struct ApiMotifResult {
  Time makespan = 0;            ///< latest rank finish time
  std::uint64_t ops_executed = 0;  ///< sum of add_ops() across ranks
};

class ApiMotif {
 public:
  /// `instruments` names the subclass's metrics counters; counter() takes
  /// an index into it. The span must outlive the motif.
  explicit ApiMotif(std::span<const char* const> instruments)
      : instruments_(instruments) {}
  virtual ~ApiMotif() = default;

  /// Run the motif over every node of the cluster. Creates one context
  /// per rank, calls setup(), schedules start(rank) at t=0 on each
  /// rank's engine, runs the engine(s) to completion, and finalizes the
  /// contexts (which releases all window handles — see rvma.h lifetime).
  ApiMotifResult run(cluster::Cluster& cluster);

 protected:
  /// Purely local preparation: windows, captures, buffer pools. Runs
  /// before the engines start; must not send network traffic.
  virtual void setup() = 0;
  /// First action of `rank`, fired at t=0 on its shard engine.
  virtual void start(int rank) = 0;

  cluster::Cluster& cluster() { return *cluster_; }
  int ranks() const { return ranks_; }
  rvma_ctx ctx(int rank) { return ctx_[static_cast<std::size_t>(rank)]; }
  sim::Engine& engine_for(int rank) { return cluster_->engine_for(rank); }
  /// Instrument `id` on the rank's NIC registry — per-shard, merged
  /// order-invariantly by Cluster::collect_metrics(). Each (rank, id)
  /// pointer is resolved on first use and cached, so the registry holds
  /// only the instruments a rank actually touched.
  obs::Counter& counter(int rank, int id) {
    obs::Counter*& c = counters_[static_cast<std::size_t>(rank) *
                                     instruments_.size() +
                                 static_cast<std::size_t>(id)];
    if (c == nullptr) {
      c = &cluster_->nic(rank).metrics().counter(
          instruments_[static_cast<std::size_t>(id)]);
    }
    return *c;
  }

  /// Single-writer per-rank progress (each cell touched only from its
  /// rank's shard thread, the MotifRunner discipline).
  void add_ops(int rank, std::uint64_t n) {
    rank_ops_[static_cast<std::size_t>(rank)] += n;
  }
  void finish_rank(int rank);

 private:
  cluster::Cluster* cluster_ = nullptr;
  int ranks_ = 0;
  std::vector<rvma_ctx> ctx_;
  std::vector<std::uint64_t> rank_ops_;
  std::vector<std::uint8_t> rank_done_;  // not vector<bool>: shard-safe
  std::vector<Time> rank_finish_;
  std::span<const char* const> instruments_;
  /// [rank * instruments_.size() + id], each cell written only from its
  /// rank's shard thread.
  std::vector<obs::Counter*> counters_;
};

}  // namespace rvma::motifs
