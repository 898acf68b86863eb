// Motif engine: compiles a communication motif into per-rank op programs
// and executes them over a Transport on the simulated cluster.
//
// This mirrors how SST's ember motifs work: each rank is a state machine
// issuing sends/receives/compute with real dependencies, so wavefront
// stalls, credit waits, and completion latencies show up in the makespan
// exactly as they would at scale.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "motifs/transport.hpp"
#include "cluster/cluster.hpp"

namespace rvma::motifs {

struct Op {
  enum class Kind {
    kSend,      ///< blocking send on (rank -> peer, tag)
    kRecvPost,  ///< non-blocking: arm the next message on (peer -> rank, tag)
    kRecvWait,  ///< block until that message completes
    kCompute,   ///< local work for `compute` sim-time
  };
  Kind kind = Kind::kCompute;
  int peer = -1;
  /// Builders name a send/recv op's channel by (peer, tag); MotifRunner
  /// rewrites the tag to the channel's ChannelId before the run.
  union {
    std::uint64_t tag = 0;
    ChannelId channel;
  };
  std::uint64_t bytes = 0;
  Time compute = 0;
};
static_assert(sizeof(Op) == 32, "Op is the unit of motif program memory");

/// One rank's program (ranks map 1:1 to cluster nodes).
using RankProgram = std::vector<Op>;

struct MotifResult {
  Time setup_done = 0;     ///< when transport setup (handshakes) finished
  Time makespan = 0;       ///< time of the last rank finishing
  std::uint64_t ops_executed = 0;
  std::uint64_t engine_events = 0;
  TransportStats transport;
};

class MotifRunner {
 public:
  MotifRunner(cluster::Cluster& cluster, Transport& transport,
              std::vector<RankProgram> programs);

  /// Derive channels from the programs (sends are the source of truth),
  /// in (src, dst, tag) order — the order that numbers ChannelIds.
  static std::vector<Channel> derive_channels(
      const std::vector<RankProgram>& programs);

  /// derive_channels(), then rewrite every send/recv op's tag to the
  /// ChannelId of its channel. Aborts when a receive names a (peer, tag)
  /// that no send declares. run() calls it; exposed for tests.
  static std::vector<Channel> number_channels(
      std::vector<RankProgram>& programs);

  /// Execute to completion; runs the engine.
  MotifResult run();

 private:
  void advance(int rank);
  void finish_rank(int rank);

  cluster::Cluster& cluster_;
  Transport& transport_;
  std::vector<RankProgram> programs_;
  std::vector<std::size_t> pc_;
  // Per-rank aggregates instead of shared accumulators: on a sharded
  // cluster advance(rank) always executes on rank's shard thread (its
  // sends, waits, and computes are anchored on engine_for(rank)), so
  // per-rank elements are single-writer. Merged into MotifResult after
  // the run. rank_done_ is uint8_t, not vector<bool> — bit-packed
  // elements would share bytes across threads.
  std::vector<std::uint64_t> rank_ops_;
  std::vector<std::uint8_t> rank_done_;
  std::vector<Time> rank_finish_;
  MotifResult result_;
};

}  // namespace rvma::motifs
