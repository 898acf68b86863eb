#include "motifs/collectives.hpp"

namespace rvma::motifs {

std::vector<RankProgram> build_barrier(const BarrierConfig& config) {
  const int n = config.ranks;
  int rounds = 0;
  while ((1 << rounds) < n) ++rounds;

  std::vector<RankProgram> programs(n);
  for (int r = 0; r < n; ++r) {
    RankProgram& prog = programs[r];
    // One block: a post, a send and a wait per round, per iteration.
    prog.reserve(1 + 3 * static_cast<std::size_t>(rounds));
    prog.begin_loop(config.iterations);
    for (int k = 0; k < rounds; ++k) {
      const int to = (r + (1 << k)) % n;
      const int from = (r - (1 << k) % n + n) % n;
      // Tag by round only: each (src, dst, round) channel carries one
      // message per iteration.
      const std::uint64_t tag = static_cast<std::uint64_t>(k);
      prog.push_back({Op::Kind::kRecvPost, from, tag, config.bytes, 0});
      prog.push_back({Op::Kind::kSend, to, tag, config.bytes, 0});
      prog.push_back({Op::Kind::kRecvWait, from, tag, config.bytes, 0});
    }
    prog.end_loop();
  }
  return programs;
}

std::vector<RankProgram> build_allreduce(const AllReduceConfig& config) {
  const int n = config.ranks;
  const std::uint64_t chunk =
      std::max<std::uint64_t>(1, config.bytes / static_cast<std::uint64_t>(n));
  const Time reduce_time = config.reduce_per_byte * chunk;
  // Reduce-scatter then allgather: 2(n-1) ring steps per iteration, each a
  // post, a send and a wait, plus a reduce in the first n-1.
  const int steps = 2 * (n - 1);
  const std::size_t block =
      1 + 3 * static_cast<std::size_t>(steps) +
      (reduce_time > 0 ? static_cast<std::size_t>(n - 1) : 0);

  std::vector<RankProgram> programs(n);
  for (int r = 0; r < n; ++r) {
    RankProgram& prog = programs[r];
    const int next = (r + 1) % n;
    const int prev = (r - 1 + n) % n;
    prog.reserve(block);
    prog.begin_loop(config.iterations);
    for (int step = 0; step < steps; ++step) {
      const std::uint64_t tag = static_cast<std::uint64_t>(step);
      prog.push_back({Op::Kind::kRecvPost, prev, tag, chunk, 0});
      prog.push_back({Op::Kind::kSend, next, tag, chunk, 0});
      prog.push_back({Op::Kind::kRecvWait, prev, tag, chunk, 0});
      if (step < n - 1 && reduce_time > 0) {
        prog.push_back({Op::Kind::kCompute, -1, 0, 0, reduce_time});
      }
    }
    prog.end_loop();
  }
  return programs;
}

std::vector<RankProgram> build_broadcast(const BroadcastConfig& config) {
  const int n = config.ranks;
  std::vector<int> children;
  std::vector<RankProgram> programs(n);
  for (int r = 0; r < n; ++r) {
    RankProgram& prog = programs[r];
    // Rank relative to root; binomial tree on the relative id.
    const int rel = (r - config.root + n) % n;
    // Children: rel + 2^k for k below rel's lowest set bit.
    children.clear();
    const int low = rel == 0 ? (1 << 30) : rel & -rel;
    for (int bit = 1; bit < low && rel + bit < n; bit <<= 1) {
      children.push_back((rel + bit + config.root) % n);
    }
    // One block per iteration: receive from the parent, then send to
    // each child.
    prog.reserve(1 + (rel != 0 ? 2 : 0) + children.size());
    prog.begin_loop(config.iterations);
    if (rel != 0) {
      // The parent clears rel's lowest set bit.
      const int parent_rel = rel & (rel - 1);
      const int parent = (parent_rel + config.root) % n;
      prog.push_back({Op::Kind::kRecvPost, parent, 0, config.bytes, 0});
      prog.push_back({Op::Kind::kRecvWait, parent, 0, config.bytes, 0});
    }
    for (const int child : children) {
      prog.push_back({Op::Kind::kSend, child, 0, config.bytes, 0});
    }
    prog.end_loop();
  }
  return programs;
}

}  // namespace rvma::motifs
