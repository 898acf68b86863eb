#include "cluster/cluster.hpp"
#include "motifs/runner.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <utility>

namespace rvma::motifs {

MotifRunner::MotifRunner(cluster::Cluster& cluster, Transport& transport,
                         std::vector<RankProgram> programs)
    : cluster_(cluster),
      transport_(transport),
      programs_(std::move(programs)) {
  assert(static_cast<int>(programs_.size()) <= cluster.num_nodes() &&
         "more ranks than nodes");
  pc_.reserve(programs_.size());
  for (const RankProgram& program : programs_) pc_.push_back(program.begin());
}

namespace {

/// Channels in (src, dst, tag) order, plus each source rank's first
/// index: rank r's channels are [first[r], first[r + 1]). The per-rank
/// slices are small and sorted, so a lookup is a short binary search.
struct ChannelTable {
  std::vector<Channel> channels;
  std::vector<ChannelId> first;

  /// Id of (src -> dst, tag), or channels.size() when no send declares it.
  ChannelId find(int src, int dst, std::uint64_t tag) const {
    const auto none = static_cast<ChannelId>(channels.size());
    if (src < 0 || src + 1 >= static_cast<int>(first.size())) return none;
    const auto begin = channels.begin() + first[src];
    const auto end = channels.begin() + first[src + 1];
    const auto it = std::lower_bound(
        begin, end, std::pair{dst, tag},
        [](const Channel& ch, const std::pair<int, std::uint64_t>& key) {
          return std::pair{ch.dst, ch.tag} < key;
        });
    if (it == end || it->dst != dst || it->tag != tag) return none;
    return static_cast<ChannelId>(it - channels.begin());
  }
};

ChannelTable build_table(const std::vector<RankProgram>& programs) {
  ChannelTable table;
  table.first.reserve(programs.size() + 1);
  std::vector<Channel> sends;
  for (int rank = 0; rank < static_cast<int>(programs.size()); ++rank) {
    const std::size_t rank_first = table.channels.size();
    table.first.push_back(static_cast<ChannelId>(rank_first));
    // A stored send runs once per trip of its block, so it counts that
    // many messages; the program is never expanded.
    sends.clear();
    const std::span<const Op> ops = programs[rank].stored();
    std::size_t block_end = 0;
    int trips = 1;
    for (std::size_t pc = 0; pc < ops.size(); ++pc) {
      const Op& op = ops[pc];
      if (pc == block_end) trips = 1;
      if (op.kind == Op::Kind::kLoop) {
        block_end = pc + 1 + op.loop.body;
        trips = static_cast<int>(op.loop.trips);
      } else if (op.kind == Op::Kind::kSend) {
        sends.push_back({rank, op.peer, op.tag, op.bytes, trips});
      }
    }
    std::sort(sends.begin(), sends.end(),
              [](const Channel& a, const Channel& b) {
                return std::pair{a.dst, a.tag} < std::pair{b.dst, b.tag};
              });
    for (const Channel& send : sends) {
      if (table.channels.size() > rank_first) {
        Channel& last = table.channels.back();
        if (last.dst == send.dst && last.tag == send.tag) {
          assert(last.bytes == send.bytes &&
                 "all messages on a channel must be the same size");
          last.count += send.count;
          continue;
        }
      }
      table.channels.push_back(send);
    }
  }
  table.first.push_back(static_cast<ChannelId>(table.channels.size()));
  return table;
}

}  // namespace

std::vector<Channel> MotifRunner::derive_channels(
    const std::vector<RankProgram>& programs) {
  return build_table(programs).channels;
}

std::vector<Channel> MotifRunner::number_channels(
    std::vector<RankProgram>& programs) {
  ChannelTable table = build_table(programs);
  const auto none = static_cast<ChannelId>(table.channels.size());
  for (int rank = 0; rank < static_cast<int>(programs.size()); ++rank) {
    for (Op& op : programs[rank].stored()) {
      if (op.kind == Op::Kind::kCompute || op.kind == Op::Kind::kLoop) {
        continue;
      }
      const ChannelId id = op.kind == Op::Kind::kSend
                               ? table.find(rank, op.peer, op.tag)
                               : table.find(op.peer, rank, op.tag);
      if (id == none) {
        std::fprintf(stderr,
                     "motif: rank %d receives from rank %d on tag %llu, "
                     "which no send declares\n",
                     rank, op.peer, static_cast<unsigned long long>(op.tag));
        std::abort();
      }
      op.channel = id;
    }
  }
  return std::move(table.channels);
}

MotifResult MotifRunner::run() {
  const std::size_t ranks = programs_.size();
  rank_ops_.assign(ranks, 0);
  rank_done_.assign(ranks, 0);
  rank_finish_.assign(ranks, 0);

  // Set-up traffic runs like any other (windowed when sharded). When it
  // goes quiet every channel is usable, and every rank starts at that
  // instant: the run leaves each shard clock there, so advance() anchors
  // its schedules where a serial run's would.
  transport_.setup(number_channels(programs_));
  result_.setup_done = cluster_.run();
  for (int rank = 0; rank < static_cast<int>(ranks); ++rank) advance(rank);
  cluster_.run();

  for (std::size_t rank = 0; rank < ranks; ++rank) {
    assert(rank_done_[rank] && "motif deadlocked (rank still blocked)");
    result_.ops_executed += rank_ops_[rank];
    result_.makespan = std::max(result_.makespan, rank_finish_[rank]);
  }
  result_.engine_events = cluster_.events_executed();
  result_.transport = transport_.stats();
  return result_;
}

void MotifRunner::advance(int rank) {
  RankProgram::Cursor& pc = pc_[rank];
  while (!pc.done()) {
    const Op& op = *pc;
    ++pc;
    ++rank_ops_[static_cast<std::size_t>(rank)];
    switch (op.kind) {
      case Op::Kind::kRecvPost:
        transport_.recv_post(op.channel);
        continue;  // non-blocking: keep executing

      case Op::Kind::kSend:
        transport_.send(op.channel, [this, rank] { advance(rank); });
        return;

      case Op::Kind::kRecvWait:
        transport_.recv_wait(op.channel, [this, rank] { advance(rank); });
        return;

      case Op::Kind::kCompute:
        cluster_.engine_for(rank).schedule(op.compute,
                                           [this, rank] { advance(rank); });
        return;

      case Op::Kind::kLoop:
        assert(false && "the cursor steps over block headers");
        continue;
    }
  }
  finish_rank(rank);
}

void MotifRunner::finish_rank(int rank) {
  rank_done_[static_cast<std::size_t>(rank)] = 1;
  rank_finish_[static_cast<std::size_t>(rank)] =
      cluster_.engine_for(rank).now();
}

}  // namespace rvma::motifs
