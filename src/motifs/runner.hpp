// Motif engine: compiles a communication motif into per-rank op programs
// and executes them over a Transport on the simulated cluster.
//
// This mirrors how SST's ember motifs work: each rank is a state machine
// issuing sends/receives/compute with real dependencies, so wavefront
// stalls, credit waits, and completion latencies show up in the makespan
// exactly as they would at scale.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
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
    kLoop,      ///< header: the next loop.body ops repeat loop.trips times
  };
  Kind kind = Kind::kCompute;
  int peer = -1;
  /// Builders name a send/recv op's channel by (peer, tag); MotifRunner
  /// rewrites the tag to the channel's ChannelId before the run. A kLoop
  /// header holds its block's length and trip count here instead.
  union {
    std::uint64_t tag = 0;
    ChannelId channel;
    struct {
      std::uint32_t body;
      std::uint32_t trips;
    } loop;
  };
  std::uint64_t bytes = 0;
  Time compute = 0;
};
static_assert(sizeof(Op) == 32, "Op is the unit of motif program memory");

/// One rank's program (ranks map 1:1 to cluster nodes). A block that
/// repeats is stored once, after a kLoop header, so a program's memory
/// follows the motif's shape, not its iteration counts. size() and
/// iteration see the executed sequence, every block expanded.
class RankProgram {
 public:
  /// A position in the executed sequence: the next stored op (pc), the
  /// bounds of the block being repeated and its passes left, counting
  /// the current one (0 outside a block). MotifRunner keeps one per
  /// rank; range-for walks a program with one.
  class Cursor {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Op;
    using difference_type = std::ptrdiff_t;
    using pointer = const Op*;
    using reference = const Op&;

    Cursor() = default;
    const Op& operator*() const { return ops_[pc_]; }
    const Op* operator->() const { return ops_ + pc_; }
    Cursor& operator++() {
      ++pc_;
      settle();
      return *this;
    }
    Cursor operator++(int) {
      Cursor old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Cursor& other) const {
      return pc_ == other.pc_ && trips_ == other.trips_;
    }
    bool done() const { return pc_ == size_; }

   private:
    friend class RankProgram;
    Cursor(const Op* ops, std::uint32_t size, std::uint32_t pc)
        : ops_(ops), size_(size), pc_(pc) {
      settle();
    }
    /// At the end of a pass, replay the block or leave it; at a header,
    /// enter its block. Stored blocks are non-empty and run at least
    /// once, and a body holds no header, so one step of each suffices.
    void settle() {
      if (trips_ != 0 && pc_ == end_ && --trips_ != 0) pc_ = begin_;
      if (pc_ != size_ && ops_[pc_].kind == Op::Kind::kLoop) {
        begin_ = pc_ + 1;
        end_ = begin_ + ops_[pc_].loop.body;
        trips_ = ops_[pc_].loop.trips;
        pc_ = begin_;
      }
    }

    const Op* ops_ = nullptr;
    std::uint32_t size_ = 0;  ///< stored ops
    std::uint32_t pc_ = 0;
    std::uint32_t begin_ = 0;
    std::uint32_t end_ = 0;
    std::uint32_t trips_ = 0;
  };

  /// Appends an op; inside an open block it joins the block's body.
  void push_back(const Op& op) {
    assert(op.kind != Op::Kind::kLoop && "open a block with begin_loop()");
    ops_.push_back(op);
    if (open_ == kNone) ++executed_;
  }

  /// Opens a block: the ops pushed until end_loop() run `trips` times.
  /// Blocks do not nest.
  void begin_loop(int trips) {
    assert(open_ == kNone && "loop blocks do not nest");
    open_ = ops_.size();
    Op header;
    header.kind = Op::Kind::kLoop;
    header.loop = {0, static_cast<std::uint32_t>(std::max(trips, 0))};
    ops_.push_back(header);
  }

  /// Closes the open block. A block that never runs (no trips, or no
  /// body) is dropped, so every stored op executes.
  void end_loop() {
    assert(open_ != kNone && "end_loop() without begin_loop()");
    Op& header = ops_[open_];
    header.loop.body = static_cast<std::uint32_t>(ops_.size() - open_ - 1);
    if (header.loop.body == 0 || header.loop.trips == 0) {
      ops_.resize(open_);
    } else {
      executed_ += std::uint64_t{header.loop.body} * header.loop.trips;
    }
    open_ = kNone;
  }

  /// Reserves room for `stored` ops, block headers included.
  void reserve(std::size_t stored) { ops_.reserve(stored); }

  /// Ops the rank executes.
  std::size_t size() const { return executed_; }
  /// Op slots allocated.
  std::size_t capacity() const { return ops_.capacity(); }
  /// The ops as stored, block headers included. Ops may be rewritten in
  /// place (MotifRunner numbers channels so), never added or removed.
  std::span<const Op> stored() const { return ops_; }
  std::span<Op> stored() { return ops_; }

  Cursor begin() const {
    assert(open_ == kNone && "a loop block is still open");
    return Cursor(ops_.data(), stored_size(), 0);
  }
  Cursor end() const {
    return Cursor(ops_.data(), stored_size(), stored_size());
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::uint32_t stored_size() const {
    return static_cast<std::uint32_t>(ops_.size());
  }

  std::vector<Op> ops_;
  std::uint64_t executed_ = 0;
  std::size_t open_ = kNone;  ///< header index of the open block
};

struct MotifResult {
  Time setup_done = 0;     ///< when transport set-up traffic went quiet
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

  /// derive_channels(), then rewrite each stored send/recv op's tag to
  /// the ChannelId of its channel. Aborts when a receive names a
  /// (peer, tag) that no send declares. run() calls it; exposed for tests.
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
  std::vector<RankProgram::Cursor> pc_;
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
