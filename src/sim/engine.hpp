// Discrete-event simulation engine.
//
// The whole reproduction rests on this: switches, NICs, protocol state
// machines, and motifs all advance by scheduling callbacks at future
// simulated times. Event execution order is fully deterministic — ties in
// timestamp break by (rank, tie, seq), see below — so identical configs
// and seeds replay identically.
//
// Hot-path layout (see DESIGN.md "Hot path & allocation discipline"):
// the priority queue is a 4-ary heap of 32-byte POD entries {time, rank,
// tie, seq|slot}. The sift-down picks the earliest of a node's four
// children by time with selects rather than branches, and compares
// (rank, tie, seq) only when that earliest time is shared. The callbacks
// themselves live in page-stable slots threaded on an intrusive free
// list. Sift operations move only PODs, callbacks are invoked in place,
// and steady-state scheduling performs zero heap allocations.
//
// Tie-break model: equal-time events order by (rank, tie, seq).
//  - `rank` is a simulated instant the producer fixes for the event:
//    now() for plain callbacks and switch-to-switch hops, and the
//    packet's injection instant (Packet::injected_at) for its first-switch
//    arrival, delivery and NIC receive events. rank <= time always.
//  - `tie` is a content key: 0 for plain callbacks, a packet-identity key
//    (net::packet_tie — source node, per-node message counter, packet
//    index) for packet events. It makes equal-(time, rank) arbitration a
//    function of WHAT is contending, not of the order the contenders were
//    scheduled.
//  - `seq` (the per-engine allocation counter) breaks whatever remains:
//    same-producer callbacks run FIFO.
// The content key is what lets the sharded scheduler
// (sharded_engine.hpp) reproduce serial output byte for byte: a
// cross-shard packet enters the destination engine with a fresh (large)
// seq, but its (rank, tie) — both properties of the packet, not of the
// schedule — land it in exactly the heap position the serial run gave
// it. Events whose relative order still falls to seq are callback chains
// of a single producer, and those are scheduled in the same relative
// order in serial and sharded runs (the producers themselves execute in
// identical order, inductively).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/callback.hpp"

namespace rvma::obs {
class Sampler;
}

namespace rvma::sim {

class Engine {
 public:
  using Callback = sim::Callback;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Attach a metrics sampler (obs/sampler.hpp). The engine consults it
  /// before executing the first event at or past each period boundary —
  /// the engine is quiescent between events, so the boundary state is
  /// observed exactly, without scheduling any events of its own (event
  /// counts and tie-break order are untouched). Pass nullptr to detach.
  void set_sampler(obs::Sampler* sampler);
  obs::Sampler* sampler() const { return sampler_; }

  /// Attach a flight recorder (obs/flight_recorder.hpp): a per-engine
  /// ring of POD span records capturing each message's lifecycle
  /// instants. The recorder is purely passive — it never schedules
  /// events, and NO simulation code may branch on recording_enabled() —
  /// so arming it is bit-identity-preserving: tables and metrics are
  /// byte-identical on vs off.
  /// Pass nullptr to detach. Each shard of a sharded cluster attaches
  /// its own recorder, keeping record() single-threaded per ring.
  void set_flight_recorder(obs::FlightRecorder* rec) { frec_ = rec; }
  obs::FlightRecorder* flight_recorder() const { return frec_; }

  /// Hot paths guard with this (via RVMA_FREC) before evaluating any
  /// record arguments: a detached recorder costs one predictable branch.
  bool recording_enabled() const { return frec_ != nullptr; }

  /// Record a span instant at simulated time `t` (callers pass the
  /// instant the span describes, e.g. a packet's injection time).
  void frecord(Time t, obs::SpanKind kind, std::uint64_t key,
               std::int32_t node, std::int64_t aux) {
    frec_->record(t, kind, key, node, aux);
  }

  /// Sequence numbers handed out so far == events ever scheduled on this
  /// engine.
  std::uint64_t scheduled_events() const { return next_seq_; }

  /// Schedule `fn` to run at absolute time `t` (must be >= now()).
  /// Templated so the callable is constructed directly in its event slot —
  /// no intermediate Callback move of the capture bytes.
  template <typename F>
  void schedule_at(Time t, F&& fn) {
    schedule_at_ranked(t, now_, 0, std::forward<F>(fn));
  }

  /// Schedule `fn` to run `delay` after now().
  template <typename F>
  void schedule(Time delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at time `t` with an explicit tie-break rank (instead
  /// of the default now()) and content key (instead of the default 0):
  /// among equal-time events the engine executes lower (rank, tie, seq)
  /// first. Packet events pass the rank named in the tie-break model above
  /// and tie = net::packet_tie, making their arbitration order
  /// schedule-independent.
  template <typename F>
  void schedule_at_ranked(Time t, Time rank, std::uint64_t tie, F&& fn) {
    assert(t >= now_ && "cannot schedule events in the past");
    assert(rank <= t && "tie-break rank cannot postdate the event");
    const std::uint64_t seq = next_seq_++;
    assert(seq < (std::uint64_t{1} << (64 - kSlotBits)) &&
           "sequence number overflows the packed heap key");
    const std::uint32_t idx = acquire_slot();
    assert(idx <= kSlotMask && "pending-event count overflows the slot field");
    slot(idx).fn.emplace(std::forward<F>(fn));
    heap_push(HeapEntry{t, rank, tie, (seq << kSlotBits) | idx});
  }

  /// Run until the event queue drains or stop() is called.
  /// Returns the time of the last executed event.
  Time run();

  /// Run until simulated time reaches `deadline`: events at times
  /// <= `deadline` (inclusive) are executed, later events stay queued.
  /// Contract: unless stop() fired, now() == max(now, deadline) on return
  /// — the clock advances to the deadline even with pending future events,
  /// so subsequent relative schedule(delay, ...) calls are anchored at the
  /// deadline, never before it.
  ///
  /// If stop() fires mid-window, the clock is left at the last executed
  /// event's time — NOT advanced to the deadline — and the stop is
  /// consumed (the next run/run_until clears it). The sharded windowing
  /// loop (ShardedEngine) relies on both halves: an un-stopped window
  /// always lands every shard's clock exactly on the window edge, while a
  /// stop leaves now() on a real event so the caller can inspect where
  /// execution halted. Covered by Engine.RunUntilStoppedMidWindow.
  Time run_until(Time deadline);

  /// Timestamp of the earliest pending event, or kTimeInfinity when the
  /// queue is empty. The sharded scheduler's window computation reads this
  /// across engines between windows (quiescent, single-threaded).
  Time next_time() const {
    return heap_.empty() ? kTimeInfinity : heap_.front().time;
  }

  /// Time of the last executed event (0 before the first).
  Time last_event_time() const { return last_event_; }

  /// Set an idle engine's clock to `t`, which may lie before now() but
  /// not before the last executed event. A windowed run leaves each shard
  /// clock on a window edge past its last event; the sharded scheduler
  /// sets every shard back to the instant the run went quiet, so relative
  /// schedule(delay, ...) calls made before the next run anchor where a
  /// serial engine's would.
  void set_clock(Time t) {
    assert(heap_.empty() && "set_clock on an engine with pending events");
    assert(t >= last_event_ && "set_clock before the last executed event");
    now_ = t;
  }

  /// Execute at most one pending event. Returns false if queue was empty.
  bool step();

  /// Request run() to return after the current event completes.
  void stop() { stopped_ = true; }

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed_events() const { return executed_; }

 private:
  /// Priority-queue entry: 32 bytes, so a 4-ary node's four children fill
  /// 128 bytes: two cache lines when the group starts on a line boundary,
  /// three otherwise (the heap's buffer carries no alignment beyond the
  /// allocator's 16 bytes). `rank` is the event's production
  /// instant and `tie` its content key — see the tie-break model in the
  /// header comment. `key` packs the FIFO tie-break sequence above the
  /// callback slot index: seq is unique per entry, so comparing keys
  /// orders equal (time, rank, tie) tuples exactly like comparing
  /// sequence numbers.
  struct HeapEntry {
    Time time;
    Time rank;
    std::uint64_t tie;  ///< content key; 0 for plain callbacks
    std::uint64_t key;  ///< (seq << kSlotBits) | slot

    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(key & kSlotMask);
    }
  };

  /// 24 bits of slot index bound concurrent pending events at ~16.7M;
  /// 40 bits of sequence bound events ever scheduled per engine at ~1.1e12.
  /// Both are asserted where handed out.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint32_t kSlotsPerPage = 256;

  /// Callback storage cell; `next_free` threads the intrusive free list
  /// through slots not currently holding a queued event.
  struct Slot {
    Callback fn;
    std::uint32_t next_free = kNoSlot;
  };
  struct Page {
    Slot slots[kSlotsPerPage];
  };

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.rank != b.rank) return a.rank < b.rank;
    if (a.tie != b.tie) return a.tie < b.tie;
    return a.key < b.key;
  }

  Slot& slot(std::uint32_t idx) {
    return pages_[idx / kSlotsPerPage]->slots[idx % kSlotsPerPage];
  }

  // Schedule-side helpers live in the header so they inline into the
  // templated schedule paths.
  std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t idx = free_head_;
      free_head_ = slot(idx).next_free;
      return idx;
    }
    if (slots_used_ == pages_.size() * kSlotsPerPage) {
      pages_.push_back(std::make_unique<Page>());
    }
    return slots_used_++;
  }

  void release_slot(std::uint32_t idx) {
    slot(idx).next_free = free_head_;
    free_head_ = idx;
  }

  void heap_push(HeapEntry e) {
    heap_.push_back(e);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  HeapEntry heap_pop();
  static std::size_t earliest_of_four(const HeapEntry* c);

  // 4-ary min-heap ordered by (time, rank, tie, seq): shallower than
  // binary, and a node's four children span two or three cache lines.
  std::vector<HeapEntry> heap_;
  // Slot pages are allocated once and never move, so callbacks can be
  // invoked in place while the pool grows underneath them.
  std::vector<std::unique_ptr<Page>> pages_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint32_t slots_used_ = 0;  ///< high-water mark across all pages

  Time now_ = 0;
  Time last_event_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  obs::Sampler* sampler_ = nullptr;
  obs::FlightRecorder* frec_ = nullptr;
  /// Next sampling boundary; kTimeInfinity keeps the step() hook to one
  /// always-false comparison when no sampler is armed.
  Time sampler_due_ = kTimeInfinity;
};

}  // namespace rvma::sim

/// Flight-recorder guard: expands to a branch on
/// Engine::recording_enabled() *around* the record call, so argument
/// expressions are only evaluated when a recorder is attached. The
/// recorder must stay write-only with respect to the simulation — never
/// branch simulation behavior on recording_enabled().
#define RVMA_FREC(eng, ...)                                  \
  do {                                                       \
    if ((eng).recording_enabled()) (eng).frecord(__VA_ARGS__); \
  } while (0)
