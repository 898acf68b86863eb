// Binary flight recorder: a fixed-capacity ring of POD span records.
//
// Every message moving through the simulator leaves a trail of lifecycle
// instants — post, tx-queue admission, fabric injection, delivery, rx
// dispatch, mailbox match, counted completion. The recorder captures
// those instants as 32-byte POD records into a preallocated ring: zero
// steady-state allocations, O(1) per record, and — critically — zero
// feedback into the simulation. Records carry explicit simulated times
// (never wall clock), the recorder never schedules events, and no
// simulation code branches on whether it is armed, so enabling it is
// bit-identity-preserving: table and metrics output are byte-identical
// recorder on vs off, the same discipline as jobs=1-vs-N (enforced by a
// run_bench.sh gate).
//
// Each Engine holds an optional `FlightRecorder*`, hot paths guard with
// the `RVMA_FREC` macro (one predictable branch when disarmed), and each
// shard of a sharded cluster owns its own recorder so record() is
// single-threaded per ring. It is the simulator's only tracing system.
//
// Binary dump format ("RVFR1", DESIGN §14): a fixed header, then one
// section per shard (shard id, dropped count, record count, records in
// chronological order). FlightDump::merged() orders all sections' records
// by content, (t, node, kind, key, aux), so one simulation merges to the
// same sequence at any shard count.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace rvma::obs {

/// Lifecycle instants recorded per message (see DESIGN §14 span model).
enum class SpanKind : std::uint32_t {
  kMsgPost = 1,         ///< host posts the message at the NIC; aux = bytes
  kTxQueue = 2,         ///< admission stalled: message enters the NIC
                        ///  tx queue; aux = queue depth at enqueue
  kTxInject = 3,        ///< packet handed to the injection link; aux = seq
  // 4 is retired (a removed fast path's injection instant); never reuse it,
  // so older RVFR1 dumps keep their meaning.
  kPktDeliver = 5,      ///< packet delivered at the destination NIC edge;
                        ///  aux = seq
  kRxDispatch = 6,      ///< rx pipeline done, packet dispatched to the
                        ///  protocol handler; aux = seq
  kMbMatch = 7,         ///< last packet of the message matched its
                        ///  mailbox; aux = mailbox vaddr
  kCompletion = 8,      ///< counted completion fired (key = buffer vaddr,
                        ///  not message id); aux = completion latency, ps
  kDrop = 9,            ///< target NIC refused a packet of the message
                        ///  (one per rvma.drops_* increment, and per
                        ///  refused get); aux = Status code of the reason
};

/// One 32-byte POD record. `key` is the message identity (`Message::id`,
/// i.e. (src_node << 40) | per-sender counter) for all kinds except
/// kCompletion, where it is the completed buffer's vaddr.
struct SpanRecord {
  Time t = 0;                 ///< simulated instant, ps
  std::uint64_t key = 0;      ///< message id (or vaddr for completions)
  std::int64_t aux = 0;       ///< kind-specific payload (see SpanKind)
  std::uint32_t kind = 0;     ///< SpanKind
  std::int32_t node = -1;     ///< node where the instant happened
};
static_assert(sizeof(SpanRecord) == 32, "SpanRecord must stay POD-packed");

/// Fixed-capacity single-writer ring of SpanRecords. One per engine
/// (shard); never shared across threads.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// O(1), no allocation: overwrite-oldest when full.
  void record(Time t, SpanKind kind, std::uint64_t key, std::int32_t node,
              std::int64_t aux) {
    SpanRecord& r = ring_[head_];
    r.t = t;
    r.key = key;
    r.aux = aux;
    r.kind = static_cast<std::uint32_t>(kind);
    r.node = node;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++dropped_;
    }
  }

  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const { return size_; }
  std::uint64_t dropped() const { return dropped_; }
  void clear();

  /// Records oldest-first (chronological: ring order == record order).
  std::vector<SpanRecord> snapshot() const;

  static constexpr std::size_t kDefaultCapacity = 1u << 18;

 private:
  std::vector<SpanRecord> ring_;
  std::size_t head_ = 0;      ///< next write slot
  std::size_t size_ = 0;      ///< live records (<= capacity)
  std::uint64_t dropped_ = 0; ///< overwritten-oldest count
};

/// One shard's section of a decoded dump.
struct FlightShard {
  std::uint32_t shard = 0;
  std::uint64_t dropped = 0;
  std::vector<SpanRecord> records;  ///< chronological within the shard
};

/// A decoded flight-recorder dump (all shards of one run).
struct FlightDump {
  std::vector<FlightShard> shards;
  std::uint64_t total_records() const;
  /// All records ordered by content, (t, node, kind, key, aux): no shard
  /// id or ring position enters the order, so a simulation merges to the
  /// same sequence at any --par-shards.
  std::vector<SpanRecord> merged() const;
};

/// Write a multi-shard dump ("RVFR1" format). Returns false on I/O error.
bool write_flight_file(
    const std::string& path,
    const std::vector<const FlightRecorder*>& shards,
    std::string* error = nullptr);

/// Read a dump written by write_flight_file. Returns false (and sets
/// *error) on missing file, bad magic, or truncated sections — including
/// a record count larger than the bytes left in the file.
bool read_flight_file(const std::string& path, FlightDump* out,
                      std::string* error = nullptr);

/// Human-readable name for a span kind ("post", "tx_inject", ...).
const char* span_kind_name(std::uint32_t kind);

}  // namespace rvma::obs
