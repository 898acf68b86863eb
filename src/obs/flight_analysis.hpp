// Offline analysis over flight-recorder dumps (tools/rvma_trace).
//
// Takes a decoded FlightDump and reconstructs per-message lifecycle spans
// (post -> tx-queue -> inject -> deliver -> rx dispatch -> mailbox match),
// then renders them as:
//   * Chrome trace-event / Perfetto JSON ("X" complete events, one
//     process per shard and one thread track per node), loadable at
//     https://ui.perfetto.dev,
//   * a per-message critical-path breakdown (host vs wire vs rx vs
//     mailbox time) with p50/p99/max and exemplar message ids,
//   * a per-kind / per-shard record summary,
//   * JSONL, one object per span in content order (FlightDump::merged),
//     byte-identical for one simulation at any shard count.
//
// All of this runs offline over the dump; nothing here is linked into
// the simulation hot path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"

namespace rvma::obs {

/// One message's reconstructed lifecycle (all times simulated ps). An
/// instant is meaningful only when its `seen` bit is set — rings may wrap
/// past early spans, and t == 0 is a legitimate simulated time.
struct MessagePath {
  /// Which lifecycle instants the dump actually contained.
  enum Seen : unsigned {
    kSeenPost = 1u << 0,
    kSeenTxQueue = 1u << 1,
    kSeenInject = 1u << 2,
    kSeenDeliver = 1u << 3,
    kSeenRx = 1u << 4,
    kSeenMatch = 1u << 5,
  };

  std::uint64_t key = 0;       ///< Message::id
  std::int32_t src = -1;
  std::int32_t dst = -1;
  std::uint32_t src_shard = 0; ///< shard that recorded the tx-side spans
  std::uint32_t dst_shard = 0; ///< shard that recorded the rx-side spans
  std::int64_t bytes = 0;
  std::uint32_t packets = 0;   ///< injected packet count observed
  unsigned seen = 0;           ///< OR of Seen bits
  Time post_t = 0;
  Time tx_queue_t = 0;
  Time first_inject_t = 0;
  Time last_inject_t = 0;
  Time first_deliver_t = 0;
  Time last_deliver_t = 0;
  Time last_rx_t = 0;
  Time match_t = 0;

  bool has(Seen s) const { return (seen & s) != 0; }

  /// Segment durations (ps); 0 when either endpoint is unobserved.
  Time host_ps() const;   ///< post -> first injection
  Time wire_ps() const;   ///< first injection -> last delivery
  Time rx_ps() const;     ///< last delivery -> last rx dispatch
  Time match_ps() const;  ///< last rx dispatch -> mailbox match
  Time total_ps() const;  ///< post -> mailbox match
  bool complete() const { return has(kSeenPost) && has(kSeenMatch); }
};

/// Messages sorted by post time (ties: key). Incomplete paths (ring
/// wrapped past some instants) are retained with the missing times at 0.
std::vector<MessagePath> build_message_paths(const FlightDump& dump);

/// Percentile summary of one critical-path segment, with the message id
/// that realised each quantile (exemplars for drill-down).
struct SegmentStats {
  std::string name;
  std::uint64_t count = 0;
  Time p50 = 0, p99 = 0, max = 0;
  std::uint64_t p50_msg = 0, p99_msg = 0, max_msg = 0;
};

struct CritPathReport {
  std::uint64_t messages = 0;   ///< complete paths analysed
  std::uint64_t partial = 0;    ///< paths with missing instants (skipped)
  std::vector<SegmentStats> segments;  ///< host, wire, rx, match, total
};

CritPathReport build_critpath(const std::vector<MessagePath>& paths);

/// Render the report as a fixed-width text table.
std::string format_critpath(const CritPathReport& report);

/// Chrome trace-event JSON for the whole dump. One "process" per shard,
/// one "thread" track per node; spans are "X" complete events (ts/dur in
/// microseconds of simulated time), completions are instant events.
std::string perfetto_json(const FlightDump& dump);

/// Per-shard and per-kind record counts, dropped totals, time range.
std::string format_flight_summary(const FlightDump& dump);

/// One line per span in FlightDump::merged() order:
/// {"t":<ps>,"ev":"<kind name>","node":N,"key":K,"aux":A}, plus
/// "reason":"<Status name>" on drop lines. No shard id appears.
std::string flight_jsonl(const FlightDump& dump);

}  // namespace rvma::obs
