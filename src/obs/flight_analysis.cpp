#include "obs/flight_analysis.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>

#include "common/status.hpp"

namespace rvma::obs {
namespace {

void appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, static_cast<std::size_t>(n));
}

/// ts/dur in microseconds of simulated time; 6 decimals keeps exact ps.
void append_ts(std::string* out, Time ps) {
  appendf(out, "%.6f", static_cast<double>(ps) / 1e6);
}

struct TaggedRecord {
  SpanRecord rec;
  std::uint32_t shard = 0;
};

/// All records merged by (t, shard, index) with their shard retained.
std::vector<TaggedRecord> tagged_merge(const FlightDump& dump) {
  std::vector<TaggedRecord> all;
  all.reserve(dump.total_records());
  for (const FlightShard& s : dump.shards) {
    for (const SpanRecord& r : s.records) all.push_back({r, s.shard});
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TaggedRecord& a, const TaggedRecord& b) {
                     if (a.rec.t != b.rec.t) return a.rec.t < b.rec.t;
                     return a.shard < b.shard;
                   });
  return all;
}

}  // namespace

Time MessagePath::host_ps() const {
  return has(kSeenPost) && has(kSeenInject) ? first_inject_t - post_t : 0;
}
Time MessagePath::wire_ps() const {
  return has(kSeenInject) && has(kSeenDeliver)
             ? last_deliver_t - first_inject_t
             : 0;
}
Time MessagePath::rx_ps() const {
  return has(kSeenDeliver) && has(kSeenRx) ? last_rx_t - last_deliver_t : 0;
}
Time MessagePath::match_ps() const {
  return has(kSeenRx) && has(kSeenMatch) ? match_t - last_rx_t : 0;
}
Time MessagePath::total_ps() const {
  return complete() ? match_t - post_t : 0;
}

std::vector<MessagePath> build_message_paths(const FlightDump& dump) {
  std::unordered_map<std::uint64_t, MessagePath> by_key;
  for (const TaggedRecord& tr : tagged_merge(dump)) {
    const SpanRecord& r = tr.rec;
    const auto kind = static_cast<SpanKind>(r.kind);
    if (kind == SpanKind::kCompletion) continue;  // keyed by vaddr, not msg
    MessagePath& p = by_key[r.key];
    p.key = r.key;
    switch (kind) {
      case SpanKind::kMsgPost:
        p.post_t = r.t;
        p.src = r.node;
        p.src_shard = tr.shard;
        p.bytes = r.aux;
        p.seen |= MessagePath::kSeenPost;
        break;
      case SpanKind::kTxQueue:
        if (!p.has(MessagePath::kSeenTxQueue)) p.tx_queue_t = r.t;
        p.seen |= MessagePath::kSeenTxQueue;
        break;
      case SpanKind::kTxInject:
        if (!p.has(MessagePath::kSeenInject)) p.first_inject_t = r.t;
        p.last_inject_t = r.t;
        p.seen |= MessagePath::kSeenInject;
        ++p.packets;
        break;
      case SpanKind::kPktDeliver:
        if (!p.has(MessagePath::kSeenDeliver)) p.first_deliver_t = r.t;
        p.last_deliver_t = r.t;
        p.dst = r.node;
        p.dst_shard = tr.shard;
        p.seen |= MessagePath::kSeenDeliver;
        break;
      case SpanKind::kRxDispatch:
        p.last_rx_t = r.t;
        p.dst = r.node;
        p.dst_shard = tr.shard;
        p.seen |= MessagePath::kSeenRx;
        break;
      case SpanKind::kMbMatch:
        p.match_t = r.t;
        p.dst = r.node;
        p.dst_shard = tr.shard;
        p.seen |= MessagePath::kSeenMatch;
        break;
      case SpanKind::kCompletion:
      case SpanKind::kDrop:
        break;
    }
  }
  std::vector<MessagePath> out;
  out.reserve(by_key.size());
  for (auto& [key, path] : by_key) out.push_back(path);
  std::sort(out.begin(), out.end(), [](const MessagePath& a, const MessagePath& b) {
    if (a.post_t != b.post_t) return a.post_t < b.post_t;
    return a.key < b.key;
  });
  return out;
}

CritPathReport build_critpath(const std::vector<MessagePath>& paths) {
  struct Sample {
    Time v;
    std::uint64_t msg;
  };
  struct Segment {
    const char* name;
    Time (MessagePath::*value)() const;
    std::vector<Sample> samples;
  };
  Segment segments[] = {
      {"host", &MessagePath::host_ps, {}},
      {"wire", &MessagePath::wire_ps, {}},
      {"rx", &MessagePath::rx_ps, {}},
      {"match", &MessagePath::match_ps, {}},
      {"total", &MessagePath::total_ps, {}},
  };
  CritPathReport report;
  for (const MessagePath& p : paths) {
    if (!p.complete()) {
      ++report.partial;
      continue;
    }
    ++report.messages;
    for (Segment& seg : segments) {
      seg.samples.push_back({(p.*seg.value)(), p.key});
    }
  }
  for (Segment& seg : segments) {
    SegmentStats stats;
    stats.name = seg.name;
    stats.count = seg.samples.size();
    if (!seg.samples.empty()) {
      std::sort(seg.samples.begin(), seg.samples.end(),
                [](const Sample& a, const Sample& b) {
                  if (a.v != b.v) return a.v < b.v;
                  return a.msg < b.msg;
                });
      const std::size_t n = seg.samples.size();
      const Sample& p50 = seg.samples[(n - 1) * 50 / 100];
      const Sample& p99 = seg.samples[(n - 1) * 99 / 100];
      const Sample& max = seg.samples[n - 1];
      stats.p50 = p50.v;
      stats.p50_msg = p50.msg;
      stats.p99 = p99.v;
      stats.p99_msg = p99.msg;
      stats.max = max.v;
      stats.max_msg = max.msg;
    }
    report.segments.push_back(stats);
  }
  return report;
}

std::string format_critpath(const CritPathReport& report) {
  std::string out;
  appendf(&out,
          "critical path over %" PRIu64 " messages (%" PRIu64
          " partial paths skipped)\n",
          report.messages, report.partial);
  appendf(&out, "%-8s %10s %12s %12s %12s  %-18s %-18s\n", "segment", "count",
          "p50", "p99", "max", "p99 msg", "max msg");
  for (const SegmentStats& s : report.segments) {
    appendf(&out,
            "%-8s %10" PRIu64 " %9.1f ns %9.1f ns %9.1f ns  0x%-16" PRIx64
            " 0x%-16" PRIx64 "\n",
            s.name.c_str(), s.count, static_cast<double>(s.p50) / 1e3,
            static_cast<double>(s.p99) / 1e3, static_cast<double>(s.max) / 1e3,
            s.p99_msg, s.max_msg);
  }
  return out;
}

std::string perfetto_json(const FlightDump& dump) {
  const std::vector<TaggedRecord> merged = tagged_merge(dump);
  const std::vector<MessagePath> paths = build_message_paths(dump);

  std::string out;
  out.append("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  auto sep = [&out, &first] {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('\n');
  };

  // Track metadata: one "process" per shard, one "thread" per node.
  std::set<std::uint32_t> shards;
  std::set<std::pair<std::uint32_t, std::int32_t>> tracks;
  for (const TaggedRecord& tr : merged) {
    shards.insert(tr.shard);
    if (tr.rec.node >= 0) tracks.insert({tr.shard, tr.rec.node});
  }
  for (std::uint32_t s : shards) {
    sep();
    appendf(&out,
            "{\"ph\":\"M\",\"pid\":%u,\"name\":\"process_name\","
            "\"args\":{\"name\":\"shard %u\"}}",
            s, s);
  }
  for (const auto& [shard, node] : tracks) {
    sep();
    appendf(&out,
            "{\"ph\":\"M\",\"pid\":%u,\"tid\":%d,\"name\":\"thread_name\","
            "\"args\":{\"name\":\"node %d\"}}",
            shard, node, node);
  }

  // Host-side tx span per message: post -> first injection.
  for (const MessagePath& p : paths) {
    if (!p.has(MessagePath::kSeenPost) || !p.has(MessagePath::kSeenInject))
      continue;
    sep();
    appendf(&out,
            "{\"ph\":\"X\",\"pid\":%u,\"tid\":%d,\"name\":\"tx\",\"ts\":",
            p.src_shard, p.src);
    append_ts(&out, p.post_t);
    out.append(",\"dur\":");
    append_ts(&out, p.first_inject_t - p.post_t);
    appendf(&out, ",\"args\":{\"msg\":\"0x%" PRIx64 "\",\"bytes\":%" PRId64 "}}",
            p.key, p.bytes);
  }

  // Per-packet wire and rx spans, paired by (msg, seq) in merged order.
  std::map<std::pair<std::uint64_t, std::int64_t>, Time> inject_at;
  std::map<std::pair<std::uint64_t, std::int64_t>, Time> deliver_at;
  for (const TaggedRecord& tr : merged) {
    const SpanRecord& r = tr.rec;
    const auto kind = static_cast<SpanKind>(r.kind);
    const std::pair<std::uint64_t, std::int64_t> id{r.key, r.aux};
    switch (kind) {
      case SpanKind::kTxInject:
        inject_at[id] = r.t;
        break;
      case SpanKind::kPktDeliver: {
        const auto it = inject_at.find(id);
        if (it != inject_at.end()) {
          sep();
          appendf(&out,
                  "{\"ph\":\"X\",\"pid\":%u,\"tid\":%d,\"name\":\"wire\",\"ts\":",
                  tr.shard, r.node);
          append_ts(&out, it->second);
          out.append(",\"dur\":");
          append_ts(&out, r.t - it->second);
          appendf(&out, ",\"args\":{\"msg\":\"0x%" PRIx64 "\",\"seq\":%" PRId64
                        "}}",
                  r.key, r.aux);
        }
        deliver_at[id] = r.t;
        break;
      }
      case SpanKind::kRxDispatch: {
        const auto it = deliver_at.find(id);
        if (it != deliver_at.end()) {
          sep();
          appendf(&out,
                  "{\"ph\":\"X\",\"pid\":%u,\"tid\":%d,\"name\":\"rx\",\"ts\":",
                  tr.shard, r.node);
          append_ts(&out, it->second);
          out.append(",\"dur\":");
          append_ts(&out, r.t - it->second);
          appendf(&out, ",\"args\":{\"msg\":\"0x%" PRIx64 "\",\"seq\":%" PRId64
                        "}}",
                  r.key, r.aux);
        }
        break;
      }
      default:
        break;
    }
  }

  // Mailbox-match spans (last rx dispatch -> match) and completions.
  for (const MessagePath& p : paths) {
    if (!p.has(MessagePath::kSeenRx) || !p.has(MessagePath::kSeenMatch))
      continue;
    sep();
    appendf(&out,
            "{\"ph\":\"X\",\"pid\":%u,\"tid\":%d,\"name\":\"match\",\"ts\":",
            p.dst_shard, p.dst);
    append_ts(&out, p.last_rx_t);
    out.append(",\"dur\":");
    append_ts(&out, p.match_t - p.last_rx_t);
    appendf(&out, ",\"args\":{\"msg\":\"0x%" PRIx64 "\"}}", p.key);
  }
  for (const TaggedRecord& tr : merged) {
    if (static_cast<SpanKind>(tr.rec.kind) != SpanKind::kCompletion) continue;
    sep();
    appendf(&out,
            "{\"ph\":\"i\",\"s\":\"t\",\"pid\":%u,\"tid\":%d,"
            "\"name\":\"completion\",\"ts\":",
            tr.shard, tr.rec.node);
    append_ts(&out, tr.rec.t);
    appendf(&out, ",\"args\":{\"vaddr\":\"0x%" PRIx64 "\",\"lat_ns\":%.1f}}",
            tr.rec.key, static_cast<double>(tr.rec.aux) / 1e3);
  }

  out.append("\n]}\n");
  return out;
}

std::string format_flight_summary(const FlightDump& dump) {
  std::string out;
  appendf(&out, "flight dump: %zu shard(s), %" PRIu64 " record(s)\n",
          dump.shards.size(), dump.total_records());
  for (const FlightShard& s : dump.shards) {
    Time lo = 0;
    Time hi = 0;
    if (!s.records.empty()) {
      lo = s.records.front().t;
      hi = s.records.back().t;
    }
    appendf(&out,
            "  shard %u: %zu record(s), %" PRIu64
            " dropped, t = [%.3f us, %.3f us]\n",
            s.shard, s.records.size(), s.dropped,
            static_cast<double>(lo) / 1e6, static_cast<double>(hi) / 1e6);
  }
  std::map<std::uint32_t, std::uint64_t> by_kind;
  for (const FlightShard& s : dump.shards) {
    for (const SpanRecord& r : s.records) ++by_kind[r.kind];
  }
  for (const auto& [kind, count] : by_kind) {
    appendf(&out, "  %-14s %12" PRIu64 "\n", span_kind_name(kind), count);
  }
  return out;
}

std::string flight_jsonl(const FlightDump& dump) {
  std::string out;
  for (const SpanRecord& r : dump.merged()) {
    appendf(&out,
            "{\"t\":%" PRIu64 ",\"ev\":\"%s\",\"node\":%" PRId32
            ",\"key\":%" PRIu64 ",\"aux\":%" PRId64,
            r.t, span_kind_name(r.kind), r.node, r.key, r.aux);
    if (static_cast<SpanKind>(r.kind) == SpanKind::kDrop) {
      const std::string_view reason = to_string(static_cast<Status>(r.aux));
      appendf(&out, ",\"reason\":\"%.*s\"", static_cast<int>(reason.size()),
              reason.data());
    }
    out.append("}\n");
  }
  return out;
}

}  // namespace rvma::obs
