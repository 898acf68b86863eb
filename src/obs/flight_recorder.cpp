#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cstring>
#include <tuple>

namespace rvma::obs {
namespace {

// "RVFR1" dump layout (all fields little-endian host order, fixed width):
//   char     magic[8]   = "RVFR1\0\0\0"
//   u32      version    = 1
//   u32      shard_count
// then per shard:
//   u32      shard_id
//   u32      reserved   = 0
//   u64      dropped
//   u64      record_count
//   SpanRecord[record_count]   (32 bytes each, chronological)
constexpr char kMagic[8] = {'R', 'V', 'F', 'R', '1', '\0', '\0', '\0'};
constexpr std::uint32_t kVersion = 1;

bool write_all(std::FILE* f, const void* p, std::size_t n) {
  return std::fwrite(p, 1, n, f) == n;
}

bool read_all(std::FILE* f, void* p, std::size_t n) {
  return std::fread(p, 1, n, f) == n;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::clear() {
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
}

std::vector<SpanRecord> FlightRecorder::snapshot() const {
  std::vector<SpanRecord> out;
  out.reserve(size_);
  // Oldest record sits at head_ once the ring has wrapped, else at 0.
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t FlightDump::total_records() const {
  std::uint64_t n = 0;
  for (const FlightShard& s : shards) n += s.records.size();
  return n;
}

std::vector<SpanRecord> FlightDump::merged() const {
  std::vector<SpanRecord> out;
  out.reserve(total_records());
  for (const FlightShard& s : shards) {
    out.insert(out.end(), s.records.begin(), s.records.end());
  }
  // Records equal in all five fields are identical bytes, so this total
  // order needs no tie-break by shard or index.
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return std::tie(a.t, a.node, a.kind, a.key, a.aux) <
                     std::tie(b.t, b.node, b.kind, b.key, b.aux);
            });
  return out;
}

bool write_flight_file(const std::string& path,
                       const std::vector<const FlightRecorder*>& shards,
                       std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "flight recorder: cannot open " + path;
    return false;
  }
  bool ok = write_all(f, kMagic, sizeof(kMagic));
  const std::uint32_t version = kVersion;
  const std::uint32_t count = static_cast<std::uint32_t>(shards.size());
  ok = ok && write_all(f, &version, sizeof(version));
  ok = ok && write_all(f, &count, sizeof(count));
  for (std::uint32_t k = 0; ok && k < count; ++k) {
    const FlightRecorder& rec = *shards[k];
    const std::uint32_t shard_id = k;
    const std::uint32_t reserved = 0;
    const std::uint64_t dropped = rec.dropped();
    const std::vector<SpanRecord> records = rec.snapshot();
    const std::uint64_t n = records.size();
    ok = ok && write_all(f, &shard_id, sizeof(shard_id));
    ok = ok && write_all(f, &reserved, sizeof(reserved));
    ok = ok && write_all(f, &dropped, sizeof(dropped));
    ok = ok && write_all(f, &n, sizeof(n));
    if (ok && n > 0) {
      ok = write_all(f, records.data(), records.size() * sizeof(SpanRecord));
    }
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok && error != nullptr) *error = "flight recorder: write failed: " + path;
  return ok;
}

bool read_flight_file(const std::string& path, FlightDump* out,
                      std::string* error) {
  out->shards.clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "flight recorder: cannot read " + path;
    return false;
  }
  char magic[8] = {};
  std::uint32_t version = 0;
  std::uint32_t count = 0;
  // Bounds every section's record count before anything is allocated:
  // a corrupt count must fail as a bad dump, not as a huge allocation.
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  bool ok = file_size >= 0 && read_all(f, magic, sizeof(magic)) &&
            std::memcmp(magic, kMagic, sizeof(kMagic)) == 0 &&
            read_all(f, &version, sizeof(version)) && version == kVersion &&
            read_all(f, &count, sizeof(count));
  for (std::uint32_t k = 0; ok && k < count; ++k) {
    FlightShard shard;
    std::uint32_t reserved = 0;
    std::uint64_t n = 0;
    ok = read_all(f, &shard.shard, sizeof(shard.shard)) &&
         read_all(f, &reserved, sizeof(reserved)) &&
         read_all(f, &shard.dropped, sizeof(shard.dropped)) &&
         read_all(f, &n, sizeof(n));
    if (ok) {
      const long pos = std::ftell(f);
      ok = pos >= 0 && pos <= file_size &&
           n <= static_cast<std::uint64_t>(file_size - pos) /
                    sizeof(SpanRecord);
    }
    if (ok) {
      shard.records.resize(n);
      ok = n == 0 ||
           read_all(f, shard.records.data(), n * sizeof(SpanRecord));
    }
    if (ok) out->shards.push_back(std::move(shard));
  }
  std::fclose(f);
  if (!ok) {
    out->shards.clear();
    if (error != nullptr) {
      *error = "flight recorder: bad or truncated dump: " + path;
    }
  }
  return ok;
}

const char* span_kind_name(std::uint32_t kind) {
  switch (static_cast<SpanKind>(kind)) {
    case SpanKind::kMsgPost: return "post";
    case SpanKind::kTxQueue: return "tx_queue";
    case SpanKind::kTxInject: return "tx_inject";
    case SpanKind::kPktDeliver: return "pkt_deliver";
    case SpanKind::kRxDispatch: return "rx_dispatch";
    case SpanKind::kMbMatch: return "mb_match";
    case SpanKind::kCompletion: return "completion";
    case SpanKind::kDrop: return "drop";
  }
  return "unknown";
}

}  // namespace rvma::obs
