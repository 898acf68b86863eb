// In-memory host-time spans recorded around the benchmark's calls into
// each simulator layer, with self-time attribution and a Chrome trace
// (Perfetto-readable) export.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Host seconds since an arbitrary process-wide epoch (steady clock).
double now_s();

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0;

  /// Open a span; returns its id (never kNoParent). `fanout` is how many
  /// of this span's children may run at once (the worker count of a
  /// parallel region), used to turn their durations into wall-clock share.
  std::uint32_t begin(std::string name, const char* layer,
                      std::uint32_t parent, std::string cell = {},
                      int fanout = 1);
  void end(std::uint32_t id);

  struct Attribution {
    std::map<std::string, double> self_s;  ///< layer -> wall-share seconds
    double uncovered_s = 0;  ///< root span time no layer span covers
    double wall_s = 0;       ///< total duration of the root spans
  };
  /// A span's self time is its duration minus its children's durations
  /// divided by its fanout; it counts toward wall clock scaled by the
  /// product of 1/fanout over its ancestors. Root spans' self time is the
  /// uncovered remainder, so sum(self_s) + uncovered_s == wall_s.
  Attribution attribute() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    const char* layer = "";
    std::string cell;
    std::uint32_t parent = kNoParent;
    int fanout = 1;
    int tid = 0;
    double start_s = 0;
    double end_s = -1;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< index id - 1
};

/// RAII span that always measures its duration and records into `log`
/// when one is given (tracing on). Tracing off costs two clock reads.
class Timed {
 public:
  Timed(SpanLog* log, std::uint32_t parent, std::string name,
        const char* layer, std::string cell = {}, int fanout = 1);
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  std::uint32_t id() const { return id_; }
  /// Close the span (idempotent) and return its duration in seconds.
  double stop();

 private:
  SpanLog* log_;
  std::uint32_t id_ = SpanLog::kNoParent;
  double start_s_;
  double seconds_ = -1;
};

}  // namespace perfbench
