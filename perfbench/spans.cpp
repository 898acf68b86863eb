#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

/// Small stable per-thread id for the trace's "tid" field.
int thread_index() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

std::uint32_t SpanLog::begin(std::string name, const char* layer,
                             std::uint32_t parent, std::string cell,
                             int fanout) {
  Span span;
  span.name = std::move(name);
  span.layer = layer;
  span.cell = std::move(cell);
  span.parent = parent;
  span.fanout = fanout < 1 ? 1 : fanout;
  span.tid = thread_index();
  span.start_s = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<std::uint32_t>(spans_.size());
}

void SpanLog::end(std::uint32_t id) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_s = t;
}

SpanLog::Attribution SpanLog::attribute() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = spans_.size();
  // Parents are opened before their children, so ids ascend down the
  // tree: one forward pass fixes every span's scale, one more its self.
  std::vector<double> child_s(n, 0.0);
  std::vector<double> scale(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.parent == kNoParent) continue;
    const Span& p = spans_[s.parent - 1];
    child_s[s.parent - 1] += s.end_s - s.start_s;
    scale[i] = scale[s.parent - 1] / p.fanout;
  }
  Attribution out;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    const double dur = s.end_s - s.start_s;
    const double self = (dur - child_s[i] / s.fanout) * scale[i];
    if (s.parent == kNoParent) {
      out.wall_s += dur;
      out.uncovered_s += self;
    } else {
      out.self_s[s.layer] += self;
    }
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%u,\"cell\":\"%s\"}}%s\n",
                 json_escape(s.name).c_str(), s.layer, s.tid, s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, i + 1, s.parent,
                 json_escape(s.cell).c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Timed::Timed(SpanLog* log, std::uint32_t parent, std::string name,
             const char* layer, std::string cell, int fanout)
    : log_(log), start_s_(now_s()) {
  if (log_ != nullptr) {
    id_ = log_->begin(std::move(name), layer, parent, std::move(cell), fanout);
  }
}

double Timed::stop() {
  if (seconds_ < 0) {
    seconds_ = now_s() - start_s_;
    if (log_ != nullptr) log_->end(id_);
  }
  return seconds_;
}

}  // namespace perfbench
