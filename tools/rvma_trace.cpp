// rvma_trace — decode and analyse flight-recorder ("RVFR1") dumps.
//
// Usage:
//   rvma_trace summarize <dump.rvfr>
//       Per-shard and per-kind record counts, dropped totals, time range.
//   rvma_trace critpath <dump.rvfr>
//       Per-message critical-path breakdown (host / wire / rx / mailbox
//       segments) with p50/p99/max durations and exemplar message ids.
//   rvma_trace timeline <dump.rvfr> [--out=trace.json]
//       Chrome trace-event / Perfetto JSON: one process per shard, one
//       thread track per node. Load at https://ui.perfetto.dev or
//       chrome://tracing. Defaults to stdout.
//   rvma_trace jsonl <dump.rvfr> [--out=spans.jsonl]
//       One JSON object per span, {"t","ev","node","key","aux"} plus a
//       "reason" string on drop lines, ordered by content — the same bytes
//       for one simulation at any --par-shards. Warns on stderr when a
//       ring overwrote records. Defaults to stdout.
//
// Dumps come from `rvma_run <scenario> --flight-recorder=<path>` (or the
// fig7/fig8 benches with the same flag). Everything here is offline
// analysis — the recorder itself never perturbs simulation output.
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "obs/flight_analysis.hpp"
#include "obs/flight_recorder.hpp"

using namespace rvma;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rvma_trace summarize <dump.rvfr>\n"
               "       rvma_trace critpath  <dump.rvfr>\n"
               "       rvma_trace timeline  <dump.rvfr> [--out=trace.json]\n"
               "       rvma_trace jsonl     <dump.rvfr> [--out=spans.jsonl]\n");
  return 2;
}

/// Print `text` to stdout, or write it to `out_path` and say so.
int emit(const std::string& text, const std::string& out_path,
         const char* what, std::uint64_t records) {
  if (out_path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "rvma_trace: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), out);
  std::fclose(out);
  std::printf("%s written to %s (%zu bytes, %llu records)\n", what,
              out_path.c_str(), text.size(),
              static_cast<unsigned long long>(records));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  if (cli.positional().size() != 2) return usage();
  const std::string command = cli.positional()[0];
  const std::string path = cli.positional()[1];
  const std::string out_path = cli.get("out", "");
  for (const auto& key : cli.unconsumed()) {
    std::fprintf(stderr, "unknown option --%s\n", key.c_str());
    return 2;
  }

  obs::FlightDump dump;
  std::string error;
  if (!obs::read_flight_file(path, &dump, &error)) {
    std::fprintf(stderr, "rvma_trace: %s\n", error.c_str());
    return 1;
  }

  if (command == "summarize") {
    std::fputs(obs::format_flight_summary(dump).c_str(), stdout);
    return 0;
  }
  if (command == "critpath") {
    const auto paths = obs::build_message_paths(dump);
    std::fputs(obs::format_critpath(obs::build_critpath(paths)).c_str(),
               stdout);
    return 0;
  }
  if (command == "timeline") {
    return emit(obs::perfetto_json(dump), out_path, "timeline",
                dump.total_records());
  }
  if (command == "jsonl") {
    std::uint64_t dropped = 0;
    for (const obs::FlightShard& s : dump.shards) dropped += s.dropped;
    if (dropped > 0) {
      std::fprintf(stderr,
                   "rvma_trace: warning: full rings overwrote %llu record(s); "
                   "the export lacks the oldest spans (raise "
                   "--flight-recorder-capacity)\n",
                   static_cast<unsigned long long>(dropped));
    }
    return emit(obs::flight_jsonl(dump), out_path, "jsonl",
                dump.total_records());
  }
  return usage();
}
