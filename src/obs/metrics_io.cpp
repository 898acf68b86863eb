#include "obs/metrics_io.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "common/table.hpp"
#include "obs/json.hpp"

namespace rvma::obs {

namespace {

void append_u64(std::string* out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void append_i64(std::string* out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out->append(buf);
}

// %.6g is locale-independent here: the repo never calls setlocale, so the
// C locale's '.' decimal point is guaranteed and output stays byte-stable.
void append_double(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

void append_key(std::string* out, std::string_view key) {
  json_append_escaped(out, key);
  out->append(":");
}

void append_histogram(std::string* out, const HistogramSnapshot& h) {
  out->append("{");
  append_key(out, "count");
  append_u64(out, h.count);
  out->append(",");
  append_key(out, "sum");
  append_u64(out, h.sum);
  out->append(",");
  append_key(out, "min");
  append_u64(out, h.min);
  out->append(",");
  append_key(out, "max");
  append_u64(out, h.max);
  out->append(",");
  append_key(out, "mean");
  append_double(out, h.mean());
  out->append(",");
  append_key(out, "p50");
  append_double(out, h.percentile(50.0));
  out->append(",");
  append_key(out, "p90");
  append_double(out, h.percentile(90.0));
  out->append(",");
  append_key(out, "p99");
  append_double(out, h.percentile(99.0));
  out->append(",");
  append_key(out, "buckets");
  out->append("[");
  bool first = true;
  for (const auto& [index, n] : h.buckets) {
    if (!first) out->append(",");
    first = false;
    out->append("[");
    append_i64(out, index);
    out->append(",");
    append_u64(out, n);
    out->append("]");
  }
  out->append("]}");
}

void append_timeseries(std::string* out, const Timeseries& ts) {
  out->append("{");
  append_key(out, "label");
  json_append_escaped(out, ts.label);
  out->append(",");
  append_key(out, "period_ps");
  append_u64(out, ts.period);
  out->append(",");
  append_key(out, "columns");
  out->append("[");
  for (std::size_t c = 0; c < ts.columns.size(); ++c) {
    if (c != 0) out->append(",");
    json_append_escaped(out, ts.columns[c]);
  }
  out->append("],");
  append_key(out, "times");
  out->append("[");
  for (std::size_t i = 0; i < ts.times.size(); ++i) {
    if (i != 0) out->append(",");
    append_u64(out, ts.times[i]);
  }
  out->append("],");
  append_key(out, "rows");
  out->append("[");
  for (std::size_t i = 0; i < ts.rows.size(); ++i) {
    if (i != 0) out->append(",");
    out->append("[");
    for (std::size_t c = 0; c < ts.rows[i].size(); ++c) {
      if (c != 0) out->append(",");
      append_i64(out, ts.rows[i][c]);
    }
    out->append("]");
  }
  out->append("]}");
}

/// a vs b differ beyond the relative tolerance (0 = any difference).
bool differs(double a, double b, double rel_tol) {
  if (a == b) return false;
  const double denom = std::max(std::fabs(a), std::fabs(b));
  if (denom == 0.0) return false;
  return std::fabs(a - b) > rel_tol * denom;
}

}  // namespace

std::string to_json(const MetricsDoc& doc) {
  std::string out;
  out.reserve(4096);
  out.append("{\n");
  out.append("\"schema\":");
  json_append_escaped(&out, doc.schema);
  out.append(",\n\"tool\":");
  json_append_escaped(&out, doc.tool);
  out.append(",\n\"meta\":{");
  {
    bool first = true;
    for (const auto& [k, v] : doc.meta) {
      if (!first) out.append(",");
      first = false;
      append_key(&out, k);
      json_append_escaped(&out, v);
    }
  }
  out.append("},\n\"counters\":{");
  {
    bool first = true;
    for (const auto& [name, v] : doc.totals.counters) {
      if (!first) out.append(",");
      first = false;
      out.append("\n");
      append_key(&out, name);
      append_u64(&out, v);
    }
  }
  out.append("},\n\"gauges\":{");
  {
    bool first = true;
    for (const auto& [name, v] : doc.totals.gauges) {
      if (!first) out.append(",");
      first = false;
      out.append("\n");
      append_key(&out, name);
      append_i64(&out, v);
    }
  }
  out.append("},\n\"histograms\":{");
  {
    bool first = true;
    for (const auto& [name, h] : doc.totals.histograms) {
      if (!first) out.append(",");
      first = false;
      out.append("\n");
      append_key(&out, name);
      append_histogram(&out, h);
    }
  }
  out.append("},\n\"timeseries\":[");
  for (std::size_t i = 0; i < doc.timeseries.size(); ++i) {
    if (i != 0) out.append(",");
    out.append("\n");
    append_timeseries(&out, doc.timeseries[i]);
  }
  out.append("]\n}\n");
  return out;
}

bool write_metrics_file(const MetricsDoc& doc, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write metrics file '%s'\n",
                 path.c_str());
    return false;
  }
  const std::string body = to_json(doc);
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "error: short write to metrics file '%s'\n",
                 path.c_str());
  }
  return ok;
}

namespace {

bool histogram_from_json(const JsonValue& v, HistogramSnapshot* out) {
  if (!v.is_object()) return false;
  const JsonValue* count = v.find("count");
  if (count == nullptr || !count->is_number()) return false;
  out->count = count->as_u64();
  if (const JsonValue* f = v.find("sum"); f != nullptr) out->sum = f->as_u64();
  if (const JsonValue* f = v.find("min"); f != nullptr) out->min = f->as_u64();
  if (const JsonValue* f = v.find("max"); f != nullptr) out->max = f->as_u64();
  const JsonValue* buckets = v.find("buckets");
  if (buckets == nullptr || !buckets->is_array()) return false;
  for (const JsonValue& b : buckets->array) {
    if (!b.is_array() || b.array.size() != 2) return false;
    out->buckets.emplace_back(static_cast<std::int32_t>(b.array[0].as_i64()),
                              b.array[1].as_u64());
  }
  return true;
}

bool timeseries_from_json(const JsonValue& v, Timeseries* out) {
  if (!v.is_object()) return false;
  if (const JsonValue* f = v.find("label"); f != nullptr && f->is_string()) {
    out->label = f->string;
  }
  if (const JsonValue* f = v.find("period_ps"); f != nullptr) {
    out->period = f->as_u64();
  }
  const JsonValue* columns = v.find("columns");
  const JsonValue* times = v.find("times");
  const JsonValue* rows = v.find("rows");
  if (columns == nullptr || !columns->is_array() || times == nullptr ||
      !times->is_array() || rows == nullptr || !rows->is_array()) {
    return false;
  }
  for (const JsonValue& c : columns->array) {
    if (!c.is_string()) return false;
    out->columns.push_back(c.string);
  }
  for (const JsonValue& t : times->array) out->times.push_back(t.as_u64());
  for (const JsonValue& r : rows->array) {
    if (!r.is_array()) return false;
    std::vector<std::int64_t> row;
    row.reserve(r.array.size());
    for (const JsonValue& cell : r.array) row.push_back(cell.as_i64());
    out->rows.push_back(std::move(row));
  }
  return out->times.size() == out->rows.size();
}

}  // namespace

bool metrics_doc_from_json(const JsonValue& root, MetricsDoc* out,
                           std::string* error) {
  const auto fail = [error](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (!root.is_object()) return fail("document is not a JSON object");
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return fail("missing \"schema\" field");
  }
  out->schema = schema->string;
  if (const JsonValue* f = root.find("tool"); f != nullptr && f->is_string()) {
    out->tool = f->string;
  }
  if (const JsonValue* f = root.find("meta"); f != nullptr && f->is_object()) {
    for (const auto& [k, v] : f->object) {
      if (v.is_string()) out->meta[k] = v.string;
    }
  }
  if (const JsonValue* f = root.find("counters");
      f != nullptr && f->is_object()) {
    for (const auto& [k, v] : f->object) {
      if (!v.is_number()) return fail("non-numeric counter value");
      out->totals.counters[k] = v.as_u64();
    }
  }
  if (const JsonValue* f = root.find("gauges"); f != nullptr && f->is_object()) {
    for (const auto& [k, v] : f->object) {
      if (!v.is_number()) return fail("non-numeric gauge value");
      out->totals.gauges[k] = v.as_i64();
    }
  }
  if (const JsonValue* f = root.find("histograms");
      f != nullptr && f->is_object()) {
    for (const auto& [k, v] : f->object) {
      HistogramSnapshot h;
      if (!histogram_from_json(v, &h)) return fail("malformed histogram");
      out->totals.histograms[k] = std::move(h);
    }
  }
  if (const JsonValue* f = root.find("timeseries");
      f != nullptr && f->is_array()) {
    for (const JsonValue& v : f->array) {
      Timeseries ts;
      if (!timeseries_from_json(v, &ts)) return fail("malformed timeseries");
      out->timeseries.push_back(std::move(ts));
    }
  }
  return true;
}

bool read_metrics_file(const std::string& path, MetricsDoc* out,
                       std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return false;
  }
  std::string body;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  std::fclose(f);
  JsonValue root;
  if (!json_parse(body, &root, error)) return false;
  return metrics_doc_from_json(root, out, error);
}

namespace {

/// Printed under a PDES profile's per-shard utilization gauges: the
/// busiest shard's busy time summed over windows against the mean shard's
/// busy total — 1.00x is perfect per-window balance, Kx one busy shard per
/// window. Prints nothing for other documents.
void print_pdes_balance(const MetricsSnapshot& m, std::FILE* out) {
  const auto critical = m.counters.find("pdes.critical_busy_wall_ns");
  const auto shards = m.counters.find("pdes.shards");
  if (critical == m.counters.end() || shards == m.counters.end() ||
      critical->second == 0) {
    return;
  }
  std::uint64_t busy = 0;
  for (std::uint64_t s = 0; s < shards->second; ++s) {
    const auto it =
        m.counters.find("pdes.shard" + std::to_string(s) + ".busy_wall_ns");
    if (it != m.counters.end()) busy += it->second;
  }
  if (busy == 0) return;
  const double mean =
      static_cast<double>(busy) / static_cast<double>(shards->second);
  const double crit = static_cast<double>(critical->second);
  std::fprintf(out,
               "pdes critical busy: %.3f ms = %.2fx the mean shard busy "
               "(%.3f ms)\n",
               crit * 1e-6, crit / mean, mean * 1e-6);
}

}  // namespace

void print_metrics_summary(const MetricsDoc& doc, std::FILE* out) {
  std::fprintf(out, "metrics: %s (schema %s)\n", doc.tool.c_str(),
               doc.schema.c_str());
  for (const auto& [k, v] : doc.meta) {
    std::fprintf(out, "  %s = %s\n", k.c_str(), v.c_str());
  }
  if (!doc.totals.counters.empty()) {
    std::fprintf(out, "\ncounters:\n");
    Table t({"name", "value"});
    for (const auto& [name, v] : doc.totals.counters) {
      t.add_row({name, std::to_string(v)});
    }
    t.print(out);
  }
  if (!doc.totals.gauges.empty()) {
    std::fprintf(out, "\ngauges (high-water):\n");
    Table t({"name", "high_water"});
    for (const auto& [name, v] : doc.totals.gauges) {
      t.add_row({name, std::to_string(v)});
    }
    t.print(out);
    print_pdes_balance(doc.totals, out);
  }
  if (!doc.totals.histograms.empty()) {
    std::fprintf(out, "\nhistograms:\n");
    Table t({"name", "count", "mean", "p50", "p90", "p99", "max"});
    for (const auto& [name, h] : doc.totals.histograms) {
      t.add_row({name, std::to_string(h.count),
                 Table::stat_num(h.count, h.mean()),
                 Table::stat_num(h.count, h.percentile(50.0)),
                 Table::stat_num(h.count, h.percentile(90.0)),
                 Table::stat_num(h.count, h.percentile(99.0)),
                 Table::stat_num(h.count, static_cast<double>(h.max))});
    }
    t.print(out);
  }
  if (!doc.timeseries.empty()) {
    std::fprintf(out, "\ntimeseries (%zu runs):\n", doc.timeseries.size());
    Table t({"label", "rows", "period_us", "columns"});
    for (const Timeseries& ts : doc.timeseries) {
      t.add_row({ts.label, std::to_string(ts.rows.size()),
                 Table::num(to_us(ts.period)),
                 std::to_string(ts.columns.size())});
    }
    t.print(out);
  }
}

int print_metrics_diff(const MetricsDoc& a, const MetricsDoc& b,
                       const DiffOptions& opts, std::FILE* out) {
  int flagged = 0;
  const auto flag = [&flagged, out](const char* kind, const std::string& name,
                                    const std::string& va,
                                    const std::string& vb) {
    ++flagged;
    std::fprintf(out, "  %-9s %-40s %16s -> %16s\n", kind, name.c_str(),
                 va.c_str(), vb.c_str());
  };

  std::fprintf(out, "diff: %s vs %s (rel_tol=%g)\n", a.tool.c_str(),
               b.tool.c_str(), opts.rel_tol);

  std::set<std::string> names;
  for (const auto& [k, v] : a.totals.counters) names.insert(k);
  for (const auto& [k, v] : b.totals.counters) names.insert(k);
  for (const std::string& name : names) {
    const auto ia = a.totals.counters.find(name);
    const auto ib = b.totals.counters.find(name);
    if (ia == a.totals.counters.end()) {
      flag("counter", name, "(absent)", std::to_string(ib->second));
    } else if (ib == b.totals.counters.end()) {
      flag("counter", name, std::to_string(ia->second), "(absent)");
    } else if (differs(static_cast<double>(ia->second),
                       static_cast<double>(ib->second), opts.rel_tol)) {
      flag("counter", name, std::to_string(ia->second),
           std::to_string(ib->second));
    }
  }

  names.clear();
  for (const auto& [k, v] : a.totals.gauges) names.insert(k);
  for (const auto& [k, v] : b.totals.gauges) names.insert(k);
  for (const std::string& name : names) {
    const auto ia = a.totals.gauges.find(name);
    const auto ib = b.totals.gauges.find(name);
    if (ia == a.totals.gauges.end()) {
      flag("gauge", name, "(absent)", std::to_string(ib->second));
    } else if (ib == b.totals.gauges.end()) {
      flag("gauge", name, std::to_string(ia->second), "(absent)");
    } else if (differs(static_cast<double>(ia->second),
                       static_cast<double>(ib->second), opts.rel_tol)) {
      flag("gauge", name, std::to_string(ia->second),
           std::to_string(ib->second));
    }
  }

  names.clear();
  for (const auto& [k, v] : a.totals.histograms) names.insert(k);
  for (const auto& [k, v] : b.totals.histograms) names.insert(k);
  for (const std::string& name : names) {
    const auto ia = a.totals.histograms.find(name);
    const auto ib = b.totals.histograms.find(name);
    if (ia == a.totals.histograms.end()) {
      flag("histogram", name, "(absent)",
           std::to_string(ib->second.count) + " samples");
      continue;
    }
    if (ib == b.totals.histograms.end()) {
      flag("histogram", name, std::to_string(ia->second.count) + " samples",
           "(absent)");
      continue;
    }
    const HistogramSnapshot& ha = ia->second;
    const HistogramSnapshot& hb = ib->second;
    if (differs(static_cast<double>(ha.count), static_cast<double>(hb.count),
                opts.rel_tol)) {
      flag("histogram", name + ".count", std::to_string(ha.count),
           std::to_string(hb.count));
    }
    for (const double p : {50.0, 99.0}) {
      const double pa = ha.percentile(p);
      const double pb = hb.percentile(p);
      if (differs(pa, pb, opts.rel_tol)) {
        char label[16];
        std::snprintf(label, sizeof(label), ".p%g", p);
        flag("histogram", name + label, Table::num(pa), Table::num(pb));
      }
    }
  }

  if (a.timeseries.size() != b.timeseries.size()) {
    flag("series", "(run count)", std::to_string(a.timeseries.size()),
         std::to_string(b.timeseries.size()));
  } else {
    for (std::size_t i = 0; i < a.timeseries.size(); ++i) {
      if (!(a.timeseries[i] == b.timeseries[i])) {
        flag("series",
             a.timeseries[i].label.empty() ? ("#" + std::to_string(i))
                                           : a.timeseries[i].label,
             std::to_string(a.timeseries[i].rows.size()) + " rows",
             std::to_string(b.timeseries[i].rows.size()) + " rows");
      }
    }
  }

  if (flagged == 0) {
    std::fprintf(out, "  identical within tolerance\n");
  } else {
    std::fprintf(out, "%d difference(s) flagged\n", flagged);
  }
  return flagged;
}

int check_metrics_doc(const MetricsDoc& doc, const CheckOptions& opts,
                      std::FILE* out) {
  int failures = 0;
  const auto fail = [&failures, out](const std::string& msg) {
    ++failures;
    std::fprintf(out, "check failed: %s\n", msg.c_str());
  };
  if (doc.schema != kMetricsSchema) {
    fail("schema is '" + doc.schema + "', expected '" + kMetricsSchema + "'");
  }
  if (doc.totals.counters.empty()) fail("no counters recorded");
  for (const std::string& name : opts.required) {
    const bool present = doc.totals.counters.count(name) != 0 ||
                         doc.totals.gauges.count(name) != 0 ||
                         doc.totals.histograms.count(name) != 0;
    if (!present) fail("required instrument '" + name + "' missing");
  }
  if (opts.need_histogram) {
    bool found = false;
    for (const auto& [name, h] : doc.totals.histograms) {
      if (h.count > 0) {
        found = true;
        break;
      }
    }
    if (!found) fail("no histogram with samples");
  }
  if (opts.need_timeseries) {
    bool found = false;
    for (const Timeseries& ts : doc.timeseries) {
      if (!ts.empty()) {
        found = true;
        break;
      }
    }
    if (!found) fail("no non-empty timeseries");
  }
  return failures;
}

}  // namespace rvma::obs
