// Observability subsystem tests: histogram bucket math, merge
// associativity, percentile monotonicity, registry behavior, the
// engine-driven simulated-time sampler, metrics-document JSON round-trip,
// diff/check analysis, and empty-stat table formatting.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/table.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_io.hpp"
#include "obs/sampler.hpp"
#include "sim/engine.hpp"

namespace rvma {
namespace {

// Deterministic value stream for histogram tests (no RNG state needed).
std::uint64_t pseudo(std::uint64_t i) {
  std::uint64_t x = i * 0x9e3779b97f4a7c15ULL + 1;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  return x;
}

TEST(Histogram, SmallValuesGetExactUnitBuckets) {
  for (std::uint64_t v = 0; v < 64; ++v) {
    EXPECT_EQ(obs::Histogram::index_of(v), static_cast<int>(v)) << v;
    EXPECT_EQ(obs::Histogram::bucket_floor(static_cast<int>(v)), v);
    EXPECT_EQ(obs::Histogram::bucket_width(static_cast<int>(v)), 1u);
  }
}

TEST(Histogram, BucketFloorInvertsIndexOf) {
  for (int idx = 0; idx < 800; ++idx) {
    const std::uint64_t floor = obs::Histogram::bucket_floor(idx);
    const std::uint64_t width = obs::Histogram::bucket_width(idx);
    // Both ends of the bucket map back to it.
    EXPECT_EQ(obs::Histogram::index_of(floor), idx);
    EXPECT_EQ(obs::Histogram::index_of(floor + width - 1), idx);
    // The next value starts the next bucket.
    EXPECT_EQ(obs::Histogram::index_of(floor + width), idx + 1);
  }
}

TEST(Histogram, RelativeBucketWidthIsBounded) {
  // Beyond the exact range, every bucket spans at most floor/32 values:
  // the ~3.2% relative-error bound quoted for percentiles.
  for (int idx = 64; idx < 1500; ++idx) {
    EXPECT_LE(obs::Histogram::bucket_width(idx) * 32,
              obs::Histogram::bucket_floor(idx))
        << idx;
  }
}

TEST(Histogram, ExtremeValuesDoNotOverflow) {
  obs::Histogram h;
  h.record(0);
  h.record(~0ULL);
  const int top = obs::Histogram::index_of(~0ULL);
  EXPECT_GT(obs::Histogram::bucket_width(top), 0u);  // unsigned-wrap exact
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, ~0ULL);
}

TEST(Histogram, MergeIsAssociative) {
  obs::Histogram a, b, c;
  for (std::uint64_t i = 0; i < 300; ++i) a.record(pseudo(i) % 1000000);
  for (std::uint64_t i = 0; i < 200; ++i) b.record(pseudo(i + 7) % 100);
  for (std::uint64_t i = 0; i < 100; ++i) c.record(pseudo(i + 99));

  obs::HistogramSnapshot ab_c = a.snapshot();
  ab_c.merge(b.snapshot());
  ab_c.merge(c.snapshot());

  obs::HistogramSnapshot bc = b.snapshot();
  bc.merge(c.snapshot());
  obs::HistogramSnapshot a_bc = a.snapshot();
  a_bc.merge(bc);

  EXPECT_EQ(ab_c, a_bc);
  EXPECT_EQ(ab_c.count, 600u);
}

TEST(Histogram, PercentilesAreMonotoneAndClamped) {
  obs::Histogram h;
  for (std::uint64_t i = 0; i < 500; ++i) h.record(pseudo(i) % 250000);
  const obs::HistogramSnapshot snap = h.snapshot();
  double prev = snap.percentile(0.0);
  EXPECT_GE(prev, static_cast<double>(snap.min));
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double cur = snap.percentile(p);
    EXPECT_GE(cur, prev) << "p=" << p;
    prev = cur;
  }
  EXPECT_LE(prev, static_cast<double>(snap.max));
  // Percentiles stay within the bucket error bound of the true order
  // statistics at the extremes.
  EXPECT_DOUBLE_EQ(snap.percentile(100.0), static_cast<double>(snap.max));
}

TEST(Registry, InstrumentReferencesAreStable) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("x");
  c.inc(3);
  for (int i = 0; i < 100; ++i) reg.counter("other" + std::to_string(i));
  EXPECT_EQ(&c, &reg.counter("x"));  // node-based map: no reallocation
  EXPECT_EQ(reg.counter("x").value(), 3u);

  obs::Gauge& g = reg.gauge("lvl");
  g.set(10);
  g.set(4);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.gauges.at("lvl"), 10);  // high-water exported, not last
}

TEST(Snapshot, MergeSumsCountersAndMaxesGauges) {
  obs::MetricsSnapshot a, b;
  a.counters["c"] = 5;
  b.counters["c"] = 7;
  b.counters["only_b"] = 1;
  a.gauges["g"] = 10;
  b.gauges["g"] = 3;
  a.merge(b);
  EXPECT_EQ(a.counters.at("c"), 12u);
  EXPECT_EQ(a.counters.at("only_b"), 1u);
  EXPECT_EQ(a.gauges.at("g"), 10);
}

TEST(Sampler, RecordsExactPeriodBoundaries) {
  auto run = [] {
    sim::Engine engine;
    obs::MetricsRegistry reg;
    obs::Sampler sampler(reg);
    std::int64_t level = 0;
    sampler.add_gauge("level", [&] { return level; });
    sampler.enable(10 * kNanosecond);
    engine.set_sampler(&sampler);
    // Events at 4, 14, 24, 34, 44 ns; each raises the level by one. The
    // event at 14 ns is the first at/past the 10 ns boundary, so the row
    // for t=10 must see level=1 (the state after the 4 ns event).
    for (int i = 0; i < 5; ++i) {
      engine.schedule_at((4 + 10 * i) * kNanosecond, [&] { ++level; });
    }
    engine.run();
    return sampler.take_series();
  };

  const obs::Timeseries series = run();
  ASSERT_EQ(series.columns, std::vector<std::string>{"level"});
  const std::vector<Time> expected_times = {
      10 * kNanosecond, 20 * kNanosecond, 30 * kNanosecond, 40 * kNanosecond};
  EXPECT_EQ(series.times, expected_times);
  ASSERT_EQ(series.rows.size(), 4u);
  for (std::size_t i = 0; i < series.rows.size(); ++i) {
    EXPECT_EQ(series.rows[i], std::vector<std::int64_t>{
                                  static_cast<std::int64_t>(i + 1)});
  }
  // Simulated-time sampling is as deterministic as the simulation.
  EXPECT_EQ(series, run());
}

TEST(Sampler, GapsEmitOneRowPerCrossedBoundary) {
  sim::Engine engine;
  obs::MetricsRegistry reg;
  obs::Sampler sampler(reg);
  sampler.add_gauge("v", [] { return 1; });
  sampler.enable(10 * kNanosecond);
  engine.set_sampler(&sampler);
  engine.schedule_at(5 * kNanosecond, [] {});
  engine.schedule_at(37 * kNanosecond, [] {});  // crosses 10, 20, 30 at once
  engine.run();
  const obs::Timeseries series = sampler.take_series();
  const std::vector<Time> expected = {10 * kNanosecond, 20 * kNanosecond,
                                      30 * kNanosecond};
  EXPECT_EQ(series.times, expected);
}

TEST(MetricsDoc, JsonRoundTrip) {
  obs::MetricsDoc doc;
  doc.tool = "unit";
  doc.meta["nodes"] = "8";
  doc.totals.counters["c"] = 7;
  doc.totals.gauges["g"] = -3;
  obs::Histogram h;
  h.record(5);
  h.record(700);
  h.record(123456);
  doc.totals.histograms["h"] = h.snapshot();
  obs::Timeseries ts;
  ts.label = "run/one";
  ts.period = 10 * kNanosecond;
  ts.columns = {"a", "b"};
  ts.times = {10 * kNanosecond, 20 * kNanosecond};
  ts.rows = {{1, -2}, {3, 4}};
  doc.timeseries.push_back(ts);

  const std::string json = obs::to_json(doc);
  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::json_parse(json, &root, &error)) << error;
  obs::MetricsDoc back;
  ASSERT_TRUE(obs::metrics_doc_from_json(root, &back, &error)) << error;

  EXPECT_EQ(back.schema, doc.schema);
  EXPECT_EQ(back.tool, doc.tool);
  EXPECT_EQ(back.meta, doc.meta);
  EXPECT_EQ(back.totals, doc.totals);
  ASSERT_EQ(back.timeseries.size(), 1u);
  EXPECT_EQ(back.timeseries[0], ts);

  // Canonical form: re-serializing the parsed document is byte-identical.
  EXPECT_EQ(obs::to_json(back), json);
}

TEST(MetricsDoc, DiffFlagsPerturbedCounterAndHonorsTolerance) {
  obs::MetricsDoc a;
  a.totals.counters["pkts"] = 1000;
  a.totals.gauges["depth"] = 5;
  obs::MetricsDoc b = a;
  b.totals.counters["pkts"] = 1010;

  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(obs::print_metrics_diff(a, a, obs::DiffOptions{}, sink), 0);
  EXPECT_EQ(obs::print_metrics_diff(a, b, obs::DiffOptions{}, sink), 1);
  obs::DiffOptions loose;
  loose.rel_tol = 0.05;  // 1% change is within 5%
  EXPECT_EQ(obs::print_metrics_diff(a, b, loose, sink), 0);
  std::fclose(sink);
}

TEST(MetricsDoc, CheckValidatesRequiredInstruments) {
  obs::MetricsDoc doc;
  doc.totals.counters["c"] = 1;
  obs::Histogram h;
  h.record(42);
  doc.totals.histograms["lat"] = h.snapshot();

  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  obs::CheckOptions ok;
  ok.required = {"c", "lat"};
  ok.need_histogram = true;
  EXPECT_EQ(obs::check_metrics_doc(doc, ok, sink), 0);

  obs::CheckOptions bad;
  bad.required = {"missing"};
  bad.need_timeseries = true;  // doc has none
  EXPECT_EQ(obs::check_metrics_doc(doc, bad, sink), 2);

  obs::MetricsDoc wrong_schema = doc;
  wrong_schema.schema = "other";
  EXPECT_GT(obs::check_metrics_doc(wrong_schema, ok, sink), 0);
  std::fclose(sink);
}

TEST(Table, StatNumRendersDashForEmptyStats) {
  EXPECT_EQ(Table::stat_num(0, 123.0), "-");
  EXPECT_EQ(Table::stat_num(0, 0.0), "-");
  EXPECT_EQ(Table::stat_num(3, 2.5), Table::num(2.5, 2));
}

}  // namespace
}  // namespace rvma
