// Unit tests for src/common: units, RNG, statistics, table, CLI.
#include <gtest/gtest.h>

#include <clocale>
#include <cstdio>
#include <set>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "obs/json.hpp"

namespace rvma {
namespace {

TEST(Units, TimeConstants) {
  EXPECT_EQ(kNanosecond, 1000u);
  EXPECT_EQ(kMicrosecond, 1000u * kNanosecond);
  EXPECT_EQ(kSecond, 1000u * kMillisecond);
  EXPECT_EQ(ns(1.5), 1500u);
  EXPECT_EQ(us(2.0), 2'000'000u);
}

TEST(Units, TimeConversions) {
  EXPECT_DOUBLE_EQ(to_us(1'500'000), 1.5);
  EXPECT_DOUBLE_EQ(to_ns(2'500), 2.5);
}

TEST(Units, BandwidthSerialize) {
  // 100 Gbps = 12.5 GB/s: 1250 bytes take 100 ns.
  const Bandwidth bw = Bandwidth::gbps(100);
  EXPECT_EQ(bw.serialize(1250), 100 * kNanosecond);
  // 2 Tbps: 1 KiB takes 4.096 ns.
  EXPECT_EQ(Bandwidth::tbps(2).serialize(1024), static_cast<Time>(4096));
}

TEST(Units, BandwidthScaled) {
  const Bandwidth bw = Bandwidth::gbps(100).scaled(1.5);
  EXPECT_DOUBLE_EQ(bw.gbps_value(), 150.0);
}

TEST(Units, ZeroBandwidthSerializesInstantly) {
  EXPECT_EQ(Bandwidth{}.serialize(1'000'000), 0u);
}

TEST(Units, Formatting) {
  EXPECT_EQ(format_time(1500 * kNanosecond), "1.50 us");
  EXPECT_EQ(format_size(4096), "4 KiB");
  EXPECT_EQ(format_size(3), "3 B");
  EXPECT_EQ(format_bandwidth(Bandwidth::tbps(2)), "2.00 Tbps");
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInInclusive) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

TEST(Rng, ForkIndependent) {
  Rng parent(5);
  Rng child = parent.fork();
  EXPECT_NE(parent(), child());
}

TEST(RunningStat, MeanVariance) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  RunningStat all, a, b;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.37;
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(Samples, MeanStd) {
  Samples s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.0), 1e-12);
}

TEST(Table, AlignsColumns) {
  Table t({"size", "latency"});
  t.add_row({"2 B", "1.00"});
  t.add_row({"4 MiB", "350.25"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("size"), std::string::npos);
  EXPECT_NE(out.find("350.25"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta=7", "--flag", "pos"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get_int("beta", 0), 7);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos");
}

TEST(Cli, UnconsumedDetectsTypos) {
  const char* argv[] = {"prog", "--nodse=4"};
  Cli cli(2, argv);
  cli.get_int("nodes", 2);
  const auto leftovers = cli.unconsumed();
  ASSERT_EQ(leftovers.size(), 1u);
  EXPECT_EQ(leftovers[0], "nodse");
}

TEST(Cli, DoubleAndBool) {
  const char* argv[] = {"prog", "--x=2.5", "--on=true", "--off=0"};
  Cli cli(4, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 2.5);
  EXPECT_TRUE(cli.get_bool("on", false));
  EXPECT_FALSE(cli.get_bool("off", true));
}

TEST(UnitParse, Duration) {
  Time t = 0;
  EXPECT_TRUE(parse_duration("2.5us", &t));
  EXPECT_EQ(t, 2'500'000u);
  EXPECT_TRUE(parse_duration("150 ns", &t));
  EXPECT_EQ(t, 150'000u);
  EXPECT_TRUE(parse_duration("1ms", &t));
  EXPECT_EQ(t, kMillisecond);
  EXPECT_TRUE(parse_duration("1500ps", &t));
  EXPECT_EQ(t, 1500u);
  EXPECT_TRUE(parse_duration("1500", &t));  // bare picoseconds
  EXPECT_EQ(t, 1500u);
  EXPECT_TRUE(parse_duration("0s", &t));
  EXPECT_EQ(t, 0u);
  EXPECT_TRUE(parse_duration("inf", &t));
  EXPECT_EQ(t, kTimeInfinity);
  // Malformed / inexact inputs: rejected, *out untouched.
  t = 42;
  EXPECT_FALSE(parse_duration("", &t));
  EXPECT_FALSE(parse_duration("ns", &t));
  EXPECT_FALSE(parse_duration("1.5ps", &t));  // fractional picosecond
  EXPECT_FALSE(parse_duration("10 parsecs", &t));
  EXPECT_EQ(t, 42u);
}

TEST(UnitParse, Size) {
  std::uint64_t s = 0;
  EXPECT_TRUE(parse_size("64KiB", &s));
  EXPECT_EQ(s, 64 * KiB);
  EXPECT_TRUE(parse_size("4 MiB", &s));
  EXPECT_EQ(s, 4 * MiB);
  EXPECT_TRUE(parse_size("2GiB", &s));
  EXPECT_EQ(s, 2 * GiB);
  EXPECT_TRUE(parse_size("4096", &s));
  EXPECT_EQ(s, 4096u);
  EXPECT_TRUE(parse_size("512B", &s));
  EXPECT_EQ(s, 512u);
  s = 7;
  EXPECT_FALSE(parse_size("-1B", &s));
  EXPECT_FALSE(parse_size("1.5B", &s));
  EXPECT_FALSE(parse_size("64KB", &s));  // only binary prefixes
  EXPECT_EQ(s, 7u);
}

TEST(UnitParse, Bandwidth) {
  Bandwidth bw;
  EXPECT_TRUE(parse_bandwidth("100Gbps", &bw));
  EXPECT_EQ(bw, Bandwidth::gbps(100));
  EXPECT_TRUE(parse_bandwidth("2Tbps", &bw));
  EXPECT_EQ(bw, Bandwidth::gbps(2000));
  EXPECT_TRUE(parse_bandwidth("800 Mbps", &bw));
  EXPECT_DOUBLE_EQ(bw.bits_per_sec, 800e6);
  EXPECT_TRUE(parse_bandwidth("125000bps", &bw));
  EXPECT_DOUBLE_EQ(bw.bits_per_sec, 125000.0);
  EXPECT_TRUE(parse_bandwidth("100", &bw));  // bare number = bits/sec
  EXPECT_DOUBLE_EQ(bw.bits_per_sec, 100.0);
  EXPECT_FALSE(parse_bandwidth("fast", &bw));
  EXPECT_FALSE(parse_bandwidth("100 knots", &bw));
}

TEST(UnitParse, CanonicalRoundTrip) {
  // canonical -> parse -> canonical is the identity: this is what keeps
  // scenario-spec JSON byte-stable across load/save cycles.
  const Time times[] = {0,         1,          999,           1500,
                        150'000,   2'500'000,  kMillisecond,  3 * kSecond,
                        kTimeInfinity};
  for (Time t : times) {
    const std::string s = canonical_duration(t);
    Time back = ~t;
    ASSERT_TRUE(parse_duration(s, &back)) << s;
    EXPECT_EQ(back, t) << s;
    EXPECT_EQ(canonical_duration(back), s);
  }
  const std::uint64_t sizes[] = {0, 1, 512, 4096, 64 * KiB, 4 * MiB + 1,
                                 2 * GiB};
  for (std::uint64_t z : sizes) {
    const std::string s = canonical_size(z);
    std::uint64_t back = ~z;
    ASSERT_TRUE(parse_size(s, &back)) << s;
    EXPECT_EQ(back, z) << s;
    EXPECT_EQ(canonical_size(back), s);
  }
  const Bandwidth bws[] = {Bandwidth::gbps(100), Bandwidth::gbps(2000),
                           Bandwidth::gbps(0.5), Bandwidth(125000.0),
                           Bandwidth(1.5)};
  for (Bandwidth bw : bws) {
    const std::string s = canonical_bandwidth(bw);
    Bandwidth back;
    ASSERT_TRUE(parse_bandwidth(s, &back)) << s;
    EXPECT_EQ(back, bw) << s;
    EXPECT_EQ(canonical_bandwidth(back), s);
  }
}

TEST(UnitParse, ExponentFormsAndOverflowBoundaries) {
  Time t = 0;
  // Exponent forms take the double fallback path and still land exactly.
  EXPECT_TRUE(parse_duration("1e3us", &t));
  EXPECT_EQ(t, 1000 * kMicrosecond);
  EXPECT_TRUE(parse_duration("2.5e2ns", &t));
  EXPECT_EQ(t, 250'000u);

  // Digits-only values survive verbatim past the 53-bit double mantissa...
  std::uint64_t s = 0;
  EXPECT_TRUE(parse_size("18446744073709551615", &s));  // UINT64_MAX
  EXPECT_EQ(s, UINT64_MAX);
  // ...and overflow is rejected, not silently rounded back into range:
  // 2^64 rounds to exactly kTwoPow64 as a double, the boundary case.
  s = 7;
  EXPECT_FALSE(parse_size("18446744073709551616", &s));  // 2^64
  EXPECT_FALSE(parse_size("99999999999999999999", &s));
  EXPECT_FALSE(parse_size("20000000000GiB", &s));  // unit multiply overflows
  EXPECT_EQ(s, 7u);

  // Fractional results that do not scale to an integral count of base
  // units are rejected (no hidden rounding).
  EXPECT_FALSE(parse_duration("1.0000001ps", &t));
}

TEST(Cli, MalformedDoubleFailsLoud) {
  // get_double used to fall back to strtod semantics: "2,5" parsed as 2
  // with trailing garbage ignored. Now any non-numeric remainder exits
  // with a diagnostic rather than silently truncating.
  auto parse = [](const char* val) {
    const char* argv[] = {"prog", val};
    Cli cli(2, argv);
    cli.get_double("x", 0.0);
    std::exit(0);  // not reached for malformed values
  };
  EXPECT_EXIT(parse("--x=2,5"), ::testing::ExitedWithCode(2), "numeric");
  EXPECT_EXIT(parse("--x=abc"), ::testing::ExitedWithCode(2), "numeric");
  EXPECT_EXIT(parse("--x=2.5e"), ::testing::ExitedWithCode(2), "numeric");
  EXPECT_EXIT(parse("--x="), ::testing::ExitedWithCode(2), "numeric");
  EXPECT_EXIT(parse("--x=1.5"), ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(parse("--x=+1.5"), ::testing::ExitedWithCode(0), "");
}

TEST(LocaleDeterminism, CommaDecimalLocaleRoundTrips) {
  // Under a comma-decimal LC_NUMERIC, strtod("2.5") stops at the dot and
  // printf("%g") emits "2,5" — which is how figure JSON written on one
  // machine failed to parse on another. Every parse/format path now uses
  // locale-independent from_chars/to_chars; this test pins that by
  // running the full round trip with the comma locale active.
  const char* candidates[] = {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                              "fr_FR.utf8",  "nl_NL.UTF-8"};
  const char* saved = std::setlocale(LC_ALL, nullptr);
  const std::string restore = saved ? saved : "C";
  const char* active = nullptr;
  for (const char* name : candidates) {
    if (std::setlocale(LC_ALL, name) != nullptr) {
      active = name;
      break;
    }
  }
  if (active == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  // Confirm the locale really uses a comma before trusting the test.
  char probe[32];
  std::snprintf(probe, sizeof probe, "%.1f", 2.5);
  if (std::string(probe) != "2,5") {
    std::setlocale(LC_ALL, restore.c_str());
    GTEST_SKIP() << active << " does not use comma decimals here";
  }

  Time t = 0;
  EXPECT_TRUE(parse_duration("2.5us", &t));
  EXPECT_EQ(t, 2'500'000u);

  Bandwidth bw;
  EXPECT_TRUE(parse_bandwidth("0.5Gbps", &bw));
  EXPECT_DOUBLE_EQ(bw.bits_per_sec, 5e8);
  EXPECT_EQ(canonical_bandwidth(Bandwidth::gbps(0.5)), "500Mbps");
  EXPECT_EQ(canonical_bandwidth(Bandwidth(1.5)), "1.5bps");  // dot, not comma

  const char* argv[] = {"prog", "--x=2.5"};
  Cli cli(2, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 2.5);

  // JSON numbers: parse and re-serialize with the comma locale active.
  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(obs::json_parse("{\"lat\": 2.5e-3}", &v, &error)) << error;
  const obs::JsonValue* lat = v.find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->as_double(), 2.5e-3);

  std::setlocale(LC_ALL, restore.c_str());
}

}  // namespace
}  // namespace rvma
