/// \file test_prometheus.cpp
/// Prometheus text exposition rendering (MetricsRegistry::write_prometheus).
/// The METRICS protocol verb serves exactly this output (plus a trailing
/// "# EOF" framing line added by the server), so these tests pin down the
/// exposition-format contract: counters get a _total suffix, histograms a
/// cumulative _bucket/_sum/_count family, names are sanitized and sorted.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace obs = harmony::obs;

namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(Prometheus, CounterRendersWithTotalSuffix) {
  obs::MetricsRegistry reg;
  reg.counter("server.roundtrips").add(3);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# TYPE ah_server_roundtrips_total counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ah_server_roundtrips_total 3\n"), std::string::npos);
}

TEST(Prometheus, GaugeRendersPlainName) {
  obs::MetricsRegistry reg;
  reg.gauge("sa.temperature").set(0.5);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# TYPE ah_sa_temperature gauge\n"), std::string::npos);
  EXPECT_NE(text.find("ah_sa_temperature 0.5\n"), std::string::npos);
}

TEST(Prometheus, HistogramFamilyIsCumulativeAndConsistent) {
  obs::MetricsRegistry reg;
  auto& h = reg.hdr("short_run_s");
  h.record(0.125);
  h.record(0.125);
  h.record(2.0);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# TYPE ah_short_run_s histogram\n"), std::string::npos);
  EXPECT_NE(text.find("ah_short_run_s_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("ah_short_run_s_sum 2.25\n"), std::string::npos);
  EXPECT_NE(text.find("ah_short_run_s_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);

  // Bucket counts must be cumulative (non-decreasing) and end at count().
  std::uint64_t prev = 0;
  std::uint64_t last = 0;
  int buckets = 0;
  for (const auto& line : lines_of(text)) {
    const auto pos = line.find("_bucket{le=\"");
    if (pos == std::string::npos) continue;
    ++buckets;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos);
    last = std::stoull(line.substr(space + 1));
    EXPECT_GE(last, prev) << line;
    prev = last;
  }
  EXPECT_GE(buckets, 2) << text;  // 0.125 and 2.0 land in distinct buckets
  EXPECT_EQ(last, 3u);            // +Inf bucket covers everything

  // The le bound of the bucket a value lands in is >= the value itself, and
  // tight within one of the octave's 64 sub-buckets.
  const double ub =
      obs::HdrHistogram::bucket_upper(obs::HdrHistogram::bucket_index(2.0));
  EXPECT_GE(ub, 2.0);
  EXPECT_LE(ub - 2.0, 2.0 / 64.0);
}

TEST(Prometheus, NamesAreSanitizedAndPrefixed) {
  obs::MetricsRegistry reg;
  reg.counter("a.b-c").add(1);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("ah_a_b_c_total 1\n"), std::string::npos) << text;
  // The raw dotted name may appear in HELP comments but never in a sample or
  // TYPE line (metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*).
  for (const auto& line : lines_of(text)) {
    if (line.rfind("# HELP ", 0) == 0) continue;
    EXPECT_EQ(line.find("a.b-c"), std::string::npos) << line;
  }
}

TEST(Prometheus, OutputIsSortedByMetricName) {
  obs::MetricsRegistry reg;
  reg.counter("zeta").add(1);
  reg.gauge("alpha").set(1.0);
  reg.hdr("mid").record(1.0);
  const std::string text = reg.to_prometheus();
  const auto a = text.find("ah_alpha");
  const auto m = text.find("ah_mid");
  const auto z = text.find("ah_zeta");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
}

TEST(Prometheus, EveryLineIsCommentOrSample) {
  obs::MetricsRegistry reg;
  reg.counter("c").add(2);
  reg.gauge("g").set(-1.25);
  reg.hdr("h").record(1e-3);
  reg.hdr("q").record(2e-3);
  for (const auto& line : lines_of(reg.to_prometheus())) {
    if (line.rfind("# TYPE ah_", 0) == 0) continue;
    if (line.rfind("# HELP ah_", 0) == 0) continue;
    // Sample line: "ah_<name>[{labels}] <value>".
    ASSERT_EQ(line.rfind("ah_", 0), 0u) << line;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
  }
}

TEST(Prometheus, EveryFamilyHasHelpAndTypeBeforeSamples) {
  // Exposition-format conformance: each family's samples are preceded by a
  // "# HELP <family> ..." and a "# TYPE <family> <kind>" line, in that order,
  // and no family is announced twice. Parsed line by line, as a scraper would.
  obs::MetricsRegistry reg;
  reg.counter("server.roundtrips").add(2);
  reg.gauge("pool.size").set(8);
  reg.hdr("short_run_s").record(0.25);
  reg.hdr("server.verb.report_s").record(1e-3);

  std::string current_family;  // family announced by the last HELP/TYPE pair
  bool have_help = false;
  std::vector<std::string> announced;
  for (const auto& line : lines_of(reg.to_prometheus())) {
    std::istringstream in(line);
    if (line.rfind("# HELP ", 0) == 0) {
      std::string hash;
      std::string kw;
      std::string family;
      in >> hash >> kw >> family;
      for (const auto& prev : announced) EXPECT_NE(prev, family) << line;
      announced.push_back(family);
      current_family = family;
      have_help = true;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      std::string hash;
      std::string kw;
      std::string family;
      std::string kind;
      in >> hash >> kw >> family >> kind;
      EXPECT_TRUE(have_help) << line;
      EXPECT_EQ(family, current_family) << "TYPE without matching HELP: " << line;
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
          << line;
      continue;
    }
    // A sample must belong to the most recently announced family (histogram
    // families append _bucket/_sum/_count to the family name).
    ASSERT_FALSE(current_family.empty()) << "sample before any HELP: " << line;
    EXPECT_EQ(line.rfind(current_family, 0), 0u) << line;
  }
  EXPECT_EQ(announced.size(), 6u);  // 4 metrics + 2 hdr quantile families
}

TEST(Prometheus, LabelValuesAreEscapedPerSpec) {
  EXPECT_EQ(obs::prometheus_escape("plain"), "plain");
  EXPECT_EQ(obs::prometheus_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(obs::prometheus_escape("quo\"te"), "quo\\\"te");
  EXPECT_EQ(obs::prometheus_escape("new\nline"), "new\\nline");
  EXPECT_EQ(obs::prometheus_escape("\\\"\n"), "\\\\\\\"\\n");
}

TEST(Prometheus, HostileMetricNameDoesNotBreakHelpLine) {
  // A (pathological) dotted name with a backslash and newline must not smear
  // the HELP comment across multiple lines or leave a raw backslash.
  obs::MetricsRegistry reg;
  reg.counter("weird\\name\nx").add(1);
  for (const auto& line : lines_of(reg.to_prometheus())) {
    if (line.rfind("# HELP ", 0) != 0) continue;
    EXPECT_NE(line.find("weird\\\\name\\nx"), std::string::npos) << line;
  }
}

TEST(Prometheus, HdrFamilyRendersCumulativeBucketsAndQuantiles) {
  obs::MetricsRegistry reg;
  auto& h = reg.hdr("req_s");
  for (int i = 0; i < 98; ++i) h.record(1e-3);
  h.record(10e-3);
  h.record(10e-3);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# TYPE ah_req_s histogram\n"), std::string::npos) << text;
  EXPECT_NE(text.find("ah_req_s_bucket{le=\"+Inf\"} 100\n"), std::string::npos);
  EXPECT_NE(text.find("ah_req_s_count 100\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ah_req_s_quantile gauge\n"), std::string::npos);

  // Cumulative, non-decreasing, ending at count().
  std::uint64_t prev = 0;
  std::uint64_t last = 0;
  for (const auto& line : lines_of(text)) {
    if (line.find("_bucket{le=\"") == std::string::npos) continue;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos);
    last = std::stoull(line.substr(space + 1));
    EXPECT_GE(last, prev) << line;
    prev = last;
  }
  EXPECT_EQ(last, 100u);

  // The quantile gauges reflect the distribution: p50 near 1ms, p99+ sees
  // the 10ms outlier within the ~1.6% bucket error.
  std::size_t n_quantiles = 0;
  for (const auto& line : lines_of(text)) {
    const auto pos = line.find("ah_req_s_quantile{quantile=\"");
    if (pos != 0) continue;
    ++n_quantiles;
    const double v = std::stod(line.substr(line.rfind(' ') + 1));
    if (line.find("\"0.5\"") != std::string::npos) {
      EXPECT_NEAR(v, 1e-3, 2e-5) << line;
    } else if (line.find("\"0.99\"") != std::string::npos) {
      EXPECT_NEAR(v, 10e-3, 2e-4) << line;
    }
  }
  EXPECT_EQ(n_quantiles, 3u);
}

TEST(Prometheus, RendererAddsNoFramingMarker) {
  // The "# EOF" terminator is protocol framing added by the server's METRICS
  // handler, not part of the exposition itself.
  obs::MetricsRegistry reg;
  reg.counter("c").add(1);
  EXPECT_EQ(reg.to_prometheus().find("# EOF"), std::string::npos);
}

TEST(Prometheus, EmptyRegistryRendersEmpty) {
  const obs::MetricsRegistry reg;
  EXPECT_TRUE(reg.to_prometheus().empty());
}

}  // namespace
