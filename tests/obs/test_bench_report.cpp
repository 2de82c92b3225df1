#include "obs/bench_report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"

namespace obs = harmony::obs;

namespace {

obs::BenchReport sample_report() {
  obs::BenchReport r;
  r.name = "gate_gs2_sweep";
  r.best_config = "negrid=4 ntheta=10 nodes=11";
  r.best_value = 152.25;
  r.evaluations = 368;
  r.evals_to_best = 117;
  r.wall_s = 0.0625;
  r.speedup = 3.5;
  r.metrics["cache_hits"] = 12;
  r.metrics["search_per_model"] = 1.75;
  return r;
}

}  // namespace

TEST(ObsBenchReport, FilenameConvention) {
  EXPECT_EQ(obs::BenchReport::filename("fig6"), "BENCH_fig6.json");
}

TEST(ObsBenchReport, SchemaHasAllRequiredKeys) {
  const auto doc = obs::json_parse(sample_report().to_json());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->string_or("schema", ""), "ah-bench-report/1");
  for (const char* key : {"name", "best_config"}) {
    const auto* v = doc->find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_TRUE(v->is_string()) << key;
  }
  for (const char* key :
       {"best_value", "evaluations", "evals_to_best", "wall_s", "speedup"}) {
    const auto* v = doc->find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_TRUE(v->is_number()) << key;
  }
  const auto* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->is_object());
}

TEST(ObsBenchReport, RoundTripsThroughParse) {
  const auto original = sample_report();
  const auto parsed = obs::BenchReport::parse(original.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->name, original.name);
  EXPECT_EQ(parsed->best_config, original.best_config);
  EXPECT_DOUBLE_EQ(parsed->best_value, original.best_value);
  EXPECT_EQ(parsed->evaluations, original.evaluations);
  EXPECT_EQ(parsed->evals_to_best, original.evals_to_best);
  EXPECT_DOUBLE_EQ(parsed->wall_s, original.wall_s);
  EXPECT_DOUBLE_EQ(parsed->speedup, original.speedup);
  EXPECT_EQ(parsed->metrics, original.metrics);
}

TEST(ObsBenchReport, ParseRejectsJunk) {
  EXPECT_FALSE(obs::BenchReport::parse("").has_value());
  EXPECT_FALSE(obs::BenchReport::parse("not json").has_value());
  EXPECT_FALSE(obs::BenchReport::parse("{}").has_value());  // wrong schema
  EXPECT_FALSE(
      obs::BenchReport::parse(R"({"schema":"ah-bench-report/1"})").has_value())
      << "a report without a name is useless for gating";
  EXPECT_FALSE(
      obs::BenchReport::parse(R"({"schema":"other/9","name":"x"})").has_value());
}

TEST(ObsBenchReport, WriteFileAndLoadRoundTrip) {
  const auto original = sample_report();
  const std::string dir = ::testing::TempDir();
  const auto path = original.write_file(dir);
  ASSERT_TRUE(path.has_value());
  EXPECT_NE(path->find("BENCH_gate_gs2_sweep.json"), std::string::npos);

  const auto loaded = obs::BenchReport::load(*path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->name, original.name);
  EXPECT_EQ(loaded->metrics, original.metrics);
  std::remove(path->c_str());
}

TEST(ObsBenchReport, LoadMissingFileFails) {
  EXPECT_FALSE(obs::BenchReport::load("/nonexistent/BENCH_x.json").has_value());
}

TEST(ObsBenchReport, EscapesConfigStrings) {
  obs::BenchReport r = sample_report();
  r.best_config = "layout=\"lxyes\"";
  const auto parsed = obs::BenchReport::parse(r.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->best_config, "layout=\"lxyes\"");
}
