#include "core/point_key.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/evaluation.hpp"
#include "core/flat_map.hpp"
#include "core/param_space.hpp"
#include "core/rng.hpp"
#include "core/types.hpp"

namespace harmony {
namespace {

ParamSpace fig6_space() {
  ParamSpace space;
  space.add(Parameter::Integer("negrid", 4, 16));
  space.add(Parameter::Integer("ntheta", 10, 32, 2));
  space.add(Parameter::Integer("nodes", 1, 64));
  return space;
}

ParamSpace mixed_space() {
  ParamSpace space;
  space.add(Parameter::Integer("blocks", 8, 64, 8));
  space.add(Parameter::Real("relax", 0.1, 1.9));
  space.add(Parameter::Enum("pc", {"jacobi", "bjacobi", "asm", "ilu"}));
  return space;
}

/// The tentpole invariant: PointKey equality classes match ParamSpace::key
/// equality classes exactly, pair by pair, and equal keys share the hash.
void expect_equivalence(const ParamSpace& space, const std::vector<Config>& configs) {
  std::vector<PointKey> keys;
  std::vector<std::string> strings;
  keys.reserve(configs.size());
  strings.reserve(configs.size());
  for (const auto& c : configs) {
    keys.emplace_back(space, c);
    strings.push_back(space.key(c));
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    for (std::size_t j = i; j < configs.size(); ++j) {
      const bool point_eq = keys[i] == keys[j];
      const bool string_eq = strings[i] == strings[j];
      EXPECT_EQ(point_eq, string_eq)
          << "configs " << i << " ('" << strings[i] << "') and " << j << " ('"
          << strings[j] << "') disagree";
      if (point_eq) {
        EXPECT_EQ(keys[i].hash(), keys[j].hash());
      }
    }
  }
}

TEST(PointKey, MatchesStringKeyOnIntegerLattice) {
  const auto space = fig6_space();
  Rng rng(7);
  std::vector<Config> configs;
  for (int i = 0; i < 60; ++i) configs.push_back(space.random_config(rng));
  // Duplicates on purpose: same lattice point, same key both ways.
  configs.push_back(configs.front());
  expect_equivalence(space, configs);
}

TEST(PointKey, MatchesStringKeyOnMixedSpaceWithSnappedReals) {
  const auto space = mixed_space();
  Rng rng(11);
  std::vector<Config> configs;
  for (int i = 0; i < 40; ++i) configs.push_back(space.random_config(rng));
  // Snapped points: arbitrary continuous coordinates (including out-of-range
  // ones, which snap() repairs by clamping) go through the same lattice
  // equality classes as their string keys.
  for (int i = 0; i < 40; ++i) {
    const std::vector<double> coords = {rng.uniform(-10.0, 100.0),
                                        rng.uniform(-5.0, 5.0),
                                        rng.uniform(-2.0, 9.0)};
    configs.push_back(space.snap(coords));
  }
  expect_equivalence(space, configs);
}

TEST(PointKey, RealCanonicalizationFollowsSixDigitRendering) {
  ParamSpace space;
  space.add(Parameter::Real("x", 0.0, 10.0));

  // Differ only past the 6th significant digit: same "%g" rendering, so the
  // string keys collide — the PointKeys must collide identically.
  const Config a{{Value{1.2345678}}};
  const Config b{{Value{1.23456779}}};
  ASSERT_EQ(space.key(a), space.key(b));
  EXPECT_EQ(PointKey(space, a), PointKey(space, b));

  // Differ within 6 significant digits: distinct both ways.
  const Config c{{Value{1.2345}}};
  const Config d{{Value{1.2346}}};
  ASSERT_NE(space.key(c), space.key(d));
  EXPECT_FALSE(PointKey(space, c) == PointKey(space, d));

  // -0.0 renders "-0" versus "0": distinct string keys, distinct PointKeys.
  const Config zp{{Value{0.0}}};
  const Config zn{{Value{-0.0}}};
  ASSERT_NE(space.key(zp), space.key(zn));
  EXPECT_FALSE(PointKey(space, zp) == PointKey(space, zn));
}

TEST(PointKey, OutOfRangeRepairSharesKeyWithClampedValue) {
  const auto space = fig6_space();
  // Coordinates far outside the lattice are clamped by snap(): the repaired
  // config must key identically (string and index space) to the edge point.
  const Config repaired = space.snap({-100.0, 1e6, 3.0});
  const Config edge{{Value{std::int64_t{4}}, Value{std::int64_t{32}},
                     Value{std::int64_t{4}}}};
  ASSERT_EQ(space.key(repaired), space.key(edge));
  EXPECT_EQ(PointKey(space, repaired), PointKey(space, edge));
}

TEST(PointKey, EnumSlotsAreChoiceIndices) {
  ParamSpace space;
  space.add(Parameter::Enum("pc", {"jacobi", "bjacobi", "asm"}));
  const PointKey k(space, Config{{Value{std::string("bjacobi")}}});
  ASSERT_EQ(k.size(), 1u);
  EXPECT_EQ(k.slot(0), 1u);
  EXPECT_THROW(PointKey(space, Config{{Value{std::string("none")}}}),
               std::invalid_argument);
}

TEST(PointKey, DimensionMismatchThrows) {
  const auto space = fig6_space();
  EXPECT_THROW(PointKey(space, Config{{Value{std::int64_t{4}}}}),
               std::invalid_argument);
}

TEST(PointKey, CopyMoveAndScratchReuse) {
  const auto space = mixed_space();
  Rng rng(3);
  const Config c1 = space.random_config(rng);
  const Config c2 = space.random_config(rng);

  PointKey scratch;
  EXPECT_TRUE(scratch.empty());
  scratch.assign(space, c1);
  const PointKey k1 = scratch;  // deep copy
  scratch.assign(space, c2);    // reuse does not disturb the copy
  EXPECT_EQ(k1, PointKey(space, c1));
  EXPECT_EQ(scratch, PointKey(space, c2));

  PointKey moved = std::move(scratch);
  EXPECT_EQ(moved, PointKey(space, c2));
  // NOLINTNEXTLINE(bugprone-use-after-move): moved-from keys reset to empty
  EXPECT_TRUE(scratch.empty());
  scratch.assign(space, c1);  // and stay reusable
  EXPECT_EQ(scratch, k1);
}

TEST(PointKey, HeapSpillBeyondInlineSlots) {
  ParamSpace space;
  for (int i = 0; i < 10; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    space.add(Parameter::Integer(name, 0, 99));
  }
  ASSERT_GT(space.dim(), PointKey::kInlineSlots);
  Rng rng(17);
  std::vector<Config> configs;
  for (int i = 0; i < 20; ++i) configs.push_back(space.random_config(rng));
  configs.push_back(configs[0]);
  expect_equivalence(space, configs);

  // Spilled keys still deep-copy and survive the source's reuse.
  PointKey scratch(space, configs[0]);
  const PointKey copy = scratch;
  scratch.assign(space, configs[1]);
  EXPECT_EQ(copy, PointKey(space, configs[0]));
}

// ---------------------------------------------------------------------------
// FlatPointMap (the flat table under EvalCache and the pool backend)

ParamSpace flat_cache_space() {
  ParamSpace space;
  space.add(Parameter::Integer("a", 0, 4095));
  space.add(Parameter::Integer("b", 0, 4095));
  return space;
}

Config int2(std::int64_t a, std::int64_t b) {
  return Config{{Value{a}, Value{b}}};
}

TEST(FlatCacheMap, InsertFindAcrossGrowth) {
  const auto space = flat_cache_space();
  FlatPointMap<int> map;
  EXPECT_TRUE(map.empty());
  // Enough entries to force several growth rehashes from the 16-slot start.
  for (std::int64_t i = 0; i < 500; ++i) {
    map.insert_or_assign(PointKey(space, int2(i, i * 7 % 4096)), static_cast<int>(i));
  }
  EXPECT_EQ(map.size(), 500u);
  for (std::int64_t i = 0; i < 500; ++i) {
    const int* v = map.find(PointKey(space, int2(i, i * 7 % 4096)));
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, static_cast<int>(i));
  }
  EXPECT_EQ(map.find(PointKey(space, int2(1000, 0))), nullptr);
}

TEST(FlatCacheMap, TryEmplaceAndOverwrite) {
  const auto space = flat_cache_space();
  FlatPointMap<int> map;
  const PointKey k(space, int2(1, 2));
  auto [v1, inserted1] = map.try_emplace(k);
  EXPECT_TRUE(inserted1);
  *v1 = 42;
  auto [v2, inserted2] = map.try_emplace(k);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 42);
  map.insert_or_assign(k, 7);
  EXPECT_EQ(*map.find(k), 7);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatCacheMap, ClearKeepsTableUsable) {
  const auto space = flat_cache_space();
  FlatPointMap<int> map;
  for (std::int64_t i = 0; i < 50; ++i) {
    map.insert_or_assign(PointKey(space, int2(i, 0)), 1);
  }
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(PointKey(space, int2(3, 0))), nullptr);
  map.insert_or_assign(PointKey(space, int2(3, 0)), 9);
  EXPECT_EQ(*map.find(PointKey(space, int2(3, 0))), 9);
}

TEST(FlatCacheMap, ForEachVisitsEveryEntry) {
  const auto space = flat_cache_space();
  FlatPointMap<int> map;
  for (std::int64_t i = 0; i < 20; ++i) {
    map.insert_or_assign(PointKey(space, int2(i, i)), static_cast<int>(i));
  }
  std::set<int> seen;
  map.for_each([&](const PointKey& k, const int& v) {
    EXPECT_FALSE(k.empty());
    seen.insert(v);
  });
  EXPECT_EQ(seen.size(), 20u);
}

// ---------------------------------------------------------------------------
// Hot-path pieces riding on the key switch

TEST(HotPathEvalCache, PointKeyOverloadsCountHitsAndMisses) {
  const auto space = flat_cache_space();
  EvalCache cache(space);
  PointKey k(space, int2(10, 20));

  EXPECT_EQ(cache.lookup(k), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EvaluationResult r;
  r.objective = 2.5;
  cache.store(k, r);
  const EvaluationResult* hit = cache.lookup(k);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->objective, 2.5);
  EXPECT_EQ(cache.hits(), 1u);

  // The Config overloads share the same table and counters.
  const auto via_config = cache.lookup(int2(10, 20));
  ASSERT_TRUE(via_config.has_value());
  EXPECT_DOUBLE_EQ(via_config->objective, 2.5);
  EXPECT_EQ(cache.hits(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(HotPathMetricMap, MapSemanticsOnFlatStorage) {
  MetricMap m;
  EXPECT_TRUE(m.empty());
  m["warmup_s"] = 0.5;
  m["comm_s"] = 0.25;
  m["warmup_s"] = 0.75;  // overwrite, no duplicate
  EXPECT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.at("warmup_s"), 0.75);
  EXPECT_EQ(m.count("comm_s"), 1u);
  EXPECT_EQ(m.count("absent"), 0u);
  EXPECT_THROW(static_cast<void>(m.at("absent")), std::out_of_range);

  // Iteration is sorted by name (deterministic CSV/report ordering).
  std::vector<std::string> names;
  for (const auto& [k, v] : m) names.push_back(k);
  EXPECT_EQ(names, (std::vector<std::string>{"comm_s", "warmup_s"}));

  MetricMap other;
  other["comm_s"] = 0.25;
  other["warmup_s"] = 0.75;
  EXPECT_TRUE(m == other);
  other["comm_s"] = 0.3;
  EXPECT_FALSE(m == other);
}

TEST(HotPathValueRender, AppendOverloadMatchesToString) {
  const std::vector<Value> values = {
      Value{std::int64_t{42}},     Value{std::int64_t{-7}},
      Value{3.14159265},           Value{-0.0},
      Value{1.0e-9},               Value{123456789.0},
      Value{std::string("asm")},
  };
  std::string buf = "prefix:";
  for (const auto& v : values) {
    const std::string expect = to_string(v);
    std::string alone;
    to_string(v, alone);
    EXPECT_EQ(alone, expect);
    buf += alone;
  }
  EXPECT_TRUE(buf.rfind("prefix:", 0) == 0);
}

}  // namespace
}  // namespace harmony
