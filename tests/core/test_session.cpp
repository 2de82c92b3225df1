#include "core/session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/random_search.hpp"

namespace {

using harmony::Parameter;
using harmony::RandomSearch;
using harmony::Session;

TEST(Session, FetchWritesBoundVariables) {
  Session session("app");
  std::int64_t buf = -1;
  double alpha = -1;
  std::string mode = "unset";
  session.add_int("buf", 1, 64, 1, &buf);
  session.add_real("alpha", 0.0, 1.0, &alpha);
  session.add_enum("mode", {"a", "b"}, &mode);
  ASSERT_TRUE(session.fetch());
  EXPECT_GE(buf, 1);
  EXPECT_LE(buf, 64);
  EXPECT_GE(alpha, 0.0);
  EXPECT_LE(alpha, 1.0);
  EXPECT_TRUE(mode == "a" || mode == "b");
  session.report(1.0);
}

TEST(Session, TypedAccessorsMatchBindings) {
  Session session("app");
  std::int64_t buf = 0;
  const auto h = session.add_int("buf", 1, 8, 1, &buf);
  ASSERT_TRUE(session.fetch());
  EXPECT_EQ(session.get_int(h), buf);
  session.report(1.0);
}

TEST(Session, TuningLoopConvergesOnQuadratic) {
  Session session("app");
  std::int64_t x = 0;
  session.add_int("x", 0, 200, 1, &x);
  int rounds = 0;
  while (session.fetch() && rounds < 500) {
    const double cost = static_cast<double>((x - 77) * (x - 77));
    session.report(cost);
    ++rounds;
  }
  ASSERT_TRUE(session.best().has_value());
  const auto best_x = std::get<std::int64_t>(session.best()->values[0]);
  EXPECT_NEAR(static_cast<double>(best_x), 77.0, 3.0);
  // After convergence the bound variable holds the best value.
  EXPECT_EQ(x, best_x);
}

TEST(Session, MinimalInstrumentationFootprint) {
  // The paper quotes ~10 lines to make a PETSc example tunable; this test is
  // that pattern end to end: declare, loop, done.
  Session session("petsc-sles");
  std::int64_t boundary = 0;
  session.add_int("boundary", 1, 99, 1, &boundary);
  while (session.fetch()) {
    session.report(std::abs(static_cast<double>(boundary) - 42.0));
  }
  EXPECT_NEAR(static_cast<double>(std::get<std::int64_t>(session.best()->values[0])),
              42.0, 2.0);
}

TEST(Session, FetchBeforeAddThrows) {
  Session session("app");
  EXPECT_THROW((void)session.fetch(), std::logic_error);
}

TEST(Session, AddAfterFetchThrows) {
  Session session("app");
  session.add_int("x", 0, 10);
  ASSERT_TRUE(session.fetch());
  EXPECT_THROW(session.add_int("y", 0, 10), std::logic_error);
  session.report(1.0);
}

TEST(Session, DoubleFetchWithoutReportThrows) {
  Session session("app");
  session.add_int("x", 0, 10);
  ASSERT_TRUE(session.fetch());
  EXPECT_THROW((void)session.fetch(), std::logic_error);
}

TEST(Session, ReportWithoutFetchThrows) {
  Session session("app");
  session.add_int("x", 0, 10);
  EXPECT_THROW(session.report(1.0), std::logic_error);
}

TEST(Session, CurrentBeforeFetchThrows) {
  Session session("app");
  session.add_int("x", 0, 10);
  EXPECT_THROW((void)session.current(), std::logic_error);
}

TEST(Session, CustomStrategyFactory) {
  Session session("app");
  session.add_int("x", 0, 20);
  session.set_strategy([](const harmony::ParamSpace& space) {
    return std::make_unique<RandomSearch>(space, 5, 9);
  });
  int fetches = 0;
  while (session.fetch()) {
    session.report(1.0);
    ++fetches;
  }
  EXPECT_EQ(fetches, 5);
}

TEST(Session, SetStrategyAfterFetchThrows) {
  Session session("app");
  session.add_int("x", 0, 10);
  ASSERT_TRUE(session.fetch());
  EXPECT_THROW(
      session.set_strategy([](const harmony::ParamSpace& space) {
        return std::make_unique<RandomSearch>(space, 5);
      }),
      std::logic_error);
  session.report(1.0);
}

TEST(Session, FetchCountAndAppName) {
  Session session("gs2");
  session.add_int("x", 0, 3);
  EXPECT_EQ(session.app_name(), "gs2");
  ASSERT_TRUE(session.fetch());
  session.report(2.0);
  ASSERT_TRUE(session.fetch());
  session.report(1.0);
  EXPECT_EQ(session.fetches(), 2);
}

// Session reports the controller's incumbent: nothing before a valid
// report, then the first configuration with the lowest reported value, which
// the bound variable holds once tuning ends.
TEST(Session, BestIsTheControllerIncumbent) {
  Session session("app");
  std::int64_t x = -1;
  session.add_int("x", 0, 20, 1, &x);
  session.set_strategy([](const harmony::ParamSpace& space) {
    return std::make_unique<RandomSearch>(space, 6, 3);
  });
  ASSERT_TRUE(session.fetch());
  EXPECT_FALSE(session.best().has_value());
  EXPECT_TRUE(std::isinf(session.best_performance()));
  session.report(std::numeric_limits<double>::quiet_NaN());  // invalid
  EXPECT_FALSE(session.best().has_value());
  EXPECT_TRUE(std::isinf(session.best_performance()));

  const std::vector<double> values = {4.0, 2.0, 3.0, 2.0, 5.0};
  std::int64_t want = -1;
  for (const double v : values) {
    ASSERT_TRUE(session.fetch());
    if (v == 2.0 && want < 0) want = x;
    session.report(v);
  }
  EXPECT_FALSE(session.fetch());
  ASSERT_TRUE(session.best().has_value());
  EXPECT_EQ(std::get<std::int64_t>(session.best()->values[0]), want);
  EXPECT_EQ(session.best_performance(), 2.0);
  EXPECT_EQ(x, want);
}

}  // namespace
