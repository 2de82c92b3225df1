// The petsc substrate pinned bitwise: run() results for fixed boundary
// triples of the Fig. 2(a) dense-block matrix, recorded as hex-float
// literals. Any change to the block-Jacobi factor, the CG solve, analyze()
// or simulate_sles that moves an objective by one ulp, or turns a feasible
// partition infeasible (or the reverse), fails here. A threaded run over the
// same triples and a longer seeded walk must equal the serial one: pool
// workers share one substrate and its block-factor memo.

#include "fleet/substrates.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "minipetsc/pc.hpp"

namespace fleet = harmony::fleet;
using harmony::Config;
using harmony::ShortRunResult;

namespace {

struct Pin {
  int b0;
  int b1;
  int b2;
  bool ok;
  double measured_s;
};

// 24 random sorted triples, 24 near the block-aligned optimum (40, 80, 120),
// 16 crossing or degenerate triples that must stay infeasible, then the
// extremes (one-row blocks).
const std::vector<Pin> kPins{
    {25, 44, 83, true, 0x1.c64de880db26p-11},
    {20, 21, 53, true, 0x1.210fe681bccf8p-10},
    {9, 100, 142, true, 0x1.c81cf82558594p-11},
    {41, 61, 103, true, 0x1.d37570e2587f6p-11},
    {3, 63, 118, true, 0x1.c67fb2b196085p-11},
    {85, 94, 104, true, 0x1.d4971cd5c6639p-11},
    {53, 89, 157, true, 0x1.c79b7be80c181p-11},
    {25, 65, 113, true, 0x1.c4d604dfe4f0ap-11},
    {3, 67, 146, true, 0x1.c820c97d530c9p-11},
    {95, 135, 143, true, 0x1.d5c64e362182cp-11},
    {83, 90, 140, true, 0x1.d698481cfe081p-11},
    {41, 52, 122, true, 0x1.d43082b954d0fp-11},
    {4, 15, 27, true, 0x1.d76b5f12d901cp-11},
    {52, 59, 98, true, 0x1.d3bfba5cf1603p-11},
    {31, 42, 70, true, 0x1.d29948bb8a1bep-11},
    {15, 45, 75, true, 0x1.d3b7c63afc6aap-11},
    {31, 35, 150, true, 0x1.d633453a8a403p-11},
    {36, 126, 147, true, 0x1.d2cd9e7c4175cp-11},
    {64, 86, 111, true, 0x1.d1be8f15b9bbap-11},
    {90, 108, 128, true, 0x1.d3dfb39dc4fddp-11},
    {5, 8, 154, true, 0x1.dc4ecc2f0fd5fp-11},
    {32, 117, 151, true, 0x1.c748213c7fcd7p-11},
    {13, 20, 31, true, 0x1.d72232a73e953p-11},
    {12, 31, 95, true, 0x1.d226c06c2918fp-11},
    {38, 84, 116, true, 0x1.cf40d5f82efd8p-11},
    {39, 75, 123, true, 0x1.c408a7ee0203fp-11},
    {39, 82, 124, true, 0x1.c41444aef1e55p-11},
    {42, 78, 117, true, 0x1.d11dbc7b98fabp-11},
    {41, 81, 123, true, 0x1.c4012df70c64dp-11},
    {45, 79, 122, true, 0x1.cec6aaf8d894p-11},
    {38, 74, 114, true, 0x1.c427fe4ad683bp-11},
    {42, 78, 123, true, 0x1.cefb00b98feddp-11},
    {37, 74, 119, true, 0x1.c46b996b78aacp-11},
    {41, 82, 119, true, 0x1.d11b825d9c122p-11},
    {34, 74, 126, true, 0x1.c4968c893d0bep-11},
    {37, 85, 118, true, 0x1.cf98f651b4a84p-11},
    {37, 85, 120, true, 0x1.c408a7ee0203fp-11},
    {42, 85, 125, true, 0x1.c424a71ddb26dp-11},
    {36, 74, 125, true, 0x1.c461e5568623p-11},
    {38, 80, 123, true, 0x1.c187091bfcaedp-11},
    {40, 81, 115, true, 0x1.ceb57cecf06d2p-11},
    {46, 76, 122, true, 0x1.cf40d5f82efd8p-11},
    {36, 74, 115, true, 0x1.c426e13bd80f6p-11},
    {40, 80, 114, true, 0x1.c3d2180f4dc18p-11},
    {41, 74, 119, true, 0x1.d1ee1f2877b56p-11},
    {36, 80, 123, true, 0x1.c1aa8242cb70cp-11},
    {46, 85, 120, true, 0x1.c416d03eee5cep-11},
    {44, 84, 114, true, 0x1.d18827f00540ap-11},
    {98, 98, 54, false, 0x0p+0},
    {82, 146, 39, false, 0x0p+0},
    {68, 156, 131, false, 0x0p+0},
    {93, 143, 91, false, 0x0p+0},
    {145, 145, 15, false, 0x0p+0},
    {38, 132, 35, false, 0x0p+0},
    {157, 104, 85, false, 0x0p+0},
    {18, 130, 64, false, 0x0p+0},
    {123, 123, 93, false, 0x0p+0},
    {130, 69, 26, false, 0x0p+0},
    {94, 40, 132, false, 0x0p+0},
    {34, 138, 67, false, 0x0p+0},
    {54, 54, 67, false, 0x0p+0},
    {76, 23, 95, false, 0x0p+0},
    {79, 141, 135, false, 0x0p+0},
    {41, 22, 118, false, 0x0p+0},
    {1, 2, 3, true, 0x1.ddf75cf1c2795p-11},
    {1, 80, 159, true, 0x1.c68412910ff5cp-11},
    {157, 158, 159, true, 0x1.ddf75cf1c2795p-11},
};

Config config_of(const Pin& p) {
  Config c;
  for (const int v : {p.b0, p.b1, p.b2}) {
    c.values.emplace_back(static_cast<std::int64_t>(v));
  }
  return c;
}

TEST(PetscSubstrate, RunMatchesPinnedResults) {
  const auto s = fleet::make_substrate("petsc");
  ASSERT_TRUE(s.has_value());
  for (const auto& p : kPins) {
    const ShortRunResult r = s->run(config_of(p), s->steps);
    EXPECT_EQ(r.ok, p.ok) << p.b0 << "," << p.b1 << "," << p.b2;
    EXPECT_EQ(r.measured_s, p.measured_s) << p.b0 << "," << p.b1 << "," << p.b2;
  }
}

// Three threads share one substrate, and so its block-factor memo. Besides
// the pinned triples they walk seeded partitions whose distinct row ranges
// hold several times the memo's byte budget, so evictions race with lookups
// of the same ranges. Serial results come from a second substrate with its
// own memo.
TEST(PetscSubstrate, ConcurrentRunsMatchSerial) {
  const auto s = fleet::make_substrate("petsc");
  const auto fresh = fleet::make_substrate("petsc");
  ASSERT_TRUE(s.has_value() && fresh.has_value());
  std::vector<Config> configs;
  for (const auto& p : kPins) configs.push_back(config_of(p));
  harmony::Rng rng(1202);
  std::set<std::pair<int, int>> ranges;
  std::size_t range_bytes = 0;
  while (configs.size() < kPins.size() + 240) {
    std::set<int> cuts;
    while (cuts.size() < 3) cuts.insert(static_cast<int>(rng.uniform_int(1, 159)));
    const std::vector<int> b(cuts.begin(), cuts.end());
    configs.push_back(config_of({b[0], b[1], b[2], true, 0.0}));
    for (const auto& range : {std::pair{0, b[0]}, std::pair{b[0], b[1]},
                              std::pair{b[1], b[2]}, std::pair{b[2], 160}}) {
      if (ranges.insert(range).second) {
        const auto rows = static_cast<std::size_t>(range.second - range.first);
        range_bytes += rows * rows * sizeof(double);
      }
    }
  }
  ASSERT_GT(range_bytes, 4 * minipetsc::BlockFactorMemo::kBudgetBytes);
  std::vector<ShortRunResult> serial;
  for (const auto& c : configs) serial.push_back(fresh->run(c, fresh->steps));

  constexpr int kThreads = 3;
  std::vector<std::vector<ShortRunResult>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&s, &configs, &out = got[static_cast<std::size_t>(t)], t] {
      // Each thread walks the configurations from a different offset so the
      // same partition is solved on several threads at overlapping times.
      const std::size_t n = configs.size();
      out.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t k = (i + static_cast<std::size_t>(t) * n / kThreads) % n;
        out[k] = s->run(configs[k], s->steps);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < configs.size(); ++k) {
      const auto& r = got[static_cast<std::size_t>(t)][k];
      EXPECT_EQ(r.ok, serial[k].ok) << "thread " << t << " config " << k;
      EXPECT_EQ(r.measured_s, serial[k].measured_s)
          << "thread " << t << " config " << k;
    }
  }
}

}  // namespace
