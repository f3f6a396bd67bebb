// Cross-validation of the optimized (unit-propagating) polygraph search
// against brute-force enumeration of every arm choice, on random polygraphs.

#include <gtest/gtest.h>

#include "common/format.h"
#include "common/rng.h"
#include "graph/polygraph.h"

namespace bcc {
namespace {

// Ground truth: try all 2^|B| arm subsets.
bool BruteForceAcyclic(const Digraph& base, const std::vector<Polygraph::Bipath>& bipaths) {
  const size_t n = bipaths.size();
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    Digraph candidate = base;
    for (size_t i = 0; i < n; ++i) {
      const Polygraph::Arc& arm = (mask >> i) & 1 ? bipaths[i].second : bipaths[i].first;
      candidate.AddEdge(arm.first, arm.second);
    }
    if (!candidate.HasCycle()) return true;
  }
  return n == 0 && !base.HasCycle();
}

struct FuzzCase {
  uint32_t nodes;
  uint32_t arcs;
  uint32_t bipaths;
  uint64_t seed;
  int trials;
};

class PolygraphFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(PolygraphFuzzTest, SearchMatchesBruteForce) {
  const FuzzCase& tc = GetParam();
  Rng rng(tc.seed);
  int acyclic_count = 0;
  for (int trial = 0; trial < tc.trials; ++trial) {
    Polygraph p;
    Digraph base;
    std::vector<Polygraph::Bipath> bipaths;
    for (uint32_t i = 0; i < tc.nodes; ++i) {
      p.AddNode(i);
      base.AddNode(i);
    }
    auto random_node = [&] { return static_cast<uint32_t>(rng.NextBounded(tc.nodes)); };
    for (uint32_t a = 0; a < tc.arcs; ++a) {
      const uint32_t u = random_node(), v = random_node();
      if (u == v) continue;
      p.AddArc(u, v);
      base.AddEdge(u, v);
    }
    for (uint32_t b = 0; b < tc.bipaths; ++b) {
      // Arbitrary arcs are fine for the solver: the Definition 4 shape is a
      // property of paper-generated polygraphs, not a solver requirement.
      Polygraph::Arc first{random_node(), random_node()};
      Polygraph::Arc second{random_node(), random_node()};
      p.AddBipath(first, second);
      bipaths.push_back({first, second});
    }
    const bool expected = BruteForceAcyclic(base, bipaths);
    EXPECT_EQ(p.IsAcyclic(), expected) << "trial " << trial;
    acyclic_count += expected;
    // A witness, when produced, must satisfy every bipath and every arc.
    if (auto order = p.FindAcyclicOrder()) {
      auto pos = [&](uint32_t k) {
        return std::find(order->begin(), order->end(), k) - order->begin();
      };
      for (uint32_t u = 0; u < tc.nodes; ++u) {
        for (uint32_t v : base.Successors(u)) EXPECT_LT(pos(u), pos(v));
      }
      for (const auto& bp : bipaths) {
        const bool first_ok =
            bp.first.first == bp.first.second ? false : pos(bp.first.first) < pos(bp.first.second);
        const bool second_ok = bp.second.first == bp.second.second
                                   ? false
                                   : pos(bp.second.first) < pos(bp.second.second);
        EXPECT_TRUE(first_ok || second_ok);
      }
    }
  }
  // The generator must exercise both outcomes.
  EXPECT_GT(acyclic_count, 0);
  EXPECT_LT(acyclic_count, tc.trials);
}

INSTANTIATE_TEST_SUITE_P(Random, PolygraphFuzzTest,
                         ::testing::Values(FuzzCase{4, 3, 3, 101, 300},
                                           FuzzCase{5, 4, 5, 102, 200},
                                           FuzzCase{6, 6, 6, 103, 150},
                                           FuzzCase{3, 2, 8, 104, 150},
                                           FuzzCase{7, 8, 4, 105, 150}),
                         [](const ::testing::TestParamInfo<FuzzCase>& info) {
                           // StrFormat, not chained std::string operator+:
                           // gcc 12 at -O3 raises a false -Wrestrict on it.
                           return StrFormat("n%ub%us%llu", info.param.nodes, info.param.bipaths,
                                            static_cast<unsigned long long>(info.param.seed));
                         });

}  // namespace
}  // namespace bcc
