// The paper's shape claims (§4), asserted on the figures the bench_paper
// registry defines, at full Table 1 parameters and on three seeds fixed
// before any predicate was written. The sweeps come from the registry
// itself, so a figure and its check cannot drift apart.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "paper_figures.h"

namespace bcc::paper {
namespace {

class PaperShapeTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  /// The first sweep of `figure`, run at full size on this test's seed.
  ExperimentResult Run(std::string_view figure_name) {
    const Figure* figure = FindFigure(figure_name);
    EXPECT_NE(figure, nullptr) << figure_name;
    if (figure == nullptr || figure->sweeps == nullptr) return {};
    PaperFlags flags;
    flags.seed = GetParam();
    auto result = RunExperiment(figure->sweeps(flags).front().spec);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *std::move(result) : ExperimentResult{};
  }
};

/// Mean response time of `algorithm` at swept value `x`; fails the test if
/// the sweep lacks either.
double Response(const ExperimentResult& result, Algorithm algorithm, double x) {
  const auto& algorithms = result.spec.algorithms;
  const auto& xs = result.spec.x_values;
  const auto a = std::find(algorithms.begin(), algorithms.end(), algorithm);
  const auto i = std::find(xs.begin(), xs.end(), x);
  EXPECT_TRUE(a != algorithms.end()) << AlgorithmName(algorithm) << " not in the sweep";
  EXPECT_TRUE(i != xs.end()) << "x = " << x << " not in the sweep";
  if (a == algorithms.end() || i == xs.end()) return NAN;
  return result.At(a - algorithms.begin(), i - xs.begin()).mean_response_time;
}

// Predicates 1-3 on Figure 2 (client transaction length).
TEST_P(PaperShapeTest, Figure2CrossoverExplosionAndTracking) {
  const ExperimentResult fig2 = Run("fig2");
  ASSERT_FALSE(fig2.summaries.empty());
  auto f = [&](double len) { return Response(fig2, Algorithm::kFMatrix, len); };
  auto r = [&](double len) { return Response(fig2, Algorithm::kRMatrix, len); };

  // 1. F-Matrix pays its control overhead on short transactions and wins on
  //    long ones: the crossover with R-Matrix lies between lengths 4 and 8.
  EXPECT_GT(f(2), r(2)) << "F-Matrix should trail R-Matrix at length 2";
  EXPECT_GT(f(4), r(4)) << "F-Matrix should trail R-Matrix at length 4";
  EXPECT_LT(f(8), r(8)) << "F-Matrix should beat R-Matrix at length 8";
  EXPECT_LT(f(10), r(10)) << "F-Matrix should beat R-Matrix at length 10";

  // 2. Datacycle explodes: at length 10 it is at least 5x F-Matrix.
  EXPECT_GE(Response(fig2, Algorithm::kDatacycle, 10), 5 * f(10));

  // 3. F-Matrix tracks its control-free ideal: within 1.5x at every length
  //    (the control share alone accounts for 1 / (1 - 0.2266) = 1.29x).
  for (double len : fig2.spec.x_values) {
    EXPECT_LE(f(len), 1.5 * Response(fig2, Algorithm::kFMatrixNo, len)) << "length " << len;
  }
}

// Predicate 4 on Figure 3(a): F-Matrix's rise from server length 2 to 16 is
// the smallest of the practical protocols.
TEST_P(PaperShapeTest, Figure3aFMatrixRisesLeast) {
  const ExperimentResult fig3a = Run("fig3a");
  ASSERT_FALSE(fig3a.summaries.empty());
  auto rise = [&](Algorithm a) { return Response(fig3a, a, 16) / Response(fig3a, a, 2); };
  EXPECT_LT(rise(Algorithm::kFMatrix), rise(Algorithm::kRMatrix));
  EXPECT_LT(rise(Algorithm::kFMatrix), rise(Algorithm::kDatacycle));
}

// Predicate 5 on the §3.2.2 group spectrum: response time is U-shaped in g,
// with its minimum at an interior g and both endpoints at least 5% above it.
TEST_P(PaperShapeTest, GroupSpectrumIsUShaped) {
  const ExperimentResult spectrum = Run("group-spectrum");
  ASSERT_FALSE(spectrum.summaries.empty());
  const std::vector<double>& gs = spectrum.spec.x_values;
  ASSERT_GE(gs.size(), 3u);
  std::vector<double> response;
  for (double g : gs) response.push_back(Response(spectrum, Algorithm::kFMatrix, g));
  const size_t best = std::min_element(response.begin(), response.end()) - response.begin();
  EXPECT_NE(best, 0u) << "minimum at the g = " << gs.front() << " endpoint";
  EXPECT_NE(best, gs.size() - 1) << "minimum at the g = " << gs.back() << " endpoint";
  EXPECT_GE(response.front(), 1.05 * response[best]) << "g = " << gs.front();
  EXPECT_GE(response.back(), 1.05 * response[best]) << "g = " << gs.back();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaperShapeTest, ::testing::Values(42, 43, 44),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Predicate 6: the §4.1 overhead table matches its formulas exactly. Per
// object slot, F-Matrix broadcasts a column of n stamps, R-Matrix and
// Datacycle one stamp, F-Matrix-No nothing; at Table 1 defaults that is the
// paper's 2400 bits (22.66% of the cycle) against 8 bits (0.10%).
TEST(PaperOverheadTest, MatchesSection41Formulas) {
  const SimConfig table1{};
  const uint64_t n = table1.num_objects, ts = table1.timestamp_bits;
  const std::vector<OverheadRow> rows = OverheadTable();
  ASSERT_EQ(rows.size(), std::size(kAllAlgorithms));
  for (const OverheadRow& row : rows) {
    SCOPED_TRACE(std::string(AlgorithmName(row.algorithm)));
    const BroadcastGeometry& g = row.geometry;
    uint64_t control = 0, paper_bits = 0;
    double paper_percent = 0;
    switch (row.algorithm) {
      case Algorithm::kFMatrix:
        control = n * ts;
        paper_bits = 2400;
        paper_percent = 22.66;
        break;
      case Algorithm::kRMatrix:
      case Algorithm::kDatacycle:
        control = ts;
        paper_bits = 8;
        paper_percent = 0.10;
        break;
      case Algorithm::kFMatrixNo:
        break;
    }
    EXPECT_EQ(g.control_bits, control);
    EXPECT_EQ(g.control_bits, paper_bits);
    EXPECT_EQ(g.object_bits, table1.object_size_bits);
    EXPECT_EQ(g.slot_bits, table1.object_size_bits + control);
    EXPECT_EQ(g.cycle_bits, n * g.slot_bits);
    EXPECT_DOUBLE_EQ(g.control_fraction,
                     static_cast<double>(control) / static_cast<double>(g.slot_bits));
    EXPECT_NEAR(100.0 * g.control_fraction, paper_percent, 0.005);
  }
}

}  // namespace
}  // namespace bcc::paper
