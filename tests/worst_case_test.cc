// Appendix D, Theorem 8: every valid quadrant specification is realized by
// some execution history — verified by replaying the constructed history
// through both the from-definition and the incremental matrix builders.

#include "matrix/worst_case.h"

#include <gtest/gtest.h>

#include "cc/conflict_serializability.h"
#include "common/format.h"
#include "matrix/f_matrix.h"

namespace bcc {
namespace {

void ExpectRealizes(const QuadrantSpec& spec) {
  auto realized = RealizeQuadrant(spec);
  ASSERT_TRUE(realized.ok()) << realized.status();
  ASSERT_TRUE(realized->history.Validate().ok());
  EXPECT_TRUE(realized->history.IsSerial());

  const FMatrix c = FMatrixFromDefinition(realized->history, realized->commit_cycles,
                                          spec.num_objects);
  const uint32_t h = spec.half();
  for (uint32_t i = 0; i < h; ++i) {
    for (uint32_t j = 0; j < h; ++j) {
      EXPECT_EQ(c.At(i, j), spec.At(i, j))
          << "entry (" << i << "," << j << ") of\n"
          << realized->history.ToString();
    }
  }

  // The incremental builder agrees (commits replayed in history order).
  FMatrix incremental(spec.num_objects);
  const History& hist = realized->history;
  for (TxnId t : hist.CommittedUpdateTxns()) {
    incremental.ApplyCommit(hist.Txn(t).read_set, hist.Txn(t).write_set,
                            realized->commit_cycles.at(t));
  }
  EXPECT_TRUE(incremental == c);
}

TEST(WorstCaseTest, PaperStyleSpecWithMaxDiagonals) {
  // The counting argument's regime: every diagonal at max_cycles - 1.
  QuadrantSpec spec;
  spec.num_objects = 7;  // half = 3
  spec.entries = {
      9, 4, 7,  //
      0, 9, 2,  //
      5, 9, 9,  //
  };
  ExpectRealizes(spec);
}

TEST(WorstCaseTest, ZeroColumnMeansInitialValues) {
  QuadrantSpec spec;
  spec.num_objects = 7;
  spec.entries = {
      5, 0, 3,  //
      0, 0, 0,  //
      2, 0, 6,  //
  };
  ExpectRealizes(spec);
}

TEST(WorstCaseTest, RejectsColumnDominanceViolation) {
  QuadrantSpec spec;
  spec.num_objects = 5;  // half = 2
  spec.entries = {
      3, 5,  //
      1, 4,  // spec(0,1) = 5 > spec(1,1) = 4
  };
  EXPECT_TRUE(RealizeQuadrant(spec).status().IsInvalidArgument());
}

TEST(WorstCaseTest, RejectsRowDominanceViolation) {
  QuadrantSpec spec;
  spec.num_objects = 5;
  spec.entries = {
      3, 4,  // spec(0,1) = 4 > spec(0,0) = 3
      1, 9,  //
  };
  EXPECT_TRUE(RealizeQuadrant(spec).status().IsInvalidArgument());
}

TEST(WorstCaseTest, RejectsEvenOrTinyDatabases) {
  QuadrantSpec spec;
  spec.num_objects = 6;
  spec.entries.assign(4, 0);
  EXPECT_TRUE(RealizeQuadrant(spec).status().IsInvalidArgument());
  spec.num_objects = 1;
  spec.entries.clear();
  EXPECT_TRUE(RealizeQuadrant(spec).status().IsInvalidArgument());
}

TEST(WorstCaseTest, RealizedHistoriesAreConflictSerializable) {
  Rng rng(41);
  const QuadrantSpec spec = RandomQuadrantSpec(9, 12, &rng);
  auto realized = RealizeQuadrant(spec);
  ASSERT_TRUE(realized.ok());
  EXPECT_TRUE(IsConflictSerializable(realized->history));
}

struct RandomCase {
  uint32_t num_objects;
  Cycle max_cycle;
  uint64_t seed;
  int trials;
};

class WorstCasePropertyTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(WorstCasePropertyTest, RandomSpecsRealizeExactly) {
  const RandomCase& tc = GetParam();
  Rng rng(tc.seed);
  for (int trial = 0; trial < tc.trials; ++trial) {
    ExpectRealizes(RandomQuadrantSpec(tc.num_objects, tc.max_cycle, &rng));
  }
}

INSTANTIATE_TEST_SUITE_P(Random, WorstCasePropertyTest,
                         ::testing::Values(RandomCase{5, 6, 1, 50},
                                           RandomCase{7, 10, 2, 50},
                                           RandomCase{9, 4, 3, 30},
                                           RandomCase{13, 20, 4, 20}),
                         [](const ::testing::TestParamInfo<RandomCase>& info) {
                           // StrFormat, not chained std::string operator+:
                           // gcc 12 at -O3 raises a false -Wrestrict on it.
                           return StrFormat("n%u_s%llu", info.param.num_objects,
                                            static_cast<unsigned long long>(info.param.seed));
                         });

}  // namespace
}  // namespace bcc
