#include "matrix/f_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/format.h"
#include "common/rng.h"
#include "history/history.h"
#include "matrix/control_view.h"
#include "matrix/kernels.h"

namespace bcc {
namespace {

TEST(KernelTest, ReadConditionScanReturnsFirstFailureIndex) {
  // The scan early-exits: with several failing reads it must report the
  // first one in record order, and a passing prefix must not mask it.
  const std::vector<Cycle> column = {0, 9, 9, 0};
  const std::vector<ReadRecord> reads = {{0, 5}, {1, 5}, {2, 5}, {3, 5}};
  EXPECT_EQ(KernelReadConditionScan(column.data(), reads.data(), reads.size()), 1u);
  EXPECT_EQ(KernelReadConditionScan(column.data(), reads.data() + 2, 2), 0u);
}

TEST(KernelTest, ReadConditionScanPassesCleanColumn) {
  const std::vector<Cycle> column = {1, 2, 3};
  const std::vector<ReadRecord> reads = {{0, 5}, {2, 4}};
  EXPECT_EQ(KernelReadConditionScan(column.data(), reads.data(), reads.size()),
            kReadConditionPass);
  EXPECT_EQ(KernelReadConditionScan(column.data(), reads.data(), 0), kReadConditionPass);
}

TEST(KernelTest, ColumnDiffIndicesFindsEveryMismatch) {
  const std::vector<Cycle> a = {1, 2, 3, 4, 5};
  const std::vector<Cycle> b = {1, 9, 3, 9, 5};
  std::vector<ObjectId> out(a.size());
  const uint32_t count =
      KernelColumnDiffIndices(a.data(), b.data(), static_cast<uint32_t>(a.size()), out.data());
  ASSERT_EQ(count, 2u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 3u);
}

TEST(FMatrixTest, StartsAllZero) {
  FMatrix c(4);
  for (ObjectId i = 0; i < 4; ++i) {
    for (ObjectId j = 0; j < 4; ++j) EXPECT_EQ(c.At(i, j), 0u);
  }
}

TEST(FMatrixTest, PaperExample4) {
  // w1(ob1) w1(ob2) c1  r2(ob1) w2(ob1) c2  r3(ob2) w3(ob2) c3, commit of
  // t_i in cycle i. Paper: C(1,1)=2, C(2,2)=3, C(1,2)=1, C(2,1)=1.
  // (Objects are 0-indexed here: ob1 -> 0, ob2 -> 1.)
  FMatrix c(2);
  const ObjectId ob1 = 0, ob2 = 1;
  c.ApplyCommit(/*read_set=*/{}, /*write_set=*/std::vector<ObjectId>{ob1, ob2}, /*cycle=*/1);
  c.ApplyCommit(std::vector<ObjectId>{ob1}, std::vector<ObjectId>{ob1}, 2);
  c.ApplyCommit(std::vector<ObjectId>{ob2}, std::vector<ObjectId>{ob2}, 3);
  EXPECT_EQ(c.At(ob1, ob1), 2u);
  EXPECT_EQ(c.At(ob2, ob2), 3u);
  EXPECT_EQ(c.At(ob1, ob2), 1u);
  EXPECT_EQ(c.At(ob2, ob1), 1u);
}

TEST(FMatrixTest, WriterWithEmptyReadSetResetsDependencies) {
  FMatrix c(3);
  c.ApplyCommit({}, std::vector<ObjectId>{0, 1}, 1);
  EXPECT_EQ(c.At(0, 1), 1u);
  // Blind write to ob1 at cycle 5: new value of ob1 depends on nothing.
  c.ApplyCommit({}, std::vector<ObjectId>{1}, 5);
  EXPECT_EQ(c.At(1, 1), 5u);
  EXPECT_EQ(c.At(0, 1), 0u);  // dependency on ob0 gone
  EXPECT_EQ(c.At(0, 0), 1u);  // ob0's column untouched
}

TEST(FMatrixTest, DependenciesPropagateThroughReads) {
  FMatrix c(3);
  c.ApplyCommit({}, std::vector<ObjectId>{0}, 1);  // t1 writes ob0
  // t2 reads ob0, writes ob1 at cycle 3: ob1 now depends on ob0's writer.
  c.ApplyCommit(std::vector<ObjectId>{0}, std::vector<ObjectId>{1}, 3);
  EXPECT_EQ(c.At(0, 1), 1u);
  EXPECT_EQ(c.At(1, 1), 3u);
  // t3 reads ob1, writes ob2 at cycle 7: transitive dependency on ob0.
  c.ApplyCommit(std::vector<ObjectId>{1}, std::vector<ObjectId>{2}, 7);
  EXPECT_EQ(c.At(0, 2), 1u);
  EXPECT_EQ(c.At(1, 2), 3u);
  EXPECT_EQ(c.At(2, 2), 7u);
}

TEST(FMatrixTest, ReadOnlyCommitChangesNothing) {
  FMatrix c(2);
  c.ApplyCommit({}, std::vector<ObjectId>{0}, 1);
  const FMatrix before = c;
  c.ApplyCommit(std::vector<ObjectId>{0, 1}, {}, 2);
  EXPECT_TRUE(before == c);
}

TEST(FMatrixTest, ColumnSpanMatchesEntries) {
  FMatrix c(3);
  c.ApplyCommit(std::vector<ObjectId>{1}, std::vector<ObjectId>{0, 2}, 4);
  const auto col = c.Column(2);
  ASSERT_EQ(col.size(), 3u);
  for (ObjectId i = 0; i < 3; ++i) EXPECT_EQ(col[i], c.At(i, 2));
}

TEST(FMatrixTest, ReadConditionUsesColumnOfTargetObject) {
  FMatrix c(2);
  c.ApplyCommit({}, std::vector<ObjectId>{0, 1}, 3);  // both written in cycle 3
  // Client read ob0 in cycle 4 (after the write committed): reading ob1 now
  // is fine (C(0,1)=3 < 4).
  const std::vector<ReadRecord> reads_ok{{0, 4}};
  EXPECT_EQ(ControlView(c).ReadConditionScan(reads_ok, 1), kReadConditionPass);
  // Client read ob0 in cycle 2 (before): C(0,1)=3 >= 2 -> reject.
  const std::vector<ReadRecord> reads_bad{{0, 2}};
  EXPECT_EQ(ControlView(c).ReadConditionScan(reads_bad, 1), 0u);
}

TEST(FMatrixTest, ReadConditionVacuousOnFirstRead) {
  FMatrix c(2);
  c.ApplyCommit({}, std::vector<ObjectId>{0, 1}, 9);
  EXPECT_EQ(ControlView(c).ReadConditionScan({}, 0), kReadConditionPass);
}

TEST(FMatrixTest, SelfWriteSetsDiagonalAndCrossEntries) {
  FMatrix c(3);
  c.ApplyCommit(std::vector<ObjectId>{2}, std::vector<ObjectId>{0, 1}, 6);
  // Both written objects cross-depend at cycle 6.
  EXPECT_EQ(c.At(0, 0), 6u);
  EXPECT_EQ(c.At(1, 1), 6u);
  EXPECT_EQ(c.At(0, 1), 6u);
  EXPECT_EQ(c.At(1, 0), 6u);
  // Reading from ob2 (written by t0 at cycle 0) contributes nothing.
  EXPECT_EQ(c.At(2, 0), 0u);
}

TEST(FMatrixTest, DirtyTrackingRecordsExactlyWrittenColumns) {
  FMatrix c(5);
  c.EnableDirtyTracking();
  EXPECT_TRUE(c.dirty_tracking_enabled());
  EXPECT_TRUE(c.touched_columns().empty());

  c.ApplyCommit(std::vector<ObjectId>{0}, std::vector<ObjectId>{1, 3}, 2);
  c.ApplyCommit({}, std::vector<ObjectId>{3, 4}, 3);
  c.ApplyCommit(std::vector<ObjectId>{2}, {}, 4);  // read-only: no columns

  // Each touched column once, in first-touch order.
  const std::vector<ObjectId> expect = {1, 3, 4};
  EXPECT_EQ(std::vector<ObjectId>(c.touched_columns().begin(), c.touched_columns().end()),
            expect);

  EXPECT_EQ(c.TakeTouchedColumns(), expect);
  EXPECT_TRUE(c.touched_columns().empty());

  // The drain resets membership: the same columns register again.
  c.ApplyCommit({}, std::vector<ObjectId>{3}, 5);
  EXPECT_EQ(c.TakeTouchedColumns(), std::vector<ObjectId>{3});
}

TEST(FMatrixTest, DirtyTrackingCoversEveryChangedEntry) {
  // Soundness of the column-granular dirty list: every entry that differs
  // across a batch of commits lies in a recorded column.
  Rng rng(77);
  FMatrix c(8);
  c.EnableDirtyTracking();
  Cycle cycle = 1;
  for (int step = 0; step < 40; ++step, ++cycle) {
    FMatrix before = c;
    const uint32_t commits = static_cast<uint32_t>(rng.NextBounded(3));
    for (uint32_t t = 0; t < commits; ++t) {
      const auto reads = rng.SampleWithoutReplacement(8, static_cast<uint32_t>(rng.NextBounded(3)));
      const auto writes =
          rng.SampleWithoutReplacement(8, 1 + static_cast<uint32_t>(rng.NextBounded(3)));
      c.ApplyCommit(reads, writes, cycle);
    }
    const std::vector<ObjectId> touched = c.TakeTouchedColumns();
    for (ObjectId j = 0; j < 8; ++j) {
      bool col_changed = false;
      for (ObjectId i = 0; i < 8; ++i) col_changed |= before.At(i, j) != c.At(i, j);
      if (col_changed) {
        EXPECT_TRUE(std::find(touched.begin(), touched.end(), j) != touched.end())
            << "changed column " << j << " missing from the dirty list at step " << step;
      }
    }
  }
}

// Theorem 2: incremental maintenance equals the from-definition matrix
// after every commit, on randomized serial update workloads.
struct Theorem2Case {
  uint32_t num_objects;
  uint32_t num_txns;
  uint32_t max_ops;
  uint64_t seed;
};

class FMatrixTheorem2Test : public ::testing::TestWithParam<Theorem2Case> {};

TEST_P(FMatrixTheorem2Test, IncrementalMatchesDefinition) {
  const Theorem2Case& tc = GetParam();
  Rng rng(tc.seed);
  FMatrix incremental(tc.num_objects);
  History history;
  std::unordered_map<TxnId, Cycle> commit_cycles;
  Cycle cycle = 1;
  for (TxnId t = 1; t <= tc.num_txns; ++t) {
    const uint32_t nr = static_cast<uint32_t>(
        rng.NextBounded(std::min(tc.max_ops, tc.num_objects) + 1));
    const uint32_t nw = 1 + static_cast<uint32_t>(
                                rng.NextBounded(std::min(tc.max_ops, tc.num_objects)));
    const auto reads = rng.SampleWithoutReplacement(tc.num_objects, nr);
    const auto writes = rng.SampleWithoutReplacement(tc.num_objects, nw);
    for (ObjectId ob : reads) history.AppendRead(t, ob);
    for (ObjectId ob : writes) history.AppendWrite(t, ob);
    history.AppendCommit(t);
    commit_cycles[t] = cycle;

    incremental.ApplyCommit(reads, writes, cycle);
    const FMatrix from_def = FMatrixFromDefinition(history, commit_cycles, tc.num_objects);
    ASSERT_TRUE(incremental == from_def)
        << "diverged after txn " << t << " in " << history.ToString();

    if (rng.NextBernoulli(0.5)) ++cycle;  // several commits may share a cycle
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, FMatrixTheorem2Test,
    ::testing::Values(Theorem2Case{3, 12, 2, 1}, Theorem2Case{5, 20, 3, 2},
                      Theorem2Case{8, 30, 4, 3}, Theorem2Case{2, 15, 2, 4},
                      Theorem2Case{10, 25, 5, 5}, Theorem2Case{6, 40, 3, 6}),
    [](const ::testing::TestParamInfo<Theorem2Case>& info) {
      // StrFormat, not chained std::string operator+: gcc 12 at -O2/-O3
      // raises a false -Wrestrict on "literal" + std::string.
      return StrFormat("n%u_t%u_s%llu", info.param.num_objects, info.param.num_txns,
                       static_cast<unsigned long long>(info.param.seed));
    });

}  // namespace
}  // namespace bcc
