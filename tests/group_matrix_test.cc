#include "matrix/group_matrix.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "server/txn_manager.h"

namespace bcc {
namespace {

FMatrix RandomMatrix(uint32_t n, uint64_t seed, uint32_t commits = 25) {
  Rng rng(seed);
  FMatrix c(n);
  for (Cycle cycle = 1; cycle <= commits; ++cycle) {
    const auto reads = rng.SampleWithoutReplacement(n, static_cast<uint32_t>(rng.NextBounded(3)));
    const auto writes =
        rng.SampleWithoutReplacement(n, 1 + static_cast<uint32_t>(rng.NextBounded(2)));
    c.ApplyCommit(reads, writes, cycle);
  }
  return c;
}

TEST(ObjectPartitionTest, BlocksAreBalancedAndMonotonic) {
  const ObjectPartition p = ObjectPartition::Blocks(10, 3);
  EXPECT_EQ(p.num_groups(), 3u);
  EXPECT_EQ(p.num_objects(), 10u);
  uint32_t prev = 0;
  std::vector<uint32_t> sizes(3, 0);
  for (ObjectId i = 0; i < 10; ++i) {
    EXPECT_GE(p.GroupOf(i), prev);
    prev = p.GroupOf(i);
    ++sizes[p.GroupOf(i)];
  }
  for (uint32_t s : sizes) {
    EXPECT_GE(s, 3u);
    EXPECT_LE(s, 4u);
  }
}

TEST(ObjectPartitionTest, BlocksClampGroupCount) {
  EXPECT_EQ(ObjectPartition::Blocks(4, 10).num_groups(), 4u);
  EXPECT_EQ(ObjectPartition::Blocks(4, 0).num_groups(), 1u);
}

TEST(ObjectPartitionTest, FromMappingValidates) {
  EXPECT_TRUE(ObjectPartition::FromMapping({0, 1, 0, 1}).ok());
  EXPECT_FALSE(ObjectPartition::FromMapping({0, 2}).ok());  // group 1 empty
  EXPECT_FALSE(ObjectPartition::FromMapping({}).ok());
}

TEST(GroupMatrixTest, EntriesAreColumnMaxima) {
  const FMatrix full = RandomMatrix(6, 21);
  const ObjectPartition p = ObjectPartition::Blocks(6, 2);
  const GroupMatrix gm(p, full);
  for (ObjectId i = 0; i < 6; ++i) {
    for (uint32_t s = 0; s < 2; ++s) {
      Cycle expected = 0;
      for (ObjectId j = 0; j < 6; ++j) {
        if (p.GroupOf(j) == s) expected = std::max(expected, full.At(i, j));
      }
      EXPECT_EQ(gm.At(i, s), expected);
    }
  }
}

TEST(GroupMatrixTest, SingletonGroupsEqualFullMatrix) {
  const uint32_t n = 5;
  const FMatrix full = RandomMatrix(n, 22);
  const GroupMatrix gm(ObjectPartition::Blocks(n, n), full);
  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId j = 0; j < n; ++j) EXPECT_EQ(gm.At(i, gm.partition().GroupOf(j)), full.At(i, j));
  }
}

TEST(GroupMatrixTest, OneGroupEqualsMcVector) {
  // With g = 1, MC(i, db) must equal the reduced vector MC(i): the commit
  // cycle of ob_i's committed value.
  Rng rng(23);
  const uint32_t n = 6;
  ServerTxnManager mgr(n);
  for (Cycle cycle = 1; cycle <= 30; ++cycle) {
    const auto reads = rng.SampleWithoutReplacement(n, static_cast<uint32_t>(rng.NextBounded(3)));
    const auto writes =
        rng.SampleWithoutReplacement(n, 1 + static_cast<uint32_t>(rng.NextBounded(2)));
    mgr.ExecuteAndCommit(ServerTxn{static_cast<TxnId>(cycle), reads, writes}, cycle);
  }
  const GroupMatrix gm(ObjectPartition::Blocks(n, 1), mgr.f_matrix());
  for (ObjectId i = 0; i < n; ++i) EXPECT_EQ(gm.At(i, 0), mgr.store().Committed(i).cycle);
}

TEST(GroupMatrixTest, ReadConditionMonotoneInGroupCount) {
  // Coarser partitions only add conflicts: if g-group accepts is false for a
  // fine partition it must be false for every coarser one... precisely:
  // fine-partition acceptance is implied by coarse acceptance (entries only
  // shrink as g grows).
  Rng rng(29);
  const uint32_t n = 8;
  const FMatrix full = RandomMatrix(n, 24, 40);
  const GroupMatrix fine(ObjectPartition::Blocks(n, 8), full);
  const GroupMatrix mid(ObjectPartition::Blocks(n, 4), full);
  const GroupMatrix coarse(ObjectPartition::Blocks(n, 1), full);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<ReadRecord> reads;
    for (uint32_t k = 0; k < 1 + rng.NextBounded(3); ++k) {
      reads.push_back(
          {static_cast<ObjectId>(rng.NextBounded(n)), 1 + rng.NextBounded(30)});
    }
    const ObjectId target = static_cast<ObjectId>(rng.NextBounded(n));
    const bool coarse_ok = coarse.ReadCondition(reads, target);
    const bool mid_ok = mid.ReadCondition(reads, target);
    const bool fine_ok = fine.ReadCondition(reads, target);
    if (coarse_ok) {
      EXPECT_TRUE(mid_ok);
    }
    if (mid_ok) {
      EXPECT_TRUE(fine_ok);
    }
  }
}

TEST(GroupMatrixTest, FinestPartitionMatchesFMatrixCondition) {
  Rng rng(31);
  const uint32_t n = 7;
  const FMatrix full = RandomMatrix(n, 25, 40);
  const GroupMatrix gm(ObjectPartition::Blocks(n, n), full);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<ReadRecord> reads;
    for (uint32_t k = 0; k < 1 + rng.NextBounded(3); ++k) {
      reads.push_back({static_cast<ObjectId>(rng.NextBounded(n)), 1 + rng.NextBounded(30)});
    }
    const ObjectId target = static_cast<ObjectId>(rng.NextBounded(n));
    EXPECT_EQ(gm.ReadCondition(reads, target), full.ReadCondition(reads, target));
  }
}

}  // namespace
}  // namespace bcc
