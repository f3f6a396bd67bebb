// HierMatrix safety and policy: the hierarchical view must be conservative
// with respect to the exact matrix on EVERY decision (aborts may be
// spurious, accepts never are), maintenance must keep the embedded exact
// matrix bit-identical to a dense oracle, and the refine/coarsen/regroup
// policy must move precision toward conflict hot spots without ever
// changing state mid-cycle.

#include "matrix/hier_matrix.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "matrix/control_view.h"
#include "matrix/f_matrix.h"
#include "matrix/kernels.h"

namespace bcc {
namespace {

constexpr uint32_t kSeeds = 25;

std::vector<ObjectId> RandomSet(Rng& rng, uint32_t n, uint32_t max_size) {
  const uint32_t k = static_cast<uint32_t>(rng.NextBounded(max_size + 1));
  return rng.SampleWithoutReplacement(n, k);
}

TEST(HierMatrixTest, ExactMirrorsDenseOracle) {
  for (uint32_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed + 1);
    const uint32_t n = 16 + static_cast<uint32_t>(rng.NextBounded(17));
    HierMatrix hier(n, {.initial_groups = 4});
    FMatrix dense(n);
    for (Cycle cycle = 1; cycle <= 40; ++cycle) {
      const std::vector<ObjectId> rs = RandomSet(rng, n, 4);
      std::vector<ObjectId> ws;
      while (ws.empty()) ws = RandomSet(rng, n, 4);
      hier.ApplyCommit(rs, ws, cycle);
      dense.ApplyCommit(rs, ws, cycle);
    }
    ASSERT_TRUE(ControlView(hier.exact()) == ControlView(dense)) << "seed " << seed;
  }
}

TEST(HierMatrixTest, EffectiveViewIsConservative) {
  for (uint32_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(100 + seed);
    const uint32_t n = 24;
    HierMatrix hier(n, {.initial_groups = 6, .regroup_period = 8});
    for (Cycle cycle = 1; cycle <= 30; ++cycle) {
      const std::vector<ObjectId> rs = RandomSet(rng, n, 4);
      std::vector<ObjectId> ws;
      while (ws.empty()) ws = RandomSet(rng, n, 4);
      hier.ApplyCommit(rs, ws, cycle);
      // MC(i, group(j)) >= C(i, j) always, refined or not.
      for (ObjectId i = 0; i < n; ++i) {
        for (ObjectId j = 0; j < n; ++j) {
          ASSERT_GE(hier.EffectiveAt(i, j), hier.exact().At(i, j))
              << "seed " << seed << " cycle " << cycle;
        }
      }
      hier.EndOfCycle(cycle, hier.stats().spurious_aborts);
    }
  }
}

TEST(HierMatrixTest, AcceptsAreNeverFalseAbortsOnlySpurious) {
  for (uint32_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(200 + seed);
    const uint32_t n = 20;
    HierMatrix hier(n, {.initial_groups = 5, .coarsen_idle_cycles = 6, .regroup_period = 4});
    uint64_t control_aborts = 0;
    for (Cycle cycle = 1; cycle <= 50; ++cycle) {
      const std::vector<ObjectId> rs = RandomSet(rng, n, 4);
      std::vector<ObjectId> ws;
      while (ws.empty()) ws = RandomSet(rng, n, 4);
      hier.ApplyCommit(rs, ws, cycle);
      for (int t = 0; t < 6; ++t) {
        std::vector<ReadRecord> reads;
        for (ObjectId ob : RandomSet(rng, n, 4)) {
          reads.push_back({ob, cycle - rng.NextBounded(std::min<uint64_t>(cycle, 5))});
        }
        const ObjectId j = static_cast<ObjectId>(rng.NextBounded(n));
        const bool hier_ok = hier.ReadCondition(reads, j, cycle);
        const bool exact_ok =
            ControlView(hier.exact()).ReadConditionScan(reads, j) == kReadConditionPass;
        if (hier_ok) {
          // A hierarchical accept must be an exact accept (safety).
          ASSERT_TRUE(exact_ok) << "seed " << seed << " cycle " << cycle;
        } else {
          ++control_aborts;
        }
      }
      hier.EndOfCycle(cycle, control_aborts);
    }
  }
}

TEST(HierMatrixTest, SpuriousAbortRefinesColumnNextCycle) {
  const uint32_t n = 16;
  HierMatrix hier(n, {.initial_groups = 2, .coarsen_idle_cycles = 0, .regroup_period = 0});
  // Commit touching object 0 only; objects 0..7 share group 0.
  hier.ApplyCommit({}, std::vector<ObjectId>{0}, 5);
  // Reading object 1 (same group as 0) with a read of object 0 at cycle 3:
  // MC(0, group) = 5 >= 3 fires, but exact C(0, 1) = 0 < 3 passes.
  const std::vector<ReadRecord> reads = {{0, 3}};
  EXPECT_FALSE(hier.ReadCondition(reads, 1, 5));
  EXPECT_EQ(hier.stats().spurious_aborts, 1u);
  EXPECT_FALSE(hier.Refined(1));

  hier.EndOfCycle(5, 1);
  EXPECT_TRUE(hier.Refined(1));
  EXPECT_EQ(hier.stats().refinements, 1u);
  // The refined column validates exactly: the same read now passes.
  EXPECT_TRUE(hier.ReadCondition(reads, 1, 6));
  // The genuinely conflicting column still aborts.
  EXPECT_FALSE(hier.ReadCondition(reads, 0, 6));
}

TEST(HierMatrixTest, IdleRefinedColumnsCoarsen) {
  const uint32_t n = 8;
  HierMatrix hier(n, {.initial_groups = 2, .coarsen_idle_cycles = 3, .regroup_period = 0});
  hier.ApplyCommit({}, std::vector<ObjectId>{0}, 2);
  const std::vector<ReadRecord> reads = {{0, 1}};
  EXPECT_FALSE(hier.ReadCondition(reads, 1, 2));  // spurious
  hier.EndOfCycle(2, 1);
  ASSERT_TRUE(hier.Refined(1));

  // Touch it at cycle 3, then leave it idle: coarsens once 3 idle cycles pass.
  EXPECT_TRUE(hier.ReadCondition(reads, 1, 3));
  hier.EndOfCycle(3, 1);
  hier.EndOfCycle(4, 1);
  hier.EndOfCycle(5, 1);
  EXPECT_TRUE(hier.Refined(1));
  hier.EndOfCycle(6, 1);
  EXPECT_FALSE(hier.Refined(1));
  EXPECT_EQ(hier.stats().coarsenings, 1u);
}

TEST(HierMatrixTest, RefineLimitBoundsRefinedColumns) {
  const uint32_t n = 32;
  HierMatrix hier(n, {.initial_groups = 1,
                      .refine_limit = 2,
                      .coarsen_idle_cycles = 0,
                      .regroup_period = 0});
  hier.ApplyCommit({}, std::vector<ObjectId>{0}, 4);
  const std::vector<ReadRecord> reads = {{0, 2}};
  for (ObjectId j = 1; j <= 6; ++j) EXPECT_FALSE(hier.ReadCondition(reads, j, 4));
  hier.EndOfCycle(4, 6);
  EXPECT_EQ(hier.refined_columns(), 2u);
}

TEST(HierMatrixTest, AdaptiveSplitConcentratesOnHotGroup) {
  const uint32_t n = 32;
  HierMatrix hier(n, {.initial_groups = 2,
                      .max_groups = 8,
                      .refine_limit = 1,  // starve refinement so spurious repeats
                      .coarsen_idle_cycles = 0,
                      .regroup_period = 2,
                      .split_threshold = 3});
  const uint32_t groups_before = hier.num_groups();
  uint32_t peak_groups = groups_before;
  uint64_t aborts = 0;
  for (Cycle cycle = 1; cycle <= 10; ++cycle) {
    hier.ApplyCommit({}, std::vector<ObjectId>{0}, cycle);
    // Hammer unrelated columns of group 0 with reads of object 0: every
    // abort is spurious and charges group 0.
    const std::vector<ReadRecord> reads = {{0, 1}};
    for (ObjectId j = 2; j <= 9; ++j) {
      if (!hier.ReadCondition(reads, j, cycle)) ++aborts;
    }
    hier.EndOfCycle(cycle, aborts);
    peak_groups = std::max(peak_groups, hier.num_groups());
  }
  // The hot group splits; quiet halves may later merge back, so the growth
  // shows in the peak, not necessarily the final count.
  EXPECT_GT(peak_groups, groups_before);
  EXPECT_GT(hier.stats().group_splits, 0u);
  EXPECT_GT(hier.stats().regroups, 0u);
}

TEST(HierMatrixTest, QuietGroupsMergeDownToMinGroups) {
  const uint32_t n = 16;
  HierMatrix hier(n, {.initial_groups = 8, .min_groups = 2, .regroup_period = 1});
  // Conflict-free commits, but real control aborts elsewhere keep the
  // adaptive pass engaged (the gate requires the breakdown to advance).
  uint64_t aborts = 0;
  for (Cycle cycle = 1; cycle <= 12; ++cycle) {
    hier.ApplyCommit({}, std::vector<ObjectId>{static_cast<ObjectId>(cycle % n)}, cycle);
    hier.EndOfCycle(cycle, ++aborts);
  }
  EXPECT_EQ(hier.num_groups(), 2u);
  EXPECT_GT(hier.stats().group_merges, 0u);
}

TEST(HierMatrixTest, RegroupGateHoldsPartitionWithoutAborts) {
  const uint32_t n = 16;
  HierMatrix hier(n, {.initial_groups = 8, .min_groups = 1, .regroup_period = 1});
  for (Cycle cycle = 1; cycle <= 12; ++cycle) {
    hier.ApplyCommit({}, std::vector<ObjectId>{static_cast<ObjectId>(cycle % n)}, cycle);
    hier.EndOfCycle(cycle, /*control_conflict_aborts=*/0);
  }
  EXPECT_EQ(hier.num_groups(), 8u);
  EXPECT_EQ(hier.stats().regroups, 0u);
}

TEST(HierMatrixTest, ControlBitsCoverGroupsRefinedColumnsAndMapping) {
  const uint32_t n = 16;
  HierMatrix hier(n, {.initial_groups = 4, .regroup_period = 0});
  const uint64_t empty_bits = hier.ControlBits(8);
  EXPECT_EQ(empty_bits, 32u);  // all group columns empty, nothing refined

  hier.ApplyCommit({}, std::vector<ObjectId>{0, 5}, 3);
  const uint64_t after_commit = hier.ControlBits(8);
  EXPECT_GT(after_commit, empty_bits);

  // Refining a column adds its exact entries plus a mapping update.
  const std::vector<ReadRecord> reads = {{0, 2}};
  EXPECT_FALSE(hier.ReadCondition(reads, 1, 3));
  hier.EndOfCycle(3, 1);
  ASSERT_TRUE(hier.Refined(1));
  EXPECT_GT(hier.ControlBits(8), 32u);
}

TEST(HierMatrixTest, EffectiveAtTracksRefinement) {
  const uint32_t n = 8;
  HierMatrix hier(n, {.initial_groups = 1, .regroup_period = 0});
  hier.ApplyCommit({}, std::vector<ObjectId>{3}, 4);
  // Unrefined: every column sees the group aggregate.
  EXPECT_EQ(hier.EffectiveAt(3, 0), 4u);
  EXPECT_EQ(hier.exact().At(3, 0), 0u);
  const std::vector<ReadRecord> reads = {{3, 2}};
  EXPECT_FALSE(hier.ReadCondition(reads, 0, 4));
  hier.EndOfCycle(4, 1);
  EXPECT_EQ(hier.EffectiveAt(3, 0), 0u);  // refined -> exact
  EXPECT_EQ(hier.EffectiveAt(3, 3), 4u);
}

}  // namespace
}  // namespace bcc
