// Property tests sweeping the Figure 1 correctness-criteria lattice on
// randomly generated histories.

#include "cc/criteria.h"

#include <gtest/gtest.h>

#include <ostream>

#include "cc/approx.h"
#include "cc/update_consistency.h"
#include "history/random_history.h"

namespace bcc {
namespace {

struct LatticeCase {
  const char* name;
  RandomHistoryOptions options;
  int trials;
};

// Print the case by name: gtest's default byte dump would embed the
// (address-randomised) `name` pointer in the discovered ctest test names.
void PrintTo(const LatticeCase& tc, std::ostream* os) { *os << tc.name; }

class LatticePropertyTest : public ::testing::TestWithParam<LatticeCase> {};

TEST_P(LatticePropertyTest, Figure1ImplicationsHold) {
  const LatticeCase& tc = GetParam();
  Rng rng(0xbcc0 + static_cast<uint64_t>(tc.options.num_objects));
  int legal_count = 0, approx_count = 0;
  for (int i = 0; i < tc.trials; ++i) {
    const History h = GenerateRandomHistory(tc.options, &rng);
    auto report = SweepLattice(h);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->ImplicationsHold())
        << h.ToString() << " -> " << report->ToString();
    legal_count += report->legal;
    approx_count += report->approx_accepted;
  }
  // The generator must exercise both accept and reject paths.
  EXPECT_GT(legal_count, 0) << tc.name;
  EXPECT_LT(approx_count, tc.trials) << tc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LatticePropertyTest,
    ::testing::Values(
        LatticeCase{"small_dense", {.num_objects = 3,
                                    .num_update_txns = 3,
                                    .num_read_only_txns = 2,
                                    .max_reads_per_txn = 2,
                                    .max_writes_per_txn = 2},
                    400},
        LatticeCase{"wider_db", {.num_objects = 8,
                                 .num_update_txns = 4,
                                 .num_read_only_txns = 2,
                                 .max_reads_per_txn = 3,
                                 .max_writes_per_txn = 2},
                    300},
        LatticeCase{"serial_updates", {.num_objects = 4,
                                       .num_update_txns = 4,
                                       .num_read_only_txns = 3,
                                       .max_reads_per_txn = 3,
                                       .max_writes_per_txn = 2,
                                       .serial_updates = true},
                    400},
        LatticeCase{"with_aborts", {.num_objects = 4,
                                    .num_update_txns = 3,
                                    .num_read_only_txns = 2,
                                    .max_reads_per_txn = 2,
                                    .max_writes_per_txn = 2,
                                    .abort_probability = 0.3},
                    300},
        LatticeCase{"many_readers", {.num_objects = 5,
                                     .num_update_txns = 2,
                                     .num_read_only_txns = 5,
                                     .max_reads_per_txn = 4,
                                     .max_writes_per_txn = 2},
                    300}),
    [](const ::testing::TestParamInfo<LatticeCase>& info) { return info.param.name; });

TEST(LatticePropertyTest, SerialUpdatesAlwaysConflictSerializableUpdateSubHistory) {
  // At the broadcast server update transactions run serially; H_update must
  // always pass APPROX condition 1. Rejections can then only come from
  // read-only serialization graphs.
  Rng rng(1234);
  RandomHistoryOptions o;
  o.serial_updates = true;
  o.num_update_txns = 5;
  o.num_read_only_txns = 3;
  for (int i = 0; i < 300; ++i) {
    const History h = GenerateRandomHistory(o, &rng);
    const ApproxResult r = CheckApprox(h);
    if (!r.accepted) {
      EXPECT_EQ(r.reason.find("update sub-history"), std::string::npos)
          << h.ToString();
    }
  }
}

TEST(LatticePropertyTest, ApproxSubsetOfLegalWitnessedStrict) {
  // Theorem 6 says the inclusion is proper; the random sweep should find at
  // least one legal history rejected by APPROX across enough trials.
  Rng rng(555);
  RandomHistoryOptions o;
  o.num_objects = 3;
  o.num_update_txns = 3;
  o.num_read_only_txns = 1;
  o.max_reads_per_txn = 2;
  o.max_writes_per_txn = 2;
  int strict = 0;
  for (int i = 0; i < 2000; ++i) {
    const History h = GenerateRandomHistory(o, &rng);
    auto report = SweepLattice(h);
    ASSERT_TRUE(report.ok());
    if (report->legal && !report->approx_accepted) ++strict;
  }
  EXPECT_GT(strict, 0);
}

TEST(CriterionNameTest, AllNamed) {
  EXPECT_EQ(CriterionName(Criterion::kConflictSerializable), "conflict-serializable");
  EXPECT_EQ(CriterionName(Criterion::kViewSerializable), "view-serializable");
  EXPECT_EQ(CriterionName(Criterion::kApprox), "APPROX");
  EXPECT_EQ(CriterionName(Criterion::kLegal), "legal (update-consistent)");
}

TEST(SatisfiesTest, DispatchesToCheckers) {
  Rng rng(9);
  RandomHistoryOptions o;
  const History h = GenerateRandomHistory(o, &rng);
  for (Criterion c : {Criterion::kConflictSerializable, Criterion::kViewSerializable,
                      Criterion::kApprox, Criterion::kLegal}) {
    EXPECT_TRUE(Satisfies(c, h).ok());
  }
}

}  // namespace
}  // namespace bcc
