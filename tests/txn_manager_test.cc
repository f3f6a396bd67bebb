#include "server/txn_manager.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cc/conflict_serializability.h"
#include "common/rng.h"
#include "matrix/f_matrix.h"

namespace bcc {
namespace {

ServerTxn MakeTxn(TxnId id, std::vector<ObjectId> reads, std::vector<ObjectId> writes) {
  return ServerTxn{id, std::move(reads), std::move(writes)};
}

TEST(ServerTxnManagerTest, CommitInstallsValuesWithCycle) {
  TxnManagerOptions options;
  options.record_history = true;  // commit_cycles() is kept only then
  ServerTxnManager mgr(3, options);
  mgr.ExecuteAndCommit(MakeTxn(1, {}, {0, 2}), /*cycle=*/5);
  EXPECT_EQ(mgr.store().Committed(0).writer, 1u);
  EXPECT_EQ(mgr.store().Committed(0).cycle, 5u);
  EXPECT_EQ(mgr.store().Committed(1).writer, kInitTxn);
  EXPECT_EQ(mgr.num_committed(), 1u);
  EXPECT_EQ(mgr.commit_cycles().at(1), 5u);
}

TEST(ServerTxnManagerTest, ReadsObserveCommittedState) {
  ServerTxnManager mgr(2);
  mgr.ExecuteAndCommit(MakeTxn(1, {}, {0}), 1);
  const auto values = mgr.ExecuteAndCommit(MakeTxn(2, {0, 1}, {1}), 2);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].writer, 1u);         // read t1's write
  EXPECT_EQ(values[1].writer, kInitTxn);   // ob1 untouched until now
}

TEST(ServerTxnManagerTest, MatricesTrackCommits) {
  ServerTxnManager mgr(3);
  mgr.ExecuteAndCommit(MakeTxn(1, {}, {0}), 1);
  mgr.ExecuteAndCommit(MakeTxn(2, {0}, {1}), 3);
  EXPECT_EQ(mgr.store().Committed(0).cycle, 1u);
  EXPECT_EQ(mgr.store().Committed(1).cycle, 3u);
  EXPECT_EQ(mgr.f_matrix().At(0, 1), 1u);  // ob1 depends on ob0's writer
  EXPECT_EQ(mgr.f_matrix().At(1, 1), 3u);
}

TEST(ServerTxnManagerTest, OptionsDisableStructures) {
  TxnManagerOptions options;
  options.maintain_f_matrix = false;
  ServerTxnManager mgr(3, options);
  mgr.ExecuteAndCommit(MakeTxn(1, {}, {0}), 1);
  EXPECT_EQ(mgr.f_matrix().num_objects(), 0u);
  EXPECT_EQ(mgr.store().Committed(0).cycle, 1u);
}

TEST(ServerTxnManagerTest, RecordedHistoryIsSerialAndSerializable) {
  TxnManagerOptions options;
  options.record_history = true;
  ServerTxnManager mgr(3, options);
  mgr.ExecuteAndCommit(MakeTxn(1, {}, {0}), 1);
  mgr.ExecuteAndCommit(MakeTxn(2, {0}, {1}), 2);
  mgr.ExecuteAndCommit(MakeTxn(3, {1}, {2}), 2);
  const History& h = mgr.recorded_history();
  EXPECT_EQ(h.ToString(),
            "w1(ob0) c1 r2(ob0) w2(ob1) c2 r3(ob1) w3(ob2) c3");
  EXPECT_TRUE(IsConflictSerializable(h));
}

TEST(ServerTxnManagerTest, HistoryDisabledByDefault) {
  ServerTxnManager mgr(2);
  mgr.ExecuteAndCommit(MakeTxn(1, {}, {0}), 1);
  EXPECT_TRUE(mgr.recorded_history().empty());
}

TEST(ServerTxnManagerTest, IncrementalMatrixMatchesDefinitionOnRecordedHistory) {
  TxnManagerOptions options;
  options.record_history = true;
  ServerTxnManager mgr(4, options);
  mgr.ExecuteAndCommit(MakeTxn(1, {}, {0, 1}), 1);
  mgr.ExecuteAndCommit(MakeTxn(2, {0}, {2}), 2);
  mgr.ExecuteAndCommit(MakeTxn(3, {2, 1}, {3, 0}), 4);
  const FMatrix from_def =
      FMatrixFromDefinition(mgr.recorded_history(), mgr.commit_cycles(), 4);
  EXPECT_TRUE(mgr.f_matrix() == from_def);
}

// MC(i), the reduced vector R-Matrix and Datacycle broadcast, is the commit
// cycle the store keeps with ob_i's committed value.
TEST(McVectorTest, EqualsMaxColumnOfFullMatrix) {
  // values[i].cycle == max_j C(i, j) after every commit of a random run.
  Rng rng(11);
  const uint32_t n = 6;
  ServerTxnManager mgr(n);
  TxnId id = 1;
  for (Cycle cycle = 1; cycle <= 40; ++cycle) {
    const uint32_t commits = 1 + static_cast<uint32_t>(rng.NextBounded(3));
    for (uint32_t t = 0; t < commits; ++t) {
      mgr.ExecuteAndCommit(
          MakeTxn(id++, rng.SampleWithoutReplacement(n, static_cast<uint32_t>(rng.NextBounded(3))),
                  rng.SampleWithoutReplacement(n, 1 + static_cast<uint32_t>(rng.NextBounded(2)))),
          cycle);
      const FMatrix& c = mgr.f_matrix();
      for (ObjectId i = 0; i < n; ++i) {
        Cycle max_col = 0;
        for (ObjectId j = 0; j < n; ++j) max_col = std::max(max_col, c.At(i, j));
        EXPECT_EQ(mgr.store().Committed(i).cycle, max_col) << "i=" << i << " cycle=" << cycle;
      }
    }
  }
}

}  // namespace
}  // namespace bcc
