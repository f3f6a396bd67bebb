#include "server/txn_manager.h"

#include <gtest/gtest.h>

#include "cc/conflict_serializability.h"
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
  EXPECT_EQ(mgr.mc_vector().At(0), 1u);
  EXPECT_EQ(mgr.mc_vector().At(1), 3u);
  EXPECT_EQ(mgr.f_matrix().At(0, 1), 1u);  // ob1 depends on ob0's writer
  EXPECT_EQ(mgr.f_matrix().At(1, 1), 3u);
}

TEST(ServerTxnManagerTest, OptionsDisableStructures) {
  TxnManagerOptions options;
  options.maintain_f_matrix = false;
  ServerTxnManager mgr(3, options);
  mgr.ExecuteAndCommit(MakeTxn(1, {}, {0}), 1);
  EXPECT_EQ(mgr.f_matrix().num_objects(), 0u);
  EXPECT_EQ(mgr.mc_vector().At(0), 1u);
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

}  // namespace
}  // namespace bcc
