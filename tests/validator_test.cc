#include "server/validator.h"

#include <gtest/gtest.h>

#include "cc/conflict_serializability.h"

namespace bcc {
namespace {

class ValidatorTest : public ::testing::Test {
 protected:
  ValidatorTest() : mgr_(4, [] {
                      TxnManagerOptions o;
                      o.record_history = true;
                      return o;
                    }()),
                    validator_(&mgr_) {}

  ServerTxnManager mgr_;
  UpdateValidator validator_;
};

TEST_F(ValidatorTest, FreshReadsCommit) {
  // Server writes ob0 in cycle 2; client reads it at cycle 3 (current) and
  // writes ob1.
  mgr_.ExecuteAndCommit(ServerTxn{1, {}, {0}}, 2);
  ClientUpdateRequest req;
  req.id = 100;
  req.reads = {{0, 3}};
  req.writes = {1};
  auto result = validator_.ValidateAndCommit(req, /*current_cycle=*/3);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, 3u);
  EXPECT_EQ(mgr_.store().Committed(1).writer, 100u);
  EXPECT_EQ(validator_.num_validated(), 1u);
}

TEST_F(ValidatorTest, StaleReadRejected) {
  // Client read ob0 at cycle 1, but the server wrote it at cycle 2.
  mgr_.ExecuteAndCommit(ServerTxn{1, {}, {0}}, 2);
  ClientUpdateRequest req;
  req.id = 100;
  req.reads = {{0, 1}};
  req.writes = {1};
  auto result = validator_.ValidateAndCommit(req, 3);
  EXPECT_TRUE(result.status().IsAborted());
  EXPECT_EQ(mgr_.store().Committed(1).writer, kInitTxn);  // nothing installed
  EXPECT_EQ(validator_.num_rejected(), 1u);
}

TEST_F(ValidatorTest, BlindWriteAlwaysCommits) {
  ClientUpdateRequest req;
  req.id = 100;
  req.writes = {2};
  EXPECT_TRUE(validator_.ValidateAndCommit(req, 1).ok());
}

TEST_F(ValidatorTest, ReadExactlyAtWriteCycleIsStale) {
  // A write committing in cycle c is NOT visible to a read tagged cycle c
  // (the read saw the beginning-of-cycle state), so validation must reject.
  mgr_.ExecuteAndCommit(ServerTxn{1, {}, {0}}, 5);
  ClientUpdateRequest req;
  req.id = 100;
  req.reads = {{0, 5}};
  req.writes = {1};
  EXPECT_TRUE(validator_.ValidateAndCommit(req, 5).status().IsAborted());
}

TEST_F(ValidatorTest, CommittedClientTxnsKeepUpdateHistorySerializable) {
  mgr_.ExecuteAndCommit(ServerTxn{1, {}, {0}}, 1);
  ClientUpdateRequest a;
  a.id = 100;
  a.reads = {{0, 2}};
  a.writes = {1};
  ASSERT_TRUE(validator_.ValidateAndCommit(a, 2).ok());
  mgr_.ExecuteAndCommit(ServerTxn{2, {1}, {2}}, 3);
  ClientUpdateRequest b;
  b.id = 101;
  b.reads = {{2, 4}, {0, 4}};
  b.writes = {3};
  ASSERT_TRUE(validator_.ValidateAndCommit(b, 4).ok());
  EXPECT_TRUE(IsConflictSerializable(mgr_.recorded_history()));
}

TEST_F(ValidatorTest, RejectionLeavesMatricesUntouched) {
  mgr_.ExecuteAndCommit(ServerTxn{1, {}, {0}}, 2);
  const Cycle mc_before = mgr_.store().Committed(1).cycle;
  ClientUpdateRequest req;
  req.id = 100;
  req.reads = {{0, 1}};  // stale
  req.writes = {1};
  ASSERT_TRUE(validator_.ValidateAndCommit(req, 3).status().IsAborted());
  EXPECT_EQ(mgr_.store().Committed(1).cycle, mc_before);
  EXPECT_EQ(mgr_.num_committed(), 1u);
}

}  // namespace
}  // namespace bcc
