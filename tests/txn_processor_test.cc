#include "server/exec/txn_processor.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <string_view>
#include <vector>

#include "cc/conflict_serializability.h"
#include "server/txn_manager.h"

namespace bcc {
namespace {

ServerTxn MakeTxn(TxnId id, std::vector<ObjectId> reads, std::vector<ObjectId> writes) {
  ServerTxn t;
  t.id = id;
  t.read_set = std::move(reads);
  t.write_set = std::move(writes);
  return t;
}

/// Replays the committed order through a fresh per-commit-maintenance
/// manager and checks the batched fold produced bit-identical server state.
void ExpectMatchesSequentialOracle(uint32_t num_objects,
                                   const std::vector<CommittedServerTxn>& committed) {
  ServerTxnManager folded(num_objects);  // batched ApplyCommitBatch path
  TxnManagerOptions oracle_options;
  oracle_options.batch_commit_maintenance = false;
  ServerTxnManager oracle(num_objects, oracle_options);
  FoldIntoManager(committed, folded, /*cycle=*/1);
  for (const CommittedServerTxn& c : committed) oracle.ExecuteAndCommit(c.txn, /*cycle=*/1);
  EXPECT_TRUE(folded.f_matrix() == oracle.f_matrix());
  EXPECT_EQ(folded.store().committed(), oracle.store().committed());
}

TEST(TxnProcessorTest, SequentialSchemeCommitsInSubmissionOrder) {
  TxnProcessor proc(/*num_objects=*/4, UpdateScheme::kSequential, /*num_workers=*/4);
  const std::vector<ServerTxn> txns = {
      MakeTxn(1, {}, {0}),
      MakeTxn(2, {0}, {1}),
      MakeTxn(3, {0, 1}, {2}),
  };
  const auto committed = proc.ExecuteBatch(txns);
  ASSERT_EQ(committed.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(committed[i].txn.id, txns[i].id);
    EXPECT_EQ(committed[i].aborts, 0u);
  }
  // txn 2 and 3 read what txn 1 installed.
  EXPECT_EQ(committed[1].reads[0].writer, 1u);
  EXPECT_EQ(committed[2].reads[0].writer, 1u);
  EXPECT_EQ(committed[2].reads[1].writer, 2u);
  EXPECT_TRUE(VerifySerializable(4, committed).ok());
  ExpectMatchesSequentialOracle(4, committed);
}

class TxnProcessorSchemeTest : public ::testing::TestWithParam<UpdateScheme> {};

TEST_P(TxnProcessorSchemeTest, SmallContendedBatchIsSerializable) {
  TxnProcessor proc(/*num_objects=*/4, GetParam(), /*num_workers=*/2);
  const std::vector<ServerTxn> txns = {
      MakeTxn(1, {2}, {0}),
      MakeTxn(2, {0}, {1}),
      MakeTxn(3, {1}, {0, 2}),
      MakeTxn(4, {0, 2}, {3}),
  };
  const auto committed = proc.ExecuteBatch(txns);
  ASSERT_EQ(committed.size(), 4u);
  for (size_t i = 1; i < committed.size(); ++i) {
    EXPECT_GT(committed[i].commit_seq, committed[i - 1].commit_seq);
  }
  const Status s = VerifySerializable(4, committed);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (GetParam() != UpdateScheme::kMvcc) {
    const History h = BuildInterleavedHistory(committed);
    EXPECT_TRUE(h.Validate().ok());
    EXPECT_TRUE(IsConflictSerializable(h));
  }
  ExpectMatchesSequentialOracle(4, committed);
  EXPECT_EQ(proc.stats().committed, 4u);
  EXPECT_EQ(proc.stats().batches, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TxnProcessorSchemeTest,
                         ::testing::Values(UpdateScheme::kSequential,
                                           UpdateScheme::kTwoPhaseLocking, UpdateScheme::kOcc,
                                           UpdateScheme::kMvcc),
                         [](const auto& info) {
                           return std::string(UpdateSchemeName(info.param)) == "2pl"
                                      ? std::string("TwoPhaseLocking")
                                      : std::string(UpdateSchemeName(info.param));
                         });

TEST(TxnProcessorTest, CommittedStatePersistsAcrossBatches) {
  TxnProcessor proc(/*num_objects=*/2, UpdateScheme::kTwoPhaseLocking, /*num_workers=*/2);
  auto first = proc.ExecuteBatch(std::vector<ServerTxn>{MakeTxn(1, {}, {0})});
  auto second = proc.ExecuteBatch(std::vector<ServerTxn>{MakeTxn(2, {0}, {1})});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].reads[0].writer, 1u);  // sees the previous batch's commit
  std::vector<CommittedServerTxn> all;
  all.insert(all.end(), first.begin(), first.end());
  all.insert(all.end(), second.begin(), second.end());
  EXPECT_TRUE(VerifySerializable(2, all).ok());
  EXPECT_EQ(proc.stats().batches, 2u);
}

TEST(TxnProcessorTest, MvccGcRunsAtTheBatchBarrier) {
  TxnProcessor proc(/*num_objects=*/1, UpdateScheme::kMvcc, /*num_workers=*/2);
  const std::vector<ServerTxn> txns = {
      MakeTxn(1, {}, {0}),
      MakeTxn(2, {}, {0}),
      MakeTxn(3, {}, {0}),
  };
  const auto committed = proc.ExecuteBatch(txns);
  ASSERT_EQ(committed.size(), 3u);
  // Three versions were installed on top of t0; the epoch GC at the barrier
  // keeps only the newest.
  EXPECT_GE(proc.stats().mvcc_versions_pruned, 3u);
}

// Satellite test (ISSUE 6): under 2PL wait-die, the younger of two writers
// on one object dies, retries with its original priority, and commits after
// the older one — and only the surviving attempt is handed to the fold, so
// an aborted attempt can never reach ApplyCommitBatch.
TEST(TxnProcessorTest, TwoPhaseLockingWaitDieAbortsYoungerAndRetries) {
  TxnProcessor proc(/*num_objects=*/2, UpdateScheme::kTwoPhaseLocking, /*num_workers=*/2);

  std::mutex mu;
  std::condition_variable cv;
  bool older_locked = false;
  int younger_deaths = 0;
  proc.set_test_hook([&](TxnId txn, std::string_view stage) {
    std::unique_lock<std::mutex> lock(mu);
    if (txn == 1 && stage == "2pl:locked") {
      // Txn 1 (older: submitted first) holds its locks open until txn 2 has
      // died on the conflict at least once.
      older_locked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return younger_deaths >= 1; });
    } else if (txn == 2 && stage == "start") {
      // Keep txn 2 from racing ahead of txn 1's lock acquisition.
      cv.wait(lock, [&] { return older_locked; });
    } else if (txn == 2 && stage == "2pl:die") {
      younger_deaths += 1;
      cv.notify_all();
    }
  });

  const std::vector<ServerTxn> txns = {
      MakeTxn(1, {}, {0}),
      MakeTxn(2, {}, {0}),
  };
  const auto committed = proc.ExecuteBatch(txns);
  ASSERT_EQ(committed.size(), 2u);
  EXPECT_EQ(committed[0].txn.id, 1u);  // the older transaction commits first
  EXPECT_EQ(committed[1].txn.id, 2u);
  EXPECT_GE(committed[1].aborts, 1u);
  EXPECT_GE(proc.stats().lock_die_aborts, 1u);
  // The victim's surviving attempt left exactly one trace: w2(ob0) c2.
  ASSERT_EQ(committed[1].ops.size(), 2u);
  EXPECT_EQ(committed[1].ops[0].op, Operation::Write(2, 0));
  EXPECT_EQ(committed[1].ops[1].op, Operation::Commit(2));
  EXPECT_TRUE(VerifySerializable(2, committed).ok());
  ExpectMatchesSequentialOracle(2, committed);
}

// Satellite test (ISSUE 6): an OCC transaction whose read set is overwritten
// inside its window fails backward validation, retries, observes the new
// writer, and serializes after it; the failed attempt's writes are never
// installed and never reach ApplyCommitBatch.
TEST(TxnProcessorTest, OccValidationFailureAbortsAndRetries) {
  TxnProcessor proc(/*num_objects=*/2, UpdateScheme::kOcc, /*num_workers=*/2);

  std::mutex mu;
  std::condition_variable cv;
  bool reader_read_done = false;
  bool writer_installed = false;
  proc.set_test_hook([&](TxnId txn, std::string_view stage) {
    std::unique_lock<std::mutex> lock(mu);
    if (txn == 1 && stage == "occ:read-done" && !writer_installed) {
      // First attempt only: hold txn 1 between read phase and validation
      // until txn 2 has installed a conflicting write.
      reader_read_done = true;
      cv.notify_all();
      cv.wait(lock, [&] { return writer_installed; });
    } else if (txn == 2 && stage == "start") {
      cv.wait(lock, [&] { return reader_read_done; });
    } else if (txn == 2 && stage == "occ:install") {
      writer_installed = true;
      cv.notify_all();
    }
  });

  const std::vector<ServerTxn> txns = {
      MakeTxn(1, {0}, {1}),
      MakeTxn(2, {}, {0}),
  };
  const auto committed = proc.ExecuteBatch(txns);
  ASSERT_EQ(committed.size(), 2u);
  EXPECT_EQ(committed[0].txn.id, 2u);  // the writer serialized first
  EXPECT_EQ(committed[1].txn.id, 1u);
  EXPECT_GE(committed[1].aborts, 1u);
  EXPECT_GE(proc.stats().occ_validation_aborts, 1u);
  // The surviving attempt observed txn 2's write.
  ASSERT_EQ(committed[1].reads.size(), 1u);
  EXPECT_EQ(committed[1].reads[0].writer, 2u);
  // Exactly one commit per transaction reaches the fold; the aborted
  // attempt's operations are gone (r1 w1 c1 — not doubled).
  ASSERT_EQ(committed[1].ops.size(), 3u);
  EXPECT_TRUE(VerifySerializable(2, committed).ok());
  const History h = BuildInterleavedHistory(committed);
  EXPECT_TRUE(h.Validate().ok());
  EXPECT_TRUE(IsConflictSerializable(h));
  ExpectMatchesSequentialOracle(2, committed);
}

}  // namespace
}  // namespace bcc
