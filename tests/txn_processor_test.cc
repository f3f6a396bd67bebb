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
  const History h = BuildInterleavedHistory(committed);
  EXPECT_TRUE(h.Validate().ok());
  EXPECT_TRUE(IsConflictSerializable(h));
  ExpectMatchesSequentialOracle(4, committed);
  EXPECT_EQ(proc.stats().committed, 4u);
  EXPECT_EQ(proc.stats().batches, 1u);
}

// One executor runs the batch inline on the calling thread in input order,
// so no transaction ever meets a concurrent contender: every scheme commits
// the batch in input order, first try — the order the engines' decision
// cross-checks depend on at update_workers = 1.
TEST_P(TxnProcessorSchemeTest, OneWorkerCommitsInInputOrderFirstTry) {
  TxnProcessor proc(/*num_objects=*/4, GetParam(), /*num_workers=*/1);
  EXPECT_EQ(proc.num_workers(), 1u);
  std::vector<CommittedServerTxn> all;
  for (TxnId base = 0; base <= 10; base += 10) {  // two batches, unique ids
    const std::vector<ServerTxn> txns = {
        MakeTxn(base + 1, {2}, {0}),    MakeTxn(base + 2, {0}, {1}),
        MakeTxn(base + 3, {1}, {0, 2}), MakeTxn(base + 4, {0, 2}, {3}),
        MakeTxn(base + 5, {}, {0}),     MakeTxn(base + 6, {0, 1, 2, 3}, {1}),
    };
    const auto committed = proc.ExecuteBatch(txns);
    ASSERT_EQ(committed.size(), txns.size());
    for (size_t i = 0; i < committed.size(); ++i) {
      EXPECT_EQ(committed[i].txn.id, txns[i].id);
      EXPECT_EQ(committed[i].aborts, 0u);
      if (i > 0) {
        EXPECT_GT(committed[i].commit_seq, committed[i - 1].commit_seq);
      }
    }
    all.insert(all.end(), committed.begin(), committed.end());
  }
  EXPECT_TRUE(VerifySerializable(4, all).ok());
  EXPECT_EQ(proc.stats().occ_validation_aborts, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TxnProcessorSchemeTest,
                         ::testing::Values(UpdateScheme::kSequential, UpdateScheme::kOcc),
                         [](const auto& info) { return std::string(UpdateSchemeName(info.param)); });

TEST(TxnProcessorTest, CommittedStatePersistsAcrossBatches) {
  TxnProcessor proc(/*num_objects=*/2, UpdateScheme::kOcc, /*num_workers=*/2);
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

// An OCC transaction whose read set is overwritten
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
