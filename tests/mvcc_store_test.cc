#include "server/exec/mvcc_store.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

namespace bcc {
namespace {

TEST(MvccStoreTest, InitialReadsObserveT0) {
  MvccStore store(4);
  for (ObjectId ob = 0; ob < 4; ++ob) {
    const auto r = store.Read(ob, 10);
    EXPECT_EQ(r.writer, kInitTxn);
    EXPECT_EQ(r.version_ts, 0u);
  }
}

TEST(MvccStoreTest, ReadersObserveNewestVersionAtOrBelowTheirTimestamp) {
  MvccStore store(2);
  const ObjectId kOb = 1;
  ASSERT_TRUE(store.CommitWrites(std::vector<ObjectId>{kOb}, /*writer=*/7, /*ts=*/5));
  EXPECT_EQ(store.Read(kOb, 4).writer, kInitTxn);
  EXPECT_EQ(store.Read(kOb, 5).writer, 7u);
  EXPECT_EQ(store.Read(kOb, 9).writer, 7u);
  EXPECT_EQ(store.VersionCount(kOb), 2u);
}

TEST(MvccStoreTest, WriteBelowAYoungerReaderIsRejected) {
  MvccStore store(1);
  const ObjectId kOb = 0;
  // A reader at ts 10 observed the initial state. A writer at ts 5 would
  // retroactively change what that reader should have seen: reject it.
  store.Read(kOb, 10);
  EXPECT_FALSE(store.CommitWrites(std::vector<ObjectId>{kOb}, /*writer=*/3, /*ts=*/5));
  EXPECT_EQ(store.VersionCount(kOb), 1u);
  // The same writer retried with a fresh timestamp past the reader is fine.
  EXPECT_TRUE(store.CommitWrites(std::vector<ObjectId>{kOb}, /*writer=*/3, /*ts=*/11));
  EXPECT_EQ(store.Read(kOb, 11).writer, 3u);
  EXPECT_EQ(store.Read(kOb, 10).writer, kInitTxn);  // older reads still see t0
}

TEST(MvccStoreTest, UnreadGapAcceptsAnOlderWriter) {
  MvccStore store(1);
  const ObjectId kOb = 0;
  ASSERT_TRUE(store.CommitWrites(std::vector<ObjectId>{kOb}, /*writer=*/9, /*ts=*/6));
  // Nothing read the pre-state of ts 6, so a writer can still slot in below.
  EXPECT_TRUE(store.CommitWrites(std::vector<ObjectId>{kOb}, /*writer=*/4, /*ts=*/3));
  EXPECT_EQ(store.VersionCount(kOb), 3u);
  EXPECT_EQ(store.Read(kOb, 3).writer, 4u);
  EXPECT_EQ(store.Read(kOb, 5).writer, 4u);
  EXPECT_EQ(store.Read(kOb, 6).writer, 9u);
}

TEST(MvccStoreTest, MultiObjectCommitIsAllOrNothing) {
  MvccStore store(2);
  store.Read(/*ob=*/1, /*ts=*/10);  // makes object 1 reject writers below ts 10
  EXPECT_FALSE(store.CommitWrites(std::vector<ObjectId>{0, 1}, /*writer=*/5, /*ts=*/7));
  // Object 0 passed its check but must not have been installed.
  EXPECT_EQ(store.VersionCount(0), 1u);
  EXPECT_EQ(store.VersionCount(1), 1u);
  EXPECT_TRUE(store.CommitWrites(std::vector<ObjectId>{0, 1}, /*writer=*/5, /*ts=*/11));
  EXPECT_EQ(store.VersionCount(0), 2u);
  EXPECT_EQ(store.VersionCount(1), 2u);
}

TEST(MvccStoreTest, EpochGcKeepsExactlyTheVisibleVersion) {
  MvccStore store(1);
  const ObjectId kOb = 0;
  for (uint64_t ts = 1; ts <= 4; ++ts) {
    ASSERT_TRUE(store.CommitWrites(std::vector<ObjectId>{kOb}, /*writer=*/ts, ts));
  }
  ASSERT_EQ(store.VersionCount(kOb), 5u);  // t0 + four commits
  EXPECT_EQ(store.CollectGarbage(/*safe_ts=*/100), 4u);
  EXPECT_EQ(store.VersionCount(kOb), 1u);
  EXPECT_EQ(store.versions_pruned(), 4u);
  // The surviving version is the newest one; future readers still see it.
  EXPECT_EQ(store.Read(kOb, 100).writer, 4u);
}

TEST(MvccStoreTest, GcRespectsSafeTimestamp) {
  MvccStore store(1);
  const ObjectId kOb = 0;
  ASSERT_TRUE(store.CommitWrites(std::vector<ObjectId>{kOb}, /*writer=*/1, /*ts=*/2));
  ASSERT_TRUE(store.CommitWrites(std::vector<ObjectId>{kOb}, /*writer=*/2, /*ts=*/8));
  // safe_ts 5 may only drop versions older than the one visible at 5 (t0).
  EXPECT_EQ(store.CollectGarbage(/*safe_ts=*/5), 1u);
  EXPECT_EQ(store.VersionCount(kOb), 2u);
  EXPECT_EQ(store.Read(kOb, 5).writer, 1u);
  EXPECT_EQ(store.Read(kOb, 9).writer, 2u);
}

TEST(MvccStoreTest, PartlyCollectedChainIsVisitedAgain) {
  MvccStore store(2);
  ASSERT_TRUE(store.CommitWrites(std::vector<ObjectId>{0}, /*writer=*/1, /*ts=*/2));
  ASSERT_TRUE(store.CommitWrites(std::vector<ObjectId>{0}, /*writer=*/2, /*ts=*/8));
  EXPECT_EQ(store.CollectGarbage(/*safe_ts=*/5), 1u);
  EXPECT_EQ(store.chains_visited(), 1u);  // object 1 was never written
  // No write since, but the chain still holds a version above the old
  // safe_ts: the next epoch's GC must reach it.
  EXPECT_EQ(store.CollectGarbage(/*safe_ts=*/100), 1u);
  EXPECT_EQ(store.VersionCount(0), 1u);
  EXPECT_EQ(store.chains_visited(), 2u);
  EXPECT_EQ(store.CollectGarbage(/*safe_ts=*/200), 0u);
  EXPECT_EQ(store.chains_visited(), 2u);
}

// Epoch GC is O(objects written): over a random batch sequence it visits
// exactly the distinct objects each batch wrote, and prunes exactly what a
// walk over all n chains would.
TEST(MvccStoreTest, GcVisitsOnlyWrittenChainsAndPrunesLikeAFullWalk) {
  constexpr uint32_t kObjects = 500;
  MvccStore store(kObjects);
  std::vector<uint64_t> chain_len(kObjects, 1);  // the full walk's model
  std::mt19937_64 rng(20260);
  uint64_t ts = 0;
  uint64_t full_walk_pruned = 0;
  uint64_t distinct_written = 0;
  for (int batch = 0; batch < 60; ++batch) {
    std::set<ObjectId> written;
    const int commits = static_cast<int>(rng() % 40);  // some batches write nothing
    for (int c = 0; c < commits; ++c) {
      ++ts;
      std::set<ObjectId> ws;
      const size_t k = 1 + rng() % 4;
      while (ws.size() < k) ws.insert(static_cast<ObjectId>(rng() % kObjects));
      // A read at the writer's own timestamp never blocks a later writer.
      store.Read(static_cast<ObjectId>(rng() % kObjects), ts);
      const std::vector<ObjectId> write_set(ws.begin(), ws.end());
      ASSERT_TRUE(store.CommitWrites(write_set, static_cast<TxnId>(ts), ts));
      for (ObjectId ob : write_set) chain_len[ob] += 1;
      written.insert(ws.begin(), ws.end());
    }
    store.CollectGarbage(/*safe_ts=*/ts + 1);
    for (uint64_t& len : chain_len) {
      full_walk_pruned += len - 1;
      len = 1;
    }
    distinct_written += written.size();
    ASSERT_EQ(store.chains_visited(), distinct_written) << "batch " << batch;
    ASSERT_EQ(store.versions_pruned(), full_walk_pruned) << "batch " << batch;
  }
  for (ObjectId ob = 0; ob < kObjects; ++ob) EXPECT_EQ(store.VersionCount(ob), 1u);
  EXPECT_GT(full_walk_pruned, 0u);
}

}  // namespace
}  // namespace bcc
