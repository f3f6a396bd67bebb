#include "server/store.h"

#include <gtest/gtest.h>

namespace bcc {
namespace {

TEST(VersionedStoreTest, InitialStateIsT0) {
  VersionedStore store(3);
  for (ObjectId ob = 0; ob < 3; ++ob) {
    EXPECT_EQ(store.Committed(ob).writer, kInitTxn);
    EXPECT_EQ(store.Committed(ob).value, 0u);
    EXPECT_EQ(store.Committed(ob).cycle, 0u);
  }
}

TEST(VersionedStoreTest, InstallCommitsWriterAndCycle) {
  VersionedStore store(2);
  store.Install(0, /*writer=*/7, /*commit_cycle=*/4);
  EXPECT_EQ(store.Committed(0), (ObjectVersion{1, 7, 4}));
  EXPECT_EQ(store.Committed(1), ObjectVersion{});  // untouched object keeps t0
}

TEST(VersionedStoreTest, ValuesAreUniquePerWrite) {
  // Each write takes the next value, across objects and commits.
  VersionedStore store(2);
  store.Install(0, 1, 1);
  store.Install(1, 1, 1);
  store.Install(0, 2, 2);
  EXPECT_EQ(store.Committed(1).value, 2u);
  EXPECT_EQ(store.Committed(0).value, 3u);
}

TEST(VersionedStoreTest, DuplicateWriteKeepsLastValue) {
  // One write set naming an object twice: the object keeps the later value.
  VersionedStore store(1);
  store.Install(0, 3, 1);
  const uint64_t first = store.Committed(0).value;
  store.Install(0, 3, 1);
  EXPECT_EQ(store.Committed(0).value, first + 1);
  EXPECT_EQ(store.Committed(0).writer, 3u);
}

TEST(VersionedStoreTest, WriteAfterCopyLeavesTheCopyUnchanged) {
  // Two full pages and a short one; the copy is what a cycle snapshot holds.
  const uint32_t n = 2 * ObjectValues::kPageEntries + 1;
  VersionedStore store(n);
  store.Install(1, 5, 1);
  const ObjectValues copy = store.committed();
  const uint64_t before = store.committed().pages_copied();
  store.Install(1, 6, 2);
  store.Install(n - 1, 6, 2);
  EXPECT_EQ(store.committed().pages_copied() - before, 2u);
  EXPECT_EQ(copy[1], (ObjectVersion{1, 5, 1}));
  EXPECT_EQ(copy[n - 1], ObjectVersion{});
  EXPECT_EQ(store.Committed(1), (ObjectVersion{2, 6, 2}));
  EXPECT_EQ(store.Committed(n - 1), (ObjectVersion{3, 6, 2}));
  for (uint32_t ob = 2; ob < n - 1; ++ob) EXPECT_EQ(copy[ob], store.Committed(ob)) << ob;
}

}  // namespace
}  // namespace bcc
