#include "common/cow_pages.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace bcc {
namespace {

using Pages = CowPages<uint64_t>;
constexpr uint32_t kP = Pages::kPageEntries;

std::vector<uint64_t> Contents(const Pages& pages) {
  std::vector<uint64_t> out(pages.size());
  for (uint32_t i = 0; i < pages.size(); ++i) out[i] = pages[i];
  return out;
}

TEST(CowPagesTest, StartsValueInitialized) {
  const Pages pages(3 * kP + 5);
  EXPECT_EQ(pages.size(), 3 * kP + 5);
  EXPECT_EQ(pages.num_pages(), 4u);
  EXPECT_EQ(pages.Page(3).size(), 5u);
  for (uint32_t i = 0; i < pages.size(); ++i) EXPECT_EQ(pages[i], 0u);
  EXPECT_EQ(Pages().size(), 0u);
}

TEST(CowPagesTest, ConstructionSharesTheZeroPage) {
  Pages pages(5 * kP);
  const Pages fresh(5 * kP);
  // Every slot of one container holds the same zero buffer.
  for (uint32_t p = 1; p < pages.num_pages(); ++p) {
    EXPECT_EQ(pages.Page(p).data(), pages.Page(0).data()) << "page " << p;
  }
  EXPECT_EQ(pages.pages_copied(), 0u);
  // The first write to a page copies the zero page; the rest stay shared.
  pages.Set(2 * kP + 1, 7);
  EXPECT_EQ(pages.pages_copied(), 1u);
  EXPECT_NE(pages.Page(2).data(), pages.Page(0).data());
  EXPECT_EQ(pages.Page(4).data(), pages.Page(0).data());
  EXPECT_EQ(fresh[2 * kP + 1], 0u);
}

TEST(CowPagesTest, OnePageContainerOwnsItsZeroPage) {
  Pages pages(kP);
  pages.Set(0, 1);
  pages.Set(kP - 1, 2);
  EXPECT_EQ(pages.pages_copied(), 0u);
}

TEST(CowPagesTest, SnapshotIsUnchangedByLaterWrites) {
  Pages live(4 * kP + 3);
  for (uint32_t i = 0; i < live.size(); ++i) live.Set(i, i + 1);
  const Pages snap = live;
  const std::vector<uint64_t> before = Contents(snap);
  for (uint32_t i = 0; i < live.size(); i += 3) live.Set(i, 1000 + i);
  EXPECT_EQ(Contents(snap), before);
  for (uint32_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i], i % 3 == 0 ? 1000 + i : i + 1) << i;
  }
  // Writing the snapshot's own copy leaves the live container alone.
  Pages other = snap;
  other.Set(1, 99);
  EXPECT_EQ(snap[1], 2u);
  EXPECT_EQ(live[1], 2u);
}

TEST(CowPagesTest, PagesCopiedEqualsDistinctPagesWrittenSinceTheCopy) {
  Pages live(16 * kP);
  for (uint32_t i = 0; i < live.size(); ++i) live.Set(i, i);
  Rng rng(3);
  uint64_t copied = live.pages_copied();
  for (int round = 0; round < 20; ++round) {
    const Pages snap = live;
    std::set<uint32_t> pages_written;
    const int writes = static_cast<int>(rng.NextInt(0, 40));
    for (int w = 0; w < writes; ++w) {
      const auto i = static_cast<uint32_t>(rng.NextInt(0, live.size() - 1));
      live.Set(i, live[i] + 1);
      pages_written.insert(i / kP);
    }
    EXPECT_EQ(live.pages_copied() - copied, pages_written.size()) << "round " << round;
    for (uint32_t p = 0; p < live.num_pages(); ++p) {
      EXPECT_EQ(live.SharesPage(snap, p), pages_written.count(p) == 0) << p;
    }
    copied = live.pages_copied();
  }
}

TEST(CowPagesTest, CopyAssignmentAndMoveKeepValues) {
  Pages a(2 * kP + 1);
  a.Set(2 * kP, 5);
  Pages b(7);
  b = a;
  a.Set(2 * kP, 6);
  EXPECT_EQ(b[2 * kP], 5u);
  Pages c = std::move(b);
  EXPECT_EQ(c[2 * kP], 5u);
  c.Set(0, 1);
  EXPECT_EQ(a[0], 0u);
  Pages one(3);
  one.Set(2, 4);
  Pages moved = std::move(one);
  moved.Set(1, 2);
  EXPECT_EQ(Contents(moved), (std::vector<uint64_t>{0, 2, 4}));
  EXPECT_TRUE(a == a);
  EXPECT_FALSE(a == c);
}

TEST(CowPagesTest, RandomOpsMatchDeepCopyOracle) {
  // Random set / copy / drop / write-through-copy sequences against plain
  // vectors: every container must always read back its own deep copy.
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const auto n = static_cast<uint32_t>(rng.NextInt(1, 6 * kP));
    std::vector<Pages> live;
    std::vector<std::vector<uint64_t>> oracle;
    live.emplace_back(n);
    oracle.emplace_back(n, 0);
    for (int op = 0; op < 400; ++op) {
      const auto k = static_cast<size_t>(rng.NextInt(0, live.size() - 1));
      const int kind = static_cast<int>(rng.NextInt(0, 9));
      if (kind < 6) {
        const auto i = static_cast<uint32_t>(rng.NextInt(0, n - 1));
        const uint64_t v = rng.NextU64();
        live[k].Set(i, v);
        oracle[k][i] = v;
      } else if (kind < 8 && live.size() < 8) {
        live.push_back(live[k]);
        oracle.push_back(oracle[k]);
      } else if (kind == 8 && live.size() > 1) {
        live.erase(live.begin() + static_cast<ptrdiff_t>(k));
        oracle.erase(oracle.begin() + static_cast<ptrdiff_t>(k));
      } else {
        const auto to = static_cast<size_t>(rng.NextInt(0, live.size() - 1));
        live[to] = live[k];
        oracle[to] = oracle[k];
      }
      for (size_t c = 0; c < live.size(); ++c) {
        ASSERT_EQ(Contents(live[c]), oracle[c]) << "op " << op << " container " << c;
      }
    }
  }
}

TEST(CowPagesTest, ReaderHoldsSnapshotWhileWriterRunsNextCycle) {
  // The ConcurrentSim shape: the writer publishes a snapshot per cycle; a
  // reader thread holds cycle k's snapshot and checks it while the writer
  // writes cycle k+1, then drops it while the writer copies again.
  constexpr uint32_t kN = 32 * kP;
  constexpr uint64_t kCycles = 200;
  Pages live(kN);
  std::mutex mu;
  std::shared_ptr<const Pages> published = std::make_shared<const Pages>(live);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};
  const auto snapshot = [&] {
    const std::lock_guard<std::mutex> lock(mu);
    return published;
  };
  // Two readers, each also copying the shared snapshot and writing its
  // copy (a client tracker adopting the on-air state) concurrently.
  const auto read = [&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::shared_ptr<const Pages> snap = snapshot();
      // Every entry of one snapshot carries the same cycle stamp.
      const uint64_t stamp = (*snap)[0];
      for (uint32_t i = 0; i < kN; i += 7) {
        if ((*snap)[i] != stamp) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
      Pages mine = *snap;
      mine.Set(kN - 1, stamp + 1);
      if ((*snap)[kN - 1] != stamp) mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread reader_a(read);
  std::thread reader_b(read);
  for (uint64_t cycle = 1; cycle <= kCycles; ++cycle) {
    for (uint32_t i = 0; i < kN; ++i) live.Set(i, cycle);
    auto next = std::make_shared<const Pages>(live);
    const std::lock_guard<std::mutex> lock(mu);
    published = std::move(next);
  }
  done.store(true, std::memory_order_release);
  reader_a.join();
  reader_b.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(live.pages_copied(), kCycles * live.num_pages());
}

}  // namespace
}  // namespace bcc
