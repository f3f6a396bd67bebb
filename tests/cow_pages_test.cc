#include "common/cow_pages.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "matrix/f_matrix.h"

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

TEST(CowPagesTest, SnapshotLeavesPayloadUseCountsUnchanged) {
  // Pages carry no reference count, and copying the table copies no entry:
  // taking and dropping a snapshot touches no payload's count.
  using Handles = CowPages<std::shared_ptr<int>>;
  constexpr uint32_t kN = 5 * Handles::kPageEntries + 3;
  std::vector<std::shared_ptr<int>> payloads;
  Handles live(kN);
  for (uint32_t i = 0; i < kN; ++i) {
    payloads.push_back(std::make_shared<int>(static_cast<int>(i)));
    live.Set(i, payloads.back());
  }
  const auto counts = [&] {
    std::vector<long> out;
    for (const auto& p : payloads) out.push_back(p.use_count());
    return out;
  };
  const std::vector<long> before = counts();
  ASSERT_EQ(before.front(), 2);
  {
    const Handles snap = live;
    const Handles copy_of_snap = snap;
    EXPECT_EQ(counts(), before);
    EXPECT_EQ(*copy_of_snap[kN - 1], static_cast<int>(kN - 1));
  }
  EXPECT_EQ(counts(), before);
  // A write after the drop copies one page (one count per entry on it) and
  // hands the replaced page back for reuse with its handles released.
  live.Set(0, std::make_shared<int>(-1));
  EXPECT_EQ(payloads[0].use_count(), 1);
  for (uint32_t i = 1; i < kN; ++i) EXPECT_EQ(payloads[i].use_count(), 2) << i;
}

TEST(CowPagesTest, RetiredBacklogStaysWithinThePagesReplacedSinceTheOldestLiveCopy) {
  // 200 cycles of copy / scattered writes / drops with random lifetimes:
  // after every write, the pages retired but not yet reclaimed are at most
  // the pages copied since the oldest live copy was taken.
  constexpr uint32_t kN = 40 * kP;
  Pages live(kN);
  for (uint32_t i = 0; i < kN; ++i) live.Set(i, i);
  Rng rng(11);
  struct Held {
    Pages copy;
    uint64_t copied_at;  ///< live.pages_copied() when it was taken
  };
  std::deque<Held> held;
  size_t max_backlog = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    held.push_back({live, live.pages_copied()});
    const int writes = static_cast<int>(rng.NextInt(0, 60));
    for (int w = 0; w < writes; ++w) {
      const auto i = static_cast<uint32_t>(rng.NextInt(0, kN - 1));
      live.Set(i, live[i] + 1);
      uint64_t oldest = live.pages_copied();
      for (const Held& h : held) oldest = std::min(oldest, h.copied_at);
      ASSERT_LE(live.retired_pages(), live.pages_copied() - oldest) << "cycle " << cycle;
    }
    max_backlog = std::max(max_backlog, live.retired_pages());
    // Drop a random subset, oldest first more often (clients finish reads).
    while (!held.empty() && rng.NextInt(0, 2) != 0) held.pop_front();
    if (held.size() > 1 && rng.NextInt(0, 3) == 0) {
      held.erase(held.begin() + static_cast<ptrdiff_t>(rng.NextInt(0, held.size() - 1)));
    }
  }
  EXPECT_GT(max_backlog, 0u);
  // With every copy gone, the next write reclaims the whole backlog.
  held.clear();
  { const Pages last = live; }
  live.Set(0, 7);
  EXPECT_EQ(live.retired_pages(), 0u);
}

TEST(CowPagesTest, WrittenCopyPinsItsSourceUntilItDies) {
  constexpr uint32_t kN = 8 * kP;
  Pages live(kN);
  for (uint32_t i = 0; i < kN; ++i) live.Set(i, i);
  auto snap = std::make_unique<Pages>(live);
  // A tracker adopting the on-air state, then applying its own writes:
  // it owns the one page it wrote and borrows the other seven.
  auto written = std::make_unique<Pages>(*snap);
  written->Set(1, 1000);
  EXPECT_EQ(written->pages_copied(), 1u);
  snap.reset();
  // The live container replaces every page; the written copy still reads
  // the seven borrowed ones, so none of them may be reclaimed.
  for (int round = 0; round < 3; ++round) {
    { const Pages passing = live; }
    for (uint32_t i = 0; i < kN; ++i) live.Set(i, live[i] + kN);
  }
  EXPECT_EQ(live.retired_pages(), 3u * live.num_pages());
  for (uint32_t i = 0; i < kN; ++i) EXPECT_EQ((*written)[i], i == 1 ? 1000 : i) << i;
  // Once it is gone, the next copy-and-write reclaims the backlog.
  written.reset();
  { const Pages passing = live; }
  live.Set(0, 1);
  EXPECT_EQ(live.retired_pages(), 0u);
}

TEST(CowPagesTest, OwnerDyingBeforeItsCopiesHandsItsPagesOver) {
  constexpr uint32_t kN = 4 * kP;
  auto live = std::make_unique<Pages>(kN);
  for (uint32_t i = 0; i < kN; ++i) live->Set(i, 3 * i);
  Pages snap = *live;
  live->Set(0, 99);  // retires page 0, which the snapshot still reads
  auto written = std::make_unique<Pages>(snap);
  written->Set(kN - 1, 5);
  Pages copy_of_written = *written;
  live.reset();
  written.reset();
  // Both owners are gone; their pages live on until the last copy dies.
  for (uint32_t i = 0; i < kN; ++i) EXPECT_EQ(snap[i], 3 * i) << i;
  for (uint32_t i = 0; i + 1 < kN; ++i) EXPECT_EQ(copy_of_written[i], 3 * i) << i;
  EXPECT_EQ(copy_of_written[kN - 1], 5u);
}

TEST(CowPagesTest, ReadersDropCopiesOfDifferentGenerationsWhileWriterReclaims) {
  // One reader keeps the last few snapshots it saw (old generations stay
  // pinned for a while), the other copies each snapshot and drops the copy
  // at once; the writer rewrites every page each cycle and reclaims behind
  // them. Every snapshot must read back one uniform stamp.
  constexpr uint32_t kN = 16 * kP;
  constexpr uint64_t kCycles = 300;
  Pages live(kN);
  std::mutex mu;
  std::shared_ptr<const Pages> published = std::make_shared<const Pages>(live);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};
  const auto snapshot = [&] {
    const std::lock_guard<std::mutex> lock(mu);
    return published;
  };
  const auto check = [&](const Pages& snap) {
    const uint64_t stamp = snap[0];
    for (uint32_t i = 0; i < kN; i += 5) {
      if (snap[i] != stamp) mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread keeper([&] {
    std::deque<std::shared_ptr<const Pages>> kept;
    while (!done.load(std::memory_order_acquire)) {
      kept.push_back(snapshot());
      if (kept.size() > 4) kept.pop_front();
      for (const auto& snap : kept) check(*snap);
    }
  });
  std::thread copier([&] {
    while (!done.load(std::memory_order_acquire)) {
      const Pages mine = *snapshot();
      check(mine);
    }
  });
  for (uint64_t cycle = 1; cycle <= kCycles; ++cycle) {
    for (uint32_t i = 0; i < kN; ++i) live.Set(i, cycle);
    auto next = std::make_shared<const Pages>(live);
    const std::lock_guard<std::mutex> lock(mu);
    published = std::move(next);
  }
  done.store(true, std::memory_order_release);
  keeper.join();
  copier.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(live.pages_copied(), kCycles * live.num_pages());
  published.reset();
  { const Pages last = live; }
  live.Set(0, 0);
  EXPECT_EQ(live.retired_pages(), 0u);
}

TEST(CowPagesTest, ReaderHoldsDenseMatrixSnapshotAcrossTheNextCommitBatch) {
  // Column-length pages (n = 48, not a power of two): the writer folds one
  // commit batch per cycle into a dense F-Matrix and publishes a snapshot
  // with a deep copy of its entries; a reader holds each snapshot across
  // the next batch, checks it against the deep copy, adopts it into a copy
  // of its own that it writes (a delta tracker), and drops both on its own
  // thread.
  constexpr uint32_t kN = 48;
  constexpr Cycle kCycles = 150;
  struct Published {
    FMatrix snap;
    std::vector<Cycle> entries;
  };
  const auto entries_of = [](const FMatrix& m) {
    std::vector<Cycle> out;
    for (ObjectId j = 0; j < m.num_objects(); ++j) {
      out.insert(out.end(), m.Column(j).begin(), m.Column(j).end());
    }
    return out;
  };
  FMatrix live(kN);
  std::mutex mu;
  std::shared_ptr<const Published> published;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> checked{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::shared_ptr<const Published> held;
      {
        const std::lock_guard<std::mutex> lock(mu);
        held = published;
      }
      if (held == nullptr) continue;
      if (entries_of(held->snap) != held->entries) mismatches.fetch_add(1);
      FMatrix mine = held->snap.Snapshot();
      mine.Set(kN - 1, 0, held->snap.At(kN - 1, 0) + 1);
      if (held->snap.At(kN - 1, 0) != held->entries[kN - 1]) mismatches.fetch_add(1);
      checked.fetch_add(1, std::memory_order_relaxed);
    }
  });
  Rng rng(17);
  for (Cycle cycle = 1; cycle <= kCycles; ++cycle) {
    std::vector<CommitSets> batch(4);
    for (CommitSets& c : batch) {
      c.read_set = rng.SampleWithoutReplacement(kN, 2);
      c.write_set = rng.SampleWithoutReplacement(kN, 1 + static_cast<uint32_t>(rng.NextBounded(3)));
    }
    live.ApplyCommitBatch(batch, cycle);
    auto next = std::make_shared<const Published>(Published{live.Snapshot(), entries_of(live)});
    const std::lock_guard<std::mutex> lock(mu);
    published = std::move(next);
  }
  while (checked.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
  // Every column a batch wrote was copied once, on its first write after the
  // previous cycle's snapshot.
  EXPECT_GT(live.snapshot_columns_copied(), 0u);
  EXPECT_EQ(live.column_pages().page_bytes(), kN * sizeof(Cycle));
}

}  // namespace
}  // namespace bcc
