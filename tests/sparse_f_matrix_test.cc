// SparseFMatrix vs dense FMatrix oracle: the sparse form is a representation
// change only, so every observable — At, read-condition scans, dirty-column
// drains, batch application — must be bit-identical to the dense matrix fed
// the same commit stream (including ts in {2, 3} wraparound regimes where
// absolute cycles far exceed the codec window).

#include "matrix/sparse_f_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "matrix/control_view.h"
#include "matrix/kernels.h"
#include "matrix/wire.h"

namespace bcc {
namespace {

constexpr uint32_t kSeeds = 25;

std::vector<ObjectId> RandomSet(Rng& rng, uint32_t n, uint32_t max_size) {
  const uint32_t k = static_cast<uint32_t>(rng.NextBounded(max_size + 1));
  return rng.SampleWithoutReplacement(n, k);
}

/// Drives `commits` cycles of random commits through both representations.
struct Pair {
  FMatrix dense;
  SparseFMatrix sparse;

  explicit Pair(uint32_t n) : dense(n), sparse(n) {}

  void RandomCommit(Rng& rng, Cycle cycle, uint32_t max_set) {
    const std::vector<ObjectId> rs = RandomSet(rng, dense.num_objects(), max_set);
    std::vector<ObjectId> ws;
    while (ws.empty()) ws = RandomSet(rng, dense.num_objects(), max_set);
    dense.ApplyCommit(rs, ws, cycle);
    sparse.ApplyCommit(rs, ws, cycle);
  }
};

TEST(SparseFMatrixTest, StartsAllZeroAndEmpty) {
  SparseFMatrix c(4);
  for (ObjectId i = 0; i < 4; ++i) {
    for (ObjectId j = 0; j < 4; ++j) EXPECT_EQ(c.At(i, j), 0u);
  }
  EXPECT_EQ(c.nnz(), 0u);
  EXPECT_EQ(c.nonempty_columns(), 0u);
}

TEST(SparseFMatrixTest, PaperExample4) {
  SparseFMatrix c(2);
  const ObjectId ob1 = 0, ob2 = 1;
  c.ApplyCommit({}, std::vector<ObjectId>{ob1, ob2}, 1);
  c.ApplyCommit(std::vector<ObjectId>{ob1}, std::vector<ObjectId>{ob1}, 2);
  c.ApplyCommit(std::vector<ObjectId>{ob2}, std::vector<ObjectId>{ob2}, 3);
  EXPECT_EQ(c.At(ob1, ob1), 2u);
  EXPECT_EQ(c.At(ob2, ob2), 3u);
  EXPECT_EQ(c.At(ob1, ob2), 1u);
  EXPECT_EQ(c.At(ob2, ob1), 1u);
}

TEST(SparseFMatrixTest, WriteSetColumnsShareOnePayload) {
  // Theorem 2 writes identical content into every WS column; the sparse
  // matrix must materialize that content once.
  SparseFMatrix c(8);
  c.ApplyCommit({}, std::vector<ObjectId>{1, 4, 6}, 1);
  EXPECT_EQ(&c.Column(1), &c.Column(4));
  EXPECT_EQ(&c.Column(4), &c.Column(6));
  EXPECT_NE(&c.Column(0), &c.Column(1));
  EXPECT_EQ(c.ColumnPayloadRefs(1), 3u);
  EXPECT_EQ(c.ColumnPayloadRefs(0), 0u);
  EXPECT_EQ(c.owned_payloads(), 1u);
}

TEST(SparseFMatrixTest, EmptyWriteSetIsNoOp) {
  SparseFMatrix c(4);
  c.ApplyCommit(std::vector<ObjectId>{0, 1}, {}, 7);
  EXPECT_EQ(c.nnz(), 0u);
  SparseFMatrix fresh(4);
  EXPECT_TRUE(c == fresh);
}

TEST(SparseFMatrixTest, MatchesDenseOracleAcrossSeeds) {
  for (uint32_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed + 1);
    const uint32_t n = 8 + static_cast<uint32_t>(rng.NextBounded(25));
    Pair pair(n);
    for (Cycle cycle = 1; cycle <= 60; ++cycle) {
      const uint32_t commits = 1 + static_cast<uint32_t>(rng.NextBounded(3));
      for (uint32_t c = 0; c < commits; ++c) pair.RandomCommit(rng, cycle, 5);
    }
    // Equality across representations goes through ControlView; the
    // same-representation comparisons are the direct calls.
    const ControlView sparse_view(pair.sparse), dense_view(pair.dense);
    ASSERT_TRUE(sparse_view == dense_view) << "seed " << seed;
    ASSERT_TRUE(pair.sparse.ToDense() == pair.dense) << "seed " << seed;
    ASSERT_TRUE(dense_view == ControlView(pair.sparse.ToDense())) << "seed " << seed;
    const SparseFMatrix from_dense = SparseFMatrix::FromDense(pair.dense);
    ASSERT_TRUE(from_dense == pair.sparse) << "seed " << seed;
    ASSERT_TRUE(ControlView(from_dense) == sparse_view) << "seed " << seed;
    for (ObjectId j = 0; j < n; ++j) {
      for (ObjectId i = 0; i < n; ++i) {
        ASSERT_EQ(sparse_view.At(i, j), pair.sparse.At(i, j)) << "seed " << seed;
        ASSERT_EQ(dense_view.At(i, j), pair.dense.At(i, j)) << "seed " << seed;
      }
    }
    // A single differing entry breaks equality in every representation mix.
    FMatrix changed = pair.dense.Snapshot();
    changed.Set(n - 1, 0, changed.At(n - 1, 0) + 1);
    const SparseFMatrix changed_sparse = SparseFMatrix::FromDense(changed);
    ASSERT_FALSE(sparse_view == ControlView(changed)) << "seed " << seed;
    ASSERT_FALSE(dense_view == ControlView(changed)) << "seed " << seed;
    ASSERT_FALSE(sparse_view == ControlView(changed_sparse)) << "seed " << seed;
    ASSERT_FALSE(dense_view == ControlView(changed_sparse)) << "seed " << seed;

    // nnz accounting must agree with a from-scratch recount.
    const SparseFMatrix recount = SparseFMatrix::FromDense(pair.sparse.ToDense());
    uint64_t nnz = 0;
    for (ObjectId j = 0; j < n; ++j) nnz += pair.sparse.ColumnNnz(j);
    EXPECT_EQ(pair.sparse.nnz(), nnz) << "seed " << seed;
    EXPECT_LE(recount.nnz(), pair.sparse.nnz()) << "seed " << seed;
  }
}

TEST(SparseFMatrixTest, ReadConditionScanMatchesDenseKernel) {
  for (uint32_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(100 + seed);
    const uint32_t n = 6 + static_cast<uint32_t>(rng.NextBounded(20));
    Pair pair(n);
    std::vector<Cycle> column;
    for (Cycle cycle = 1; cycle <= 40; ++cycle) {
      pair.RandomCommit(rng, cycle, 4);
      // Random read sets with cycles around the current one so both pass and
      // fail outcomes occur.
      for (int t = 0; t < 4; ++t) {
        std::vector<ReadRecord> reads;
        for (ObjectId ob : RandomSet(rng, n, 5)) {
          reads.push_back({ob, cycle - rng.NextBounded(std::min<uint64_t>(cycle, 6))});
        }
        const ObjectId j = static_cast<ObjectId>(rng.NextBounded(n));
        pair.dense.Snapshot();  // exercise CoW alongside
        column.assign(pair.dense.Column(j).begin(), pair.dense.Column(j).end());
        const size_t want = KernelReadConditionScan(column.data(), reads.data(), reads.size());
        ASSERT_EQ(pair.sparse.ReadConditionScan(reads, j), want)
            << "seed " << seed << " cycle " << cycle;
        ASSERT_EQ(ControlView(pair.sparse).ReadConditionScan(reads, j), want)
            << "seed " << seed << " cycle " << cycle;
        ASSERT_EQ(ControlView(pair.dense).ReadConditionScan(reads, j), want)
            << "seed " << seed << " cycle " << cycle;
      }
    }
  }
}

TEST(SparseFMatrixTest, DirtyTrackingMatchesDenseFirstTouchOrder) {
  for (uint32_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(200 + seed);
    const uint32_t n = 10 + static_cast<uint32_t>(rng.NextBounded(20));
    Pair pair(n);
    pair.dense.EnableDirtyTracking();
    pair.sparse.EnableDirtyTracking();
    std::vector<ObjectId> got, want;
    for (Cycle cycle = 1; cycle <= 30; ++cycle) {
      const uint32_t commits = 1 + static_cast<uint32_t>(rng.NextBounded(4));
      for (uint32_t c = 0; c < commits; ++c) pair.RandomCommit(rng, cycle, 5);
      pair.dense.DrainTouchedColumns(want);
      pair.sparse.DrainTouchedColumns(got);
      ASSERT_EQ(got, want) << "seed " << seed << " cycle " << cycle;
    }
  }
}

TEST(SparseFMatrixTest, BatchApplicationIsBitIdenticalToSequential) {
  for (uint32_t seed = 0; seed < 5; ++seed) {
    Rng rng(300 + seed);
    const uint32_t n = 12;
    SparseFMatrix batched(n), sequential(n);
    for (Cycle cycle = 1; cycle <= 20; ++cycle) {
      std::vector<CommitSets> commits(1 + rng.NextBounded(4));
      for (CommitSets& c : commits) {
        c.read_set = RandomSet(rng, n, 4);
        while (c.write_set.empty()) c.write_set = RandomSet(rng, n, 4);
        sequential.ApplyCommit(c.read_set, c.write_set, cycle);
      }
      batched.ApplyCommitBatch(commits, cycle);
    }
    ASSERT_TRUE(batched == sequential) << "seed " << seed;
  }
}

TEST(SparseFMatrixTest, SetMatchesDenseIncludingErasure) {
  for (uint32_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(400 + seed);
    const uint32_t n = 9;
    Pair pair(n);
    for (int step = 0; step < 200; ++step) {
      const ObjectId i = static_cast<ObjectId>(rng.NextBounded(n));
      const ObjectId j = static_cast<ObjectId>(rng.NextBounded(n));
      const Cycle c = rng.NextBounded(4);  // small range so values collide/erase
      pair.dense.Set(i, j, c);
      pair.sparse.Set(i, j, c);
    }
    ASSERT_TRUE(ControlView(pair.sparse) == ControlView(pair.dense)) << "seed " << seed;
  }
}

TEST(SparseFMatrixTest, FromDenseUsesMostFrequentValueAsFloor) {
  // A column dominated by one nonzero value (the channel-refresh decode
  // shape) must compress to a nonzero floor with few explicit entries.
  FMatrix dense(16);
  for (ObjectId i = 0; i < 16; ++i) dense.Set(i, 3, 40);
  dense.Set(5, 3, 41);
  dense.Set(9, 3, 2);
  const SparseFMatrix sparse = SparseFMatrix::FromDense(dense);
  EXPECT_TRUE(ControlView(sparse) == ControlView(dense));
  EXPECT_EQ(sparse.Column(3).floor, 40u);
  EXPECT_EQ(sparse.ColumnNnz(3), 2u);
}

TEST(SparseFMatrixTest, EqualityComparesFloorsOfRowsImplicitOnBothSides) {
  // Explicit rows {0, 1} on both sides (2 + 2 >= n), yet row 2 is implicit
  // on both and reads each side's floor: 5 against 6.
  FMatrix a(3), b(3);
  const Cycle col_a[] = {7, 9, 5}, col_b[] = {7, 9, 6};
  for (ObjectId i = 0; i < 3; ++i) {
    a.Set(i, 0, col_a[i]);
    b.Set(i, 0, col_b[i]);
  }
  const SparseFMatrix sa = SparseFMatrix::FromDense(a);
  const SparseFMatrix sb = SparseFMatrix::FromDense(b);
  ASSERT_EQ(sa.ColumnNnz(0), 2u);
  ASSERT_EQ(sb.ColumnNnz(0), 2u);
  EXPECT_NE(sa.At(2, 0), sb.At(2, 0));
  EXPECT_FALSE(sa == sb);
  EXPECT_FALSE(ControlView(sa) == ControlView(sb));
  EXPECT_TRUE(sa == SparseFMatrix::FromDense(a));
}

TEST(SparseFMatrixTest, CompactModuloPreservesResiduesAndDecodes) {
  for (unsigned ts_bits : {2u, 3u, 8u}) {
    const CycleStampCodec codec(ts_bits);
    for (uint32_t seed = 0; seed < kSeeds; ++seed) {
      Rng rng(500 + seed);
      const uint32_t n = 8 + static_cast<uint32_t>(rng.NextBounded(12));
      Pair pair(n);
      // Run well past the wraparound horizon for small ts.
      const Cycle last = 20 + 6 * codec.max_cycles();
      for (Cycle cycle = 1; cycle <= last; ++cycle) pair.RandomCommit(rng, cycle, 4);

      SparseFMatrix compacted = pair.sparse;
      compacted.EnableDirtyTracking();
      const uint64_t nnz_before = compacted.nnz();
      const uint64_t dropped = compacted.CompactModulo(codec, last);
      EXPECT_EQ(compacted.nnz() + dropped, nnz_before);

      for (ObjectId i = 0; i < n; ++i) {
        for (ObjectId j = 0; j < n; ++j) {
          const Cycle before = pair.sparse.At(i, j);
          const Cycle after = compacted.At(i, j);
          // Same residue -> every wire-codec consumer behaves identically,
          // at the compaction cycle and any later one.
          ASSERT_EQ(codec.Encode(before), codec.Encode(after))
              << "ts " << ts_bits << " seed " << seed;
          // And the stored value is exactly the windowed decode at `last`.
          ASSERT_EQ(after, codec.Decode(codec.Encode(before), last));
        }
      }

      // Compacting an already-compacted matrix at the same cycle is a no-op.
      SparseFMatrix again = compacted;
      EXPECT_EQ(again.CompactModulo(codec, last), 0u);
      EXPECT_TRUE(again == compacted);
    }
  }
}

TEST(SparseFMatrixTest, ControlBitsSublinearVsDense) {
  // Fixed workload, growing n: the dense broadcast grows as n^2 while the
  // sparse encoding tracks nnz, which the workload (not n) bounds.
  const unsigned ts_bits = 8;
  uint64_t prev_sparse = 0;
  for (uint32_t n : {1u << 8, 1u << 10, 1u << 12}) {
    Rng rng(7);
    SparseFMatrix sparse(n);
    for (Cycle cycle = 1; cycle <= 50; ++cycle) {
      const std::vector<ObjectId> rs = RandomSet(rng, n, 4);
      std::vector<ObjectId> ws;
      while (ws.empty()) ws = RandomSet(rng, n, 4);
      sparse.ApplyCommit(rs, ws, cycle);
    }
    const uint64_t sparse_bits = SparseMatrixControlBits(sparse, ts_bits);
    const uint64_t dense_bits = FullMatrixControlBits(n, ts_bits);
    EXPECT_LT(sparse_bits * 16, dense_bits) << "n " << n;
    if (prev_sparse != 0) {
      // Quadrupling n must not even double the sparse footprint (only the
      // per-entry index width grows).
      EXPECT_LT(sparse_bits, prev_sparse * 2) << "n " << n;
    }
    prev_sparse = sparse_bits;
  }
}

TEST(SparseFMatrixTest, ControlBitsFormula) {
  // 32-bit header; per nonempty column: 4-bit id + ts + 32-bit count; per
  // entry: 4-bit row + ts.
  EXPECT_EQ(SparseMatrixControlBits(0, 0, 16, 8), 32u);
  EXPECT_EQ(SparseMatrixControlBits(3, 2, 16, 8),
            32u + 2 * (4 + 8 + 32) + 3 * (4 + 8));
  // n = 1 needs no index bits at all.
  EXPECT_EQ(SparseMatrixControlBits(1, 1, 1, 2), 32u + (0 + 2 + 32) + (0 + 2));
}

TEST(SparseWireTest, DiffColumnsMatchesDenseOracle) {
  for (unsigned ts_bits : {2u, 3u, 8u}) {
    const CycleStampCodec codec(ts_bits);
    for (uint32_t seed = 0; seed < kSeeds; ++seed) {
      Rng rng(600 + seed);
      const uint32_t n = 8 + static_cast<uint32_t>(rng.NextBounded(10));
      Pair pair(n);
      pair.dense.EnableDirtyTracking();
      pair.sparse.EnableDirtyTracking();
      FMatrix prev_dense(n);
      SparseFMatrix prev_sparse(n);
      std::vector<ObjectId> touched_dense, touched_sparse;
      for (Cycle cycle = 1; cycle <= 30; ++cycle) {
        const uint32_t commits = 1 + static_cast<uint32_t>(rng.NextBounded(3));
        for (uint32_t c = 0; c < commits; ++c) pair.RandomCommit(rng, cycle, 4);
        pair.dense.DrainTouchedColumns(touched_dense);
        pair.sparse.DrainTouchedColumns(touched_sparse);
        ASSERT_EQ(touched_dense, touched_sparse);
        const auto want =
            DeltaCodec::DiffColumns(prev_dense, pair.dense, touched_dense, codec);
        const auto got =
            DeltaCodec::DiffColumns(prev_sparse, pair.sparse, touched_sparse, codec);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " cycle " << cycle;
        for (size_t k = 0; k < want.size(); ++k) {
          ASSERT_EQ(got[k].row, want[k].row);
          ASSERT_EQ(got[k].col, want[k].col);
          ASSERT_EQ(got[k].residue, want[k].residue);
        }
        // Fold the delta into both bases via the two Apply overloads; the
        // bases must stay value-identical (at small ts the decode aliases,
        // identically on both sides).
        DeltaCodec::Apply(&prev_dense, want, codec, cycle);
        DeltaCodec::Apply(&prev_sparse, got, codec, cycle);
        ASSERT_TRUE(ControlView(prev_sparse) == ControlView(prev_dense))
            << "seed " << seed << " cycle " << cycle;
      }
    }
  }
}

TEST(SparseWireTest, ApplyHandlesDuplicateEntriesLastWins) {
  const CycleStampCodec codec(8);
  FMatrix dense(4);
  SparseFMatrix sparse(4);
  const std::vector<DeltaCodec::Entry> entries = {
      {1, 2, codec.Encode(5)}, {1, 2, codec.Encode(9)}, {3, 2, codec.Encode(7)}};
  DeltaCodec::Apply(&dense, entries, codec, 10);
  DeltaCodec::Apply(&sparse, entries, codec, 10);
  EXPECT_TRUE(ControlView(sparse) == ControlView(dense));
  EXPECT_EQ(sparse.At(1, 2), 9u);
}

TEST(SparseWireTest, PackMatrixByteIdenticalToDense) {
  for (unsigned ts_bits : {2u, 3u, 8u}) {
    const CycleStampCodec codec(ts_bits);
    Rng rng(700 + ts_bits);
    Pair pair(13);
    for (Cycle cycle = 1; cycle <= 25; ++cycle) pair.RandomCommit(rng, cycle, 4);
    EXPECT_EQ(PackMatrix(pair.sparse, codec), PackMatrix(pair.dense, codec));
  }
}

TEST(SparseFMatrixTest, MaterializeColumnMatchesDense) {
  Rng rng(42);
  Pair pair(14);
  for (Cycle cycle = 1; cycle <= 25; ++cycle) pair.RandomCommit(rng, cycle, 4);
  std::vector<Cycle> got, scratch;
  for (ObjectId j = 0; j < 14; ++j) {
    pair.sparse.MaterializeColumn(j, got);
    const std::span<const Cycle> want = pair.dense.Column(j);
    ASSERT_TRUE(std::ranges::equal(got, want)) << "col " << j;
    // Through the view: the dense column is the stored page itself, the
    // sparse one the materialized column.
    const std::span<const Cycle> dense_col = ControlView(pair.dense).Column(j, scratch);
    EXPECT_EQ(dense_col.data(), want.data()) << "col " << j;
    ASSERT_TRUE(std::ranges::equal(ControlView(pair.sparse).Column(j, scratch), want))
        << "col " << j;
  }
}

}  // namespace
}  // namespace bcc
