// Compressed-sparse-column F-Matrix (ROADMAP item 4).
//
// The dense n x n control matrix is O(n^2) memory and every per-cycle cost
// (snapshot, diff, broadcast packing) is Omega(n) per touched column — a dead
// end at n = 10^6. This representation stores, per column, only the entries
// that differ from the column's implicit default (its "floor"); everything
// else is implicit. Two structural facts make it exact AND cheap:
//
//   1. Theorem 2 writes the SAME content into every write-set column of a
//      commit (C(i, j) = commit_cycle for i in WS, dep(i) otherwise — nothing
//      depends on j within WS). One immutable ColumnData is built per commit
//      and shared by every WS column, so per-commit maintenance is
//      O(sum nnz(RS) + |WS| log |WS|), independent of n.
//   2. Entries only become non-default through commits, and a run of C
//      commits of length L materializes at most O(C * L) distinct stamps —
//      bounded by the workload, not by n^2. (Stamps below the TS-bit
//      wraparound horizon stay distinct in value but are indistinguishable
//      mod 2^ts to every wire-codec consumer; CompactModulo exploits that —
//      see below.)
//
// Exactness invariant: At(i, j) returns the exact absolute cycle the dense
// FMatrix would hold — the sparse form is a representation change only, so
// the dense matrix remains a bit-for-bit oracle (sparse_f_matrix_test), wire
// packings of a sparse snapshot are byte-identical to dense ones, and every
// downstream decision (read validation, delta diffing, frame bytes) is
// bit-identical to a dense run.
//
// Column invariant: entries are sorted by row, each entry's value differs
// from the column floor, and on the server maintenance path every entry is
// >= the floor (floors are max-merged on commit, so dep(i) >= floor always).
// Set/ApplyDelta (client-side reconstruction) may store arbitrary values;
// only value != floor is required there.

#ifndef BCC_MATRIX_SPARSE_F_MATRIX_H_
#define BCC_MATRIX_SPARSE_F_MATRIX_H_

#include <memory>
#include <span>
#include <vector>

#include "common/cow_pages.h"
#include "common/cycle_stamp.h"
#include "history/object_id.h"
#include "matrix/control_info.h"
#include "matrix/f_matrix.h"

namespace bcc {

/// One immutable sparse column. Shared (shared_ptr) between all columns a
/// commit wrote, between consecutive cycle snapshots, and between the server
/// matrix and client trackers that adopted it on a refresh. An empty column
/// (floor 0, no entries) is held as a null handle instead, so copying a page
/// of the column table touches no shared refcount for it.
struct SparseColumnData {
  struct Entry {
    ObjectId row;
    Cycle value;
    friend bool operator==(const Entry&, const Entry&) = default;
  };
  /// Implicit value of every row without an explicit entry. Exact, not a
  /// bound: At() returns it verbatim.
  Cycle floor = 0;
  /// Sorted by row; value != floor for every entry.
  std::vector<Entry> entries;

  Cycle At(ObjectId row) const;
};

/// The compressed-sparse-column control matrix. Value-identical to an
/// FMatrix maintained by the same ApplyCommit stream; all hot operations are
/// O(nnz of the columns involved), never O(n).
class SparseFMatrix {
 public:
  /// All entries start at cycle 0: every column is a null (empty) handle in
  /// one shared zero page, so construction is O(n / page size).
  explicit SparseFMatrix(uint32_t num_objects) : cols_(num_objects) {}

  uint32_t num_objects() const { return cols_.size(); }

  /// C(i, j). O(log nnz(column j)).
  Cycle At(ObjectId i, ObjectId j) const { return Column(j).At(i); }

  /// Explicit entries in column j / the whole matrix (shared payloads are
  /// counted once per column that references them — the logical footprint).
  size_t ColumnNnz(ObjectId j) const { return Column(j).entries.size(); }
  uint64_t nnz() const { return nnz_; }
  /// Columns with a nonzero floor or at least one explicit entry — the
  /// columns a sparse wire encoding must mention at all.
  uint32_t nonempty_columns() const { return nonempty_cols_; }

  /// Column j's payload; an empty column reads as one static empty payload.
  const SparseColumnData& Column(ObjectId j) const;
  /// Column j's shared handle; nullptr for an empty column.
  const std::shared_ptr<const SparseColumnData>& ColumnData(ObjectId j) const {
    return cols_[j];
  }
  /// Installs a shared column payload (tracker refresh adoption, delta-base
  /// folds); null or empty installs the empty column. Updates nnz accounting
  /// and dirty tracking like a rewrite.
  void AssignColumn(ObjectId j, std::shared_ptr<const SparseColumnData> data);

  /// The immutable copy a cycle snapshot holds: shares every page of the
  /// column table (the live matrix copies a page on its next write to it)
  /// and leaves out dirty tracking and commit scratch. O(n / page size).
  SparseFMatrix Snapshot() const;
  /// The paged column table (snapshot cost accounting and tests).
  const CowPages<std::shared_ptr<const SparseColumnData>>& column_pages() const { return cols_; }

  /// Materializes column j into `out` (resized to n). O(n) — wire packing
  /// and oracle checks only, never on the commit path.
  void MaterializeColumn(ObjectId j, std::vector<Cycle>& out) const;

  /// Theorem 2 incremental maintenance, value-identical to
  /// FMatrix::ApplyCommit. O(sum nnz(RS columns) + |WS| log |WS|).
  void ApplyCommit(std::span<const ObjectId> read_set, std::span<const ObjectId> write_set,
                   Cycle commit_cycle);

  /// Applies the batch in order — bit-identical to per-commit application by
  /// construction (the sparse path needs no fusion: it is already O(nnz)).
  void ApplyCommitBatch(std::span<const CommitSets> commits, Cycle commit_cycle);

  /// Point write via copy-on-write column rebuild (client reconstruction and
  /// tests; the server path goes through ApplyCommit). O(nnz(column j)).
  void Set(ObjectId i, ObjectId j, Cycle c);

  /// Dirty-column tracking with FMatrix semantics: first-touch order, each
  /// column at most once, O(1) per written column.
  void EnableDirtyTracking();
  bool dirty_tracking_enabled() const { return track_dirty_; }
  std::span<const ObjectId> touched_columns() const { return touched_cols_; }
  std::vector<ObjectId> TakeTouchedColumns();
  void DrainTouchedColumns(std::vector<ObjectId>& out);

  /// First read record failing the F-Matrix read condition against column j
  /// (same order and result as KernelReadConditionScan over the dense
  /// column), or kReadConditionPass. O(reads * log nnz(column j)).
  size_t ReadConditionScan(std::span<const ReadRecord> reads, ObjectId j) const;

  /// Wraparound-horizon compaction: rewrites every entry (and floor) to its
  /// windowed decode at `current`, dropping entries whose residue matches the
  /// column floor's. Every rewritten value is congruent mod 2^ts to — and at
  /// least as large as — the exact value, so direct wire-codec reads decide
  /// identically. The system as a whole is conservative rather than
  /// bit-identical to dense, though: a later commit's dependency fold
  /// (dep(i) = max_k C(i, k)) maxes raw values, and an aliased-upward stale
  /// entry can win over a genuinely newer one, shifting the written residue.
  /// The result is always >= the true dependency cycle, so misdecisions are
  /// spurious aborts only — never false accepts. Use only when every client
  /// consumer round-trips stamps through the codec (use_wire_codec).
  /// Returns the number of entries dropped.
  uint64_t CompactModulo(const CycleStampCodec& codec, Cycle current);

  /// Conversions for oracle checks. O(n^2); test/bench use.
  FMatrix ToDense() const;
  static SparseFMatrix FromDense(const FMatrix& dense);

  /// Value-wise equality (shared or not).
  friend bool operator==(const SparseFMatrix& a, const SparseFMatrix& b);

 private:
  /// Rebuilds column j's payload with entry (i -> c) inserted/updated/erased
  /// per the value-vs-floor rule.
  void SetInColumn(ObjectId j, ObjectId i, Cycle c);
  void MarkTouched(ObjectId j);
  /// nnz/nonempty accounting for replacing column j's payload with `next`.
  void Account(ObjectId j, const SparseColumnData& next);

  CowPages<std::shared_ptr<const SparseColumnData>> cols_;
  uint64_t nnz_ = 0;
  uint32_t nonempty_cols_ = 0;

  /// One read column's unconsumed entries in ApplyCommit's k-way merge.
  struct MergeCursor {
    const SparseColumnData::Entry* it;
    const SparseColumnData::Entry* end;
  };

  // Scratch reused across commits so the steady-state path allocates only
  // when a commit's column (or read set) outgrows every previous one.
  std::vector<SparseColumnData::Entry> merge_scratch_;
  std::vector<ObjectId> ws_scratch_;
  std::vector<MergeCursor> cursor_scratch_;

  bool track_dirty_ = false;
  std::vector<ObjectId> touched_cols_;
  std::vector<uint8_t> touched_mask_;
};

/// Wire size of the sparse control encoding: a 32-bit non-empty-column
/// count, then per non-empty column its id (ceil(log2 n) bits), floor
/// residue (ts bits) and entry count (32 bits), then per entry the row
/// (ceil(log2 n) bits) and value residue (ts bits). This is the per-cycle
/// control footprint the sparse tier is accounted at — O(nnz + columns)
/// bits, vs the dense broadcast's n^2 * ts.
uint64_t SparseMatrixControlBits(uint64_t nnz, uint32_t nonempty_columns, uint32_t num_objects,
                                 unsigned ts_bits);
uint64_t SparseMatrixControlBits(const SparseFMatrix& matrix, unsigned ts_bits);

}  // namespace bcc

#endif  // BCC_MATRIX_SPARSE_F_MATRIX_H_
