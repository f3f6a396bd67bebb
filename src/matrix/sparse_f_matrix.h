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
//      depends on j within WS). One immutable payload is built per commit
//      and shared by every WS column, so per-commit maintenance is
//      O(sum nnz(RS) + |WS| log |WS|), independent of n.
//   2. Entries only become non-default through commits, and a run of C
//      commits of length L materializes at most O(C * L) distinct stamps —
//      bounded by the workload, not by n^2. (Stamps below the TS-bit
//      wraparound horizon stay distinct in value but are indistinguishable
//      mod 2^ts to every wire-codec consumer; CompactModulo exploits that —
//      see below.)
//
// Payload lifetime (DESIGN.md §4g). The column table is a CowPages of plain
// payload pointers, null for the empty column, so a snapshot or a page copy
// moves pointers and touches no reference count. Payloads are created only
// by the matrix and never change once installed. Each records the table
// generation of the matrix that created it, so the CowPages rule tells
// owned payloads from borrowed ones, as it does for pages. The owner counts,
// on its own thread, the slots of its live table that point at each payload
// it owns; a payload whose count drops to 0 is freed at once if no copy was
// taken since it was created, else retired and freed by the owner once the
// table's low watermark shows no live copy can see it. Copies share one
// reference to the owner's payload pool, so payloads stay readable through
// them after the owner dies; the pool, and the payloads in it, go with the
// last of them. A matrix copied from another keeps that pool alive and
// creates payloads in a pool of its own from its first write on.
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

/// One sparse column: a matrix's immutable column payload (shared by all
/// the columns a commit wrote, by consecutive cycle snapshots and by client
/// trackers that adopted a refresh), or a column held by value.
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
  /// A column payload: the column plus its owner's bookkeeping.
  struct Payload;
  /// Every payload one matrix created and has not freed.
  struct PayloadPool;

 public:
  /// The column table: one payload pointer per column, null if empty.
  using ColumnTable = CowPages<Payload*>;

  /// All entries start at cycle 0: every column is a null (empty) pointer
  /// in one shared zero page, so construction is O(n / page size).
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
  /// Two columns sharing a payload return the same object.
  const SparseColumnData& Column(ObjectId j) const;

  /// The immutable copy a cycle snapshot holds: shares every page of the
  /// column table (the live matrix copies a page on its next write to it)
  /// and the payload pool, and leaves out dirty tracking and commit scratch.
  /// O(n / page size).
  SparseFMatrix Snapshot() const;
  /// The paged column table (snapshot cost accounting and tests).
  const ColumnTable& column_pages() const { return cols_; }

  /// Payload accounting (tests): the slots of this matrix's table that point
  /// at column j's payload if this matrix created it (0 for an empty or
  /// borrowed column); payloads it dropped from its table (cumulative); the
  /// dropped ones a live copy may still see, not yet freed; and all payloads
  /// it created and has not freed.
  uint32_t ColumnPayloadRefs(ObjectId j) const;
  uint64_t payloads_dropped() const { return payloads_dropped_; }
  size_t retired_payloads() const;
  size_t owned_payloads() const;

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
  /// Writes `updates` (ascending by row; of equal rows the last wins) into
  /// column j with one payload rebuild. O(nnz(column j) + |updates|).
  void MergeIntoColumn(ObjectId j, std::span<const SparseColumnData::Entry> updates);

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
  /// The payload pool this matrix creates payloads in once it owns one, or
  /// until then the pool of the matrix it was copied from. A copy shares the
  /// pool without owning it.
  struct PoolRef {
    std::shared_ptr<PayloadPool> pool;
    bool owned = false;
    PoolRef() = default;
    PoolRef(const PoolRef& other) : pool(other.pool) {}
    PoolRef& operator=(const PoolRef& other) {
      if (this != &other) {
        pool = other.pool;
        owned = false;
      }
      return *this;
    }
    PoolRef(PoolRef&&) noexcept = default;
    PoolRef& operator=(PoolRef&&) noexcept = default;
  };

  /// A fresh payload owned by this matrix, stamped with its generation.
  Payload* NewPayload();
  /// `p`, or null (freeing `p`) if it is the empty column.
  Payload* Seal(Payload* p);
  /// Points column j at `next` (null or a payload this matrix created).
  void Install(ObjectId j, Payload* next);
  /// Frees or retires an owned payload no slot of the live table points at.
  void Drop(Payload* p);
  void MarkTouched(ObjectId j);
  /// nnz/nonempty accounting for replacing column payload `cur` with `next`.
  void Account(const SparseColumnData& cur, const SparseColumnData& next);

  ColumnTable cols_;
  PoolRef pool_;
  uint64_t payloads_dropped_ = 0;
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
