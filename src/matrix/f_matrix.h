// F-Matrix: the n x n control matrix of Section 3.2.1.
//
// C(i, j) = the latest cycle in which some transaction that affects the
// latest committed value of ob_j (i.e. is in LIVE(t_j) for the last
// committed writer t_j of ob_j) and also writes ob_i, committed. Cycle 0 is
// the imaginary initial write of every object by t0.
//
// The server maintains C incrementally at each commit (Theorem 2); clients
// validate each read r(ob_j) against column j:
//     read-condition(ob_j):  for all (ob_i, cycle) in R_t : C(i, j) < cycle
// Theorem 1: a read-only transaction passes all its read conditions iff its
// serialization graph S(t_R) is acyclic — i.e. F-Matrix implements APPROX.

#ifndef BCC_MATRIX_F_MATRIX_H_
#define BCC_MATRIX_F_MATRIX_H_

#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/cow_pages.h"
#include "common/cycle_stamp.h"
#include "history/history.h"
#include "history/object_id.h"
#include "matrix/control_info.h"

namespace bcc {

/// The read/write sets of one committed update transaction, as queued for a
/// cycle-fused FMatrix::ApplyCommitBatch.
struct CommitSets {
  std::vector<ObjectId> read_set;
  std::vector<ObjectId> write_set;
};

/// Executes `body(shard)` for every shard in [0, num_shards) — possibly in
/// parallel on a worker pool — and returns only once all shards completed.
/// The shard bodies handed to a runner are mutually independent. This is the
/// seam through which the matrix layer borrows the update engine's thread
/// pool without depending on it (TxnProcessor::RunShards has this shape).
using ShardRunner =
    std::function<void(uint32_t num_shards, const std::function<void(uint32_t)>& body)>;

/// The server-side control matrix, column-major (column j is the unit
/// broadcast right after object j). Each column is one page of a
/// copy-on-write page table (CowPages, DESIGN.md §4g): a copy shares every
/// column, and a write copies a column only on its first write after a
/// copy was taken.
class FMatrix {
 public:
  /// All entries start at cycle 0 (written by t0 before the broadcast).
  explicit FMatrix(uint32_t num_objects = 0);

  uint32_t num_objects() const { return n_; }

  /// C(i, j).
  Cycle At(ObjectId i, ObjectId j) const { return cols_.Page(j)[i]; }

  /// Direct entry assignment; used by from-definition builders and by wire
  /// decoding. Normal maintenance goes through ApplyCommit.
  void Set(ObjectId i, ObjectId j, Cycle c) { cols_.MutablePage(j)[i] = c; }

  /// Column j as a contiguous span of n entries (C(0..n-1, j)).
  std::span<const Cycle> Column(ObjectId j) const { return cols_.Page(j); }

  /// Applies the next committed transaction in the server's serialization
  /// order (Theorem 2's incremental rules):
  ///   - C(i, j) = commit_cycle            for i, j in WS
  ///   - C(i, j) = max_{k in RS} C(i, k)   for i not in WS, j in WS
  ///                                        (0 when RS is empty)
  ///   - unchanged                          otherwise
  /// With dirty tracking enabled, the touched columns (= WS) are recorded so
  /// a delta broadcaster can diff in O(n * touched) instead of O(n^2).
  void ApplyCommit(std::span<const ObjectId> read_set, std::span<const ObjectId> write_set,
                   Cycle commit_cycle);

  /// Cycle-fused maintenance: applies every commit of one broadcast cycle
  /// (they all carry the same `commit_cycle`) in one fused pass, bit-identical
  /// to calling ApplyCommit for each element of `commits` in order (the
  /// argument is in DESIGN.md §4g; commit_batch_test enforces it against the
  /// sequential oracle). Columns written by several commits of the batch are
  /// stored once, from the final writer's dependency vector; dependency
  /// vectors are computed only for commits that still influence the final
  /// matrix. Precondition (trivially true on the server path, where stamps
  /// are past commit cycles): commit_cycle >= every entry currently in the
  /// matrix.
  void ApplyCommitBatch(std::span<const CommitSets> commits, Cycle commit_cycle);

  /// Pooled-apply fold: same contract and bit-identical result as the serial
  /// ApplyCommitBatch, but the column stores (pass 3, the O(n * columns)
  /// part) are partitioned across `num_shards` shards by column id and run
  /// through `runner`. Shards touch disjoint columns, per-shard write-set
  /// masks, and only their own partition's batch_writer_ entries, so the
  /// shard bodies are data-race-free; the analysis and dependency-vector
  /// passes stay serial (they are O(batch) and O(n * needed commits) with
  /// cross-commit dependencies). Falls back to the serial path when `runner`
  /// is empty, `num_shards` <= 1, or the batch is trivial.
  void ApplyCommitBatch(std::span<const CommitSets> commits, Cycle commit_cycle,
                        const ShardRunner& runner, uint32_t num_shards);

  /// A page-shared copy of the columns alone (no scratch, no dirty
  /// tracking): O(n) pointers and one ledger registration. It stays
  /// bit-identical to the matrix it was taken of however that matrix is
  /// written later, and may be copied by any thread while nobody writes it.
  /// Must not run concurrently with a write to this matrix (the engines
  /// snapshot inside the server's exclusive phase).
  FMatrix Snapshot() const;

  /// Cumulative number of columns copied on their first write after a
  /// snapshot (the O(n * touched) per-cycle snapshot cost is asserted
  /// against this counter).
  uint64_t snapshot_columns_copied() const { return cols_.pages_copied(); }
  /// The paged columns (snapshot cost accounting and tests).
  const CowPages<Cycle>& column_pages() const { return cols_; }

  /// Starts recording the set of columns ApplyCommit rewrites. Tracking is
  /// column-granular on purpose: recording a column id is O(1) per written
  /// object, so the per-commit emission cost is O(|WS|) — independent of n —
  /// while entry-exact filtering is deferred to the once-per-cycle
  /// DeltaCodec::DiffColumns pass. Direct Set() calls (wire decoding,
  /// from-definition builders) are NOT tracked; tracking covers the server's
  /// incremental maintenance path only.
  void EnableDirtyTracking();
  bool dirty_tracking_enabled() const { return track_dirty_; }

  /// Columns rewritten by ApplyCommit since construction, EnableDirtyTracking
  /// or the last TakeTouchedColumns — each column at most once, in first-touch
  /// order.
  std::span<const ObjectId> touched_columns() const { return touched_cols_; }

  /// Drains the touched-column set (returns it and resets the tracker).
  std::vector<ObjectId> TakeTouchedColumns();

  /// Capacity-preserving drain: fills `out` with the touched columns (same
  /// contents/order as TakeTouchedColumns) and leaves the tracker holding
  /// `out`'s old — cleared — buffer, so a caller cycling one reusable vector
  /// never re-allocates on the steady-state path.
  void DrainTouchedColumns(std::vector<ObjectId>& out);

  /// The F-Matrix read condition for reading ob_j given the reads so far.
  bool ReadCondition(std::span<const ReadRecord> reads, ObjectId j) const;

  friend bool operator==(const FMatrix& a, const FMatrix& b) {
    return a.n_ == b.n_ && a.cols_ == b.cols_;
  }

 private:
  const Cycle* ColumnPtr(ObjectId j) const { return cols_.Page(j).data(); }
  Cycle* MutableColumnPtr(ObjectId j) { return cols_.MutablePage(j).data(); }
  /// Sizes the per-commit scratch (a snapshot's copy starts without it).
  void PrepareScratch();

  /// ApplyCommitBatch passes 1 + 2 (analysis + dependency vectors); after it
  /// returns, pass 3 only consumes batch state and writes disjoint columns.
  void AnalyzeBatch(std::span<const CommitSets> commits, Cycle commit_cycle);
  /// ApplyCommitBatch epilogue: dirty tracking + union-mask reset.
  void FinishBatch();

  uint32_t n_ = 0;
  CowPages<Cycle> cols_;  // one page per column
  std::vector<Cycle> dep_scratch_;    // reused per ApplyCommit
  std::vector<uint8_t> ws_scratch_;   // write-set mask, zeroed after each commit

  // Batch scratch (ApplyCommitBatch); members so the per-cycle hot path
  // allocates only while warming up.
  struct BatchSource {
    int32_t src_commit;  // -1: pre-batch matrix column `col`; else commit idx
    ObjectId col;
  };
  std::vector<int32_t> batch_writer_;       // last in-batch writer per column
  std::vector<uint8_t> batch_union_mask_;   // union-write-set membership
  std::vector<ObjectId> batch_union_cols_;  // union write set, first-touch order
  std::vector<BatchSource> batch_sources_;  // resolved read sources, flattened
  std::vector<size_t> batch_src_begin_;     // per-commit ranges into batch_sources_
  std::vector<uint8_t> batch_need_;         // commit still influences the result
  std::vector<int32_t> batch_dep_idx_;      // commit -> dep_pool_ slot (-1: none)
  std::vector<std::vector<Cycle>> dep_pool_;
  std::vector<std::vector<uint8_t>> shard_ws_scratch_;  // pooled-apply WS masks

  // Dirty-column tracker (EnableDirtyTracking): first-touch-ordered column
  // ids plus a membership mask so duplicates cost O(1).
  bool track_dirty_ = false;
  std::vector<ObjectId> touched_cols_;
  std::vector<uint8_t> touched_mask_;
};

/// From-definition construction (used to validate Theorem 2): replays the
/// committed update transactions of `history` and computes every entry
/// directly from LIVE sets. `commit_cycles` maps each committed update
/// transaction to the broadcast cycle of its commit. O(n^2 * |H|); test use.
FMatrix FMatrixFromDefinition(const History& history,
                              const std::unordered_map<TxnId, Cycle>& commit_cycles,
                              uint32_t num_objects);

}  // namespace bcc

#endif  // BCC_MATRIX_F_MATRIX_H_
