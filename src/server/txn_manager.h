// The server's update-transaction manager (Section 3.2.1, server
// functions 2 and 3).
//
// Update transactions — whether originated at the server or submitted by
// clients over the uplink — are executed and committed serially, which is
// the paper's "simple case where the entries are updated as per a
// serialization order". Each commit atomically:
//   - installs the transaction's writes into the two-version store, whose
//     per-object commit cycles (values[i].cycle) are the reduced vector
//     MC(i) that R-Matrix and Datacycle broadcast,
//   - applies the Theorem 2 incremental update to the F-Matrix, and
//   - (optionally) appends the operations to a recorded history so tests
//     can replay the run through the APPROX/legality oracles.

#ifndef BCC_SERVER_TXN_MANAGER_H_
#define BCC_SERVER_TXN_MANAGER_H_

#include <unordered_map>
#include <vector>

#include <optional>

#include "history/history.h"
#include "history/object_id.h"
#include "matrix/f_matrix.h"
#include "matrix/hier_matrix.h"
#include "matrix/sparse_f_matrix.h"
#include "server/store.h"

namespace bcc {

/// An update transaction to run at the server: reads first, then writes
/// (Appendix A form). Sets must be duplicate-free.
struct ServerTxn {
  TxnId id = kNoTxn;
  std::vector<ObjectId> read_set;
  std::vector<ObjectId> write_set;
};

/// Options controlling which structures the manager maintains. Simulations
/// disable what their algorithm does not need.
struct TxnManagerOptions {
  bool maintain_f_matrix = true;
  /// Read by nothing: the store's commit cycles are the MC vector. Kept only
  /// because the traced replays in perfbench/ still assign it; delete it
  /// with them.
  bool maintain_mc_vector = true;
  bool record_history = false;
  /// Record which F-Matrix columns commits rewrite (requires
  /// maintain_f_matrix); drained via TakeTouchedColumns for delta broadcast.
  bool track_dirty_columns = false;
  /// Fuse each broadcast cycle's F-Matrix maintenance into one
  /// FMatrix::ApplyCommitBatch call (bit-identical to the per-commit path;
  /// DESIGN.md §4g). Commits queue until the cycle advances or the matrix is
  /// observed (f_matrix(), SnapshotFMatrix(), TakeTouchedColumns), so every
  /// reader still sees exactly the sequential-maintenance state. The store
  /// (and with it every MC(i) stamp) is always written eagerly — the uplink
  /// validator reads it mid-cycle. Disable to force the per-commit oracle
  /// path.
  bool batch_commit_maintenance = true;
  /// Maintain the control matrix in compressed-sparse-column form
  /// (MatrixMode::kSparse): value-identical to the dense FMatrix, O(nnz)
  /// per commit. May be combined with maintain_f_matrix (parity tests);
  /// the sims enable exactly one. Dirty-column drains prefer the sparse
  /// matrix when both track.
  bool maintain_sparse_matrix = false;
  /// Maintain the hierarchical matrix (MatrixMode::kHier) with these policy
  /// options. The sim drives its cycle-boundary policy via
  /// hier_matrix()->EndOfCycle.
  bool maintain_hier_matrix = false;
  HierMatrixOptions hier_options = {};
};

/// Serial update-transaction executor.
class ServerTxnManager {
 public:
  ServerTxnManager(uint32_t num_objects, TxnManagerOptions options = {});

  uint32_t num_objects() const { return store_.num_objects(); }

  /// Executes `txn` (reads then writes against committed state) and commits
  /// it during broadcast cycle `cycle`. Cycles must be non-decreasing across
  /// calls. Returns the values read (for logging/validation).
  std::vector<ObjectVersion> ExecuteAndCommit(const ServerTxn& txn, Cycle cycle);

  const VersionedStore& store() const { return store_; }

  /// The F-Matrix after every commit so far. Logically const: with commit
  /// batching enabled this flushes the pending cycle batch first (observing
  /// the matrix forces the queued maintenance), which is why the accessor
  /// const_casts internally; callers must not invoke it concurrently with
  /// ExecuteAndCommit (the engines only read it in the server's exclusive
  /// phase).
  const FMatrix& f_matrix() const {
    const_cast<ServerTxnManager*>(this)->FlushCommitBatch();
    return f_matrix_;
  }

  /// The sparse control matrix (options.maintain_sparse_matrix); flushes the
  /// pending batch like f_matrix(). Size-0 matrix when not maintained.
  const SparseFMatrix& sparse_f_matrix() const {
    const_cast<ServerTxnManager*>(this)->FlushCommitBatch();
    return sparse_f_matrix_;
  }

  /// Stable snapshot of the sparse matrix for the cycle's CycleSnapshot:
  /// the column table's pages and their payloads are shared with the live
  /// matrix (SparseFMatrix::Snapshot). O(n / page size).
  std::shared_ptr<const SparseFMatrix> SnapshotSparseFMatrix() const {
    return std::make_shared<const SparseFMatrix>(sparse_f_matrix().Snapshot());
  }

  /// Wraparound-horizon compaction of the sparse matrix (sparse mode with
  /// use_wire_codec only; see SparseFMatrix::CompactModulo for the
  /// conservative-safety argument). Flushes the pending batch first. Returns
  /// the number of entries dropped.
  uint64_t CompactSparseMatrix(const CycleStampCodec& codec, Cycle current) {
    FlushCommitBatch();
    return sparse_f_matrix_.CompactModulo(codec, current);
  }

  /// The hierarchical matrix (options.maintain_hier_matrix), mutable because
  /// scans record spurious-abort evidence and EndOfCycle applies policy.
  /// Flushes the pending batch first. nullptr when not maintained.
  HierMatrix* hier_matrix() {
    FlushCommitBatch();
    return hier_matrix_ ? &*hier_matrix_ : nullptr;
  }

  /// Page-shared snapshot of the F-Matrix after every commit so far
  /// (flushes the pending batch like f_matrix()). O(n) pointers; the live
  /// matrix then copies each column on its first write, O(n * touched
  /// columns) per cycle in steady state.
  FMatrix SnapshotFMatrix() const { return f_matrix().Snapshot(); }

  /// Drains the control-matrix columns rewritten by commits since the last
  /// drain (options.track_dirty_columns must be set; drains the sparse
  /// matrix's list when it is maintained, the dense one's otherwise — the
  /// orders are identical by construction). Called once per broadcast cycle
  /// by the delta broadcaster.
  std::vector<ObjectId> TakeTouchedColumns() {
    FlushCommitBatch();
    return options_.maintain_sparse_matrix ? sparse_f_matrix_.TakeTouchedColumns()
                                           : f_matrix_.TakeTouchedColumns();
  }

  /// Capacity-preserving variant (see FMatrix::DrainTouchedColumns).
  void DrainTouchedColumns(std::vector<ObjectId>& out) {
    FlushCommitBatch();
    if (options_.maintain_sparse_matrix) {
      sparse_f_matrix_.DrainTouchedColumns(out);
    } else {
      f_matrix_.DrainTouchedColumns(out);
    }
  }

  /// Pooled-apply mode: route the cycle-batch F-Matrix fold through `runner`
  /// with `num_shards` column partitions (FMatrix::ApplyCommitBatch's
  /// sharded overload; bit-identical to the serial fold). The engines pass
  /// the TxnProcessor's pool here so fold cost itself parallelizes. An empty
  /// runner or num_shards <= 1 restores the serial fold.
  void SetParallelFold(ShardRunner runner, uint32_t num_shards) {
    fold_runner_ = std::move(runner);
    fold_shards_ = num_shards;
  }

  /// Commit cycle of every committed transaction (for oracles; empty
  /// unless options.record_history, like recorded_history()).
  const std::unordered_map<TxnId, Cycle>& commit_cycles() const { return commit_cycles_; }

  /// Recorded update history (empty unless options.record_history).
  const History& recorded_history() const { return history_; }

  size_t num_committed() const { return num_committed_; }

 private:
  /// Applies the queued cycle batch to the F-Matrix (no-op when empty).
  void FlushCommitBatch();

  TxnManagerOptions options_;
  VersionedStore store_;
  FMatrix f_matrix_;
  SparseFMatrix sparse_f_matrix_;
  std::optional<HierMatrix> hier_matrix_;
  History history_;
  std::unordered_map<TxnId, Cycle> commit_cycles_;
  size_t num_committed_ = 0;
  Cycle last_cycle_ = 0;

  // Pending cycle batch (options.batch_commit_maintenance): the first
  // `batch_size_` elements of `batch_` hold the read/write sets of this
  // cycle's not-yet-applied commits; slots are reused across cycles so the
  // steady-state path does not allocate.
  std::vector<CommitSets> batch_;
  size_t batch_size_ = 0;
  Cycle batch_cycle_ = 0;

  // Pooled-apply fold (SetParallelFold); empty = serial fold.
  ShardRunner fold_runner_;
  uint32_t fold_shards_ = 0;
};

}  // namespace bcc

#endif  // BCC_SERVER_TXN_MANAGER_H_
