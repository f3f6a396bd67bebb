// Hierarchical control matrix: coarse n x g group columns with on-demand
// per-column refinement (ROADMAP item 4b).
//
// The paper's group matrix (Section 3.2.2) fixes g for the whole run; every
// object pays the same precision whether or not it ever conflicts. This tier
// keeps an exact SparseFMatrix on the server and derives the client-visible
// view lazily:
//
//   - unrefined column j is validated against the group aggregate
//       MC(i, s) = max_{j' in s} C(i, j'),   s = group(j),
//     rebuilt only when a commit dirtied the group (and only for groups a
//     read actually consults);
//   - refined columns are validated against the exact C(:, j).
//
// MC(i, s) >= C(i, j) for every member j, so the hierarchical view is
// conservative: it can only abort reads the exact matrix would accept
// (spurious aborts), never accept reads the exact matrix would reject.
// Safety therefore never depends on the refinement state; refinement is a
// pure precision/bits trade-off.
//
// Policy (all transitions happen at cycle boundaries, never during a cycle's
// validation, so in-flight checks always see a frozen view):
//   - a spurious abort (group check fails, exact check passes) queues the
//     column for refinement at the next EndOfCycle;
//   - refined columns idle for `coarsen_idle_cycles` fall back to the group;
//   - every `regroup_period` cycles the partition adapts: groups that
//     accumulated >= `split_threshold` spurious aborts split in half, and
//     adjacent spurious-free group pairs merge — bits migrate to where the
//     per-cause abort breakdown says conflicts actually are. The adaptive
//     pass is gated on the period having seen control-conflict aborts at
//     all (fed from the sim's AbortBreakdown).
//
// Unlike SparseFMatrix, the hierarchical view is NOT bit-identical to a
// dense run: spurious aborts change decisions. Correctness is established
// end-to-end instead (hier_matrix_test: conservative vs the exact oracle on
// every decision; sparse_sim_test: recorded histories pass VerifyOracle).

#ifndef BCC_MATRIX_HIER_MATRIX_H_
#define BCC_MATRIX_HIER_MATRIX_H_

#include <span>
#include <vector>

#include "common/cycle_stamp.h"
#include "history/object_id.h"
#include "matrix/control_info.h"
#include "matrix/kernels.h"
#include "matrix/sparse_f_matrix.h"

namespace bcc {

struct HierMatrixOptions {
  /// Initial balanced block partition size (clamped to [1, n]).
  uint32_t initial_groups = 64;
  /// Adaptive-g bounds. min_groups == max_groups pins g (no regrouping).
  uint32_t min_groups = 1;
  uint32_t max_groups = 1u << 16;
  /// Max simultaneously refined columns; 0 = unlimited.
  uint32_t refine_limit = 1024;
  /// Unrefine a column untouched for this many cycles; 0 = never coarsen.
  uint32_t coarsen_idle_cycles = 64;
  /// Cycles between adaptive split/merge passes; 0 = fixed partition.
  uint32_t regroup_period = 32;
  /// Spurious aborts charged to a group within one regroup period that
  /// trigger a split.
  uint64_t split_threshold = 4;
};

/// Counters for the metrics exporter (`hier.*` gauges, SimSummary).
struct HierStats {
  uint64_t refinements = 0;      ///< columns promoted to exact
  uint64_t coarsenings = 0;      ///< refined columns demoted to group
  uint64_t regroups = 0;         ///< adaptive passes that changed the partition
  uint64_t group_splits = 0;
  uint64_t group_merges = 0;
  uint64_t spurious_aborts = 0;  ///< group check fired where exact passes
  uint64_t group_rebuilds = 0;   ///< lazy group-column materializations

  bool operator==(const HierStats&) const = default;
};

class HierMatrix {
 public:
  HierMatrix(uint32_t num_objects, HierMatrixOptions options = {});

  uint32_t num_objects() const { return exact_.num_objects(); }
  uint32_t num_groups() const { return static_cast<uint32_t>(members_.size()); }
  uint32_t GroupOf(ObjectId ob) const { return group_of_[ob]; }
  bool Refined(ObjectId j) const { return refined_[j] != 0; }
  uint32_t refined_columns() const { return static_cast<uint32_t>(refined_list_.size()); }
  const SparseFMatrix& exact() const { return exact_; }
  const HierStats& stats() const { return stats_; }

  /// Theorem 2 maintenance on the exact matrix + dirty-group marking.
  /// O(commit sparse cost + |WS|).
  void ApplyCommit(std::span<const ObjectId> read_set, std::span<const ObjectId> write_set,
                   Cycle commit_cycle);
  void ApplyCommitBatch(std::span<const CommitSets> commits, Cycle commit_cycle);

  /// The client-visible control value: exact C(i, j) if column j is refined,
  /// MC(i, group(j)) otherwise. Non-const: may lazily rebuild the group
  /// aggregate.
  Cycle EffectiveAt(ObjectId i, ObjectId j);

  /// Read validation of "read ob_j" against the hierarchical view: first
  /// read record failing, or kReadConditionPass. A group-level failure is
  /// classified against the exact matrix; spurious failures queue column j
  /// for refinement at the next EndOfCycle. `current` stamps refined-column
  /// usage for idle coarsening.
  size_t ReadConditionScan(std::span<const ReadRecord> reads, ObjectId j, Cycle current);
  bool ReadCondition(std::span<const ReadRecord> reads, ObjectId j, Cycle current) {
    return ReadConditionScan(reads, j, current) == kReadConditionPass;
  }

  /// Cycle-boundary policy step: applies pending refinements, coarsens idle
  /// columns, and (when due) runs the adaptive split/merge pass.
  /// `control_conflict_aborts` is the run's cumulative kControlConflict
  /// count from the sim's AbortBreakdown; the adaptive pass only acts on
  /// periods where it advanced. Must not be called while a cycle's reads
  /// are still being validated.
  void EndOfCycle(Cycle cycle, uint64_t control_conflict_aborts);

  /// Per-cycle control footprint of the hierarchical view, in bits: the
  /// group columns and refined columns in the sparse wire encoding, plus
  /// the mapping updates (refinement flips, regroup moves) accumulated
  /// since the last call. Rebuilds dirty group aggregates (that cost is
  /// part of the cycle's control-plane work).
  uint64_t ControlBits(unsigned ts_bits);

 private:
  void EnsureGroup(uint32_t s);
  void QueueRefine(ObjectId j);
  void RegroupPass();
  /// Rebuilds group_of_/caches/counters from members_ after a structural
  /// change and charges the mapping-update bits.
  void InstallPartition(std::vector<std::vector<ObjectId>> members);

  HierMatrixOptions opts_;
  SparseFMatrix exact_;

  std::vector<uint32_t> group_of_;
  std::vector<std::vector<ObjectId>> members_;  ///< sorted object ids per group

  // Lazy group aggregates, held by value.
  std::vector<SparseColumnData> group_cols_;
  std::vector<uint8_t> group_dirty_;

  // Refinement state.
  std::vector<uint8_t> refined_;
  std::vector<Cycle> last_used_;         ///< per refined column
  std::vector<ObjectId> refined_list_;   ///< for O(refined) coarsening scans
  std::vector<ObjectId> pending_refine_;
  std::vector<uint8_t> pending_mask_;

  // Adaptive-g bookkeeping.
  std::vector<uint64_t> group_spurious_;
  Cycle last_regroup_cycle_ = 0;
  uint64_t regroup_abort_watermark_ = 0;
  uint64_t pending_mapping_bits_ = 0;

  HierStats stats_;
  std::vector<SparseColumnData::Entry> rebuild_scratch_;
};

}  // namespace bcc

#endif  // BCC_MATRIX_HIER_MATRIX_H_
