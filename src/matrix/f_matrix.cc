#include "matrix/f_matrix.h"

#include <algorithm>
#include <cassert>

#include "matrix/kernels.h"

namespace bcc {

std::string_view AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kDatacycle:
      return "Datacycle";
    case Algorithm::kRMatrix:
      return "R-Matrix";
    case Algorithm::kFMatrix:
      return "F-Matrix";
    case Algorithm::kFMatrixNo:
      return "F-Matrix-No";
  }
  return "?";
}

FMatrix::FMatrix(uint32_t num_objects)
    : n_(num_objects), cols_(CowPages<Cycle>::FixedPages(num_objects, num_objects)) {}

void FMatrix::PrepareScratch() {
  if (ws_scratch_.size() == n_) return;
  dep_scratch_.assign(n_, 0);
  ws_scratch_.assign(n_, 0);
}

void FMatrix::ApplyCommit(std::span<const ObjectId> read_set,
                          std::span<const ObjectId> write_set, Cycle commit_cycle) {
  if (write_set.empty()) return;  // read-only: no entry changes
  PrepareScratch();

  // dep(i) = max_{k in RS} C_old(i, k); 0 when the read set is empty.
  Cycle* dep = dep_scratch_.data();
  if (read_set.empty()) {
    KernelColumnFill(dep, 0, n_);
  } else {
    KernelColumnCopy(dep, ColumnPtr(read_set[0]), n_);
    for (size_t k = 1; k < read_set.size(); ++k) {
      KernelColumnMaxMerge(dep, ColumnPtr(read_set[k]), n_);
    }
  }

  // Membership mask for WS (write sets are tiny; a bitmap keeps this O(n)).
  // ws_scratch_ is a member so the per-commit hot path never allocates.
  for (ObjectId w : write_set) ws_scratch_[w] = 1;

  // Rewrite every column j in WS from dep() and the commit cycle. The order
  // over j does not matter: all new columns derive from C_old via
  // dep_scratch_, which was captured before any column is overwritten.
  for (ObjectId j : write_set) {
    KernelColumnSelectFill(MutableColumnPtr(j), ws_scratch_.data(), dep, commit_cycle, n_);
  }
  for (ObjectId w : write_set) ws_scratch_[w] = 0;

  if (track_dirty_) {
    for (ObjectId j : write_set) {
      if (!touched_mask_[j]) {
        touched_mask_[j] = 1;
        touched_cols_.push_back(j);
      }
    }
  }
}

void FMatrix::AnalyzeBatch(std::span<const CommitSets> commits, Cycle commit_cycle) {
  const size_t m = commits.size();

  // Pass 1 — analysis, O(n + sum(|RS| + |WS|)). Resolve each read to its
  // source (the pre-batch matrix column, or the virtual column of the last
  // earlier in-batch writer), build the union write set in first-touch order
  // (matching the sequential dirty-tracking order exactly), and find the
  // final writer of every union column.
  batch_writer_.assign(n_, -1);
  if (batch_union_mask_.size() != n_) batch_union_mask_.assign(n_, 0);
  batch_union_cols_.clear();
  batch_sources_.clear();
  batch_src_begin_.assign(m + 1, 0);
  for (size_t t = 0; t < m; ++t) {
    const CommitSets& cs = commits[t];
    if (cs.write_set.empty()) {  // read-only: no effect, never a source
      batch_src_begin_[t + 1] = batch_sources_.size();
      continue;
    }
    // Reads resolve against the state BEFORE this commit's own writes, so
    // sources point strictly backward (src_commit < t).
    for (ObjectId k : cs.read_set) {
      batch_sources_.push_back({batch_writer_[k], k});
    }
    batch_src_begin_[t + 1] = batch_sources_.size();
    for (ObjectId j : cs.write_set) {
      if (!batch_union_mask_[j]) {
        batch_union_mask_[j] = 1;
        batch_union_cols_.push_back(j);
      }
      batch_writer_[j] = static_cast<int32_t>(t);
    }
  }

  // A commit's dependency vector is needed iff it is the final writer of
  // some column, or a needed later commit reads a column it last wrote.
  // Read edges point strictly backward, so one reverse pass closes the set.
  batch_need_.assign(m, 0);
  for (ObjectId j : batch_union_cols_) batch_need_[batch_writer_[j]] = 1;
  for (size_t t = m; t-- > 0;) {
    if (!batch_need_[t]) continue;
    for (size_t s = batch_src_begin_[t]; s < batch_src_begin_[t + 1]; ++s) {
      if (batch_sources_[s].src_commit >= 0) batch_need_[batch_sources_[s].src_commit] = 1;
    }
  }

  // Pass 2 — dependency vectors for needed commits only, oldest first so
  // every in-batch source is already computed. The virtual column of an
  // in-batch source s is (i in WS_s ? commit_cycle : dep_s(i)); because
  // every entry involved is <= commit_cycle (the precondition), merging it
  // is a max-merge of dep_s followed by overwriting the WS_s rows with the
  // cycle stamp. No matrix column is modified until pass 3, so pre-batch
  // columns read here are still C_old.
  batch_dep_idx_.assign(m, -1);
  size_t pool_used = 0;
  for (size_t t = 0; t < m; ++t) {
    if (!batch_need_[t]) continue;
    if (pool_used == dep_pool_.size()) dep_pool_.emplace_back(n_);
    std::vector<Cycle>& slot = dep_pool_[pool_used];
    if (slot.size() != n_) slot.assign(n_, 0);
    Cycle* dep = slot.data();
    batch_dep_idx_[t] = static_cast<int32_t>(pool_used++);

    const size_t begin = batch_src_begin_[t];
    const size_t end = batch_src_begin_[t + 1];
    if (begin == end) {
      KernelColumnFill(dep, 0, n_);
    } else {
      for (size_t s = begin; s < end; ++s) {
        const BatchSource& src = batch_sources_[s];
        const bool first = (s == begin);
        if (src.src_commit < 0) {
          if (first) {
            KernelColumnCopy(dep, ColumnPtr(src.col), n_);
          } else {
            KernelColumnMaxMerge(dep, ColumnPtr(src.col), n_);
          }
        } else {
          const Cycle* sdep = dep_pool_[batch_dep_idx_[src.src_commit]].data();
          if (first) {
            KernelColumnCopy(dep, sdep, n_);
          } else {
            KernelColumnMaxMerge(dep, sdep, n_);
          }
          for (ObjectId w : commits[src.src_commit].write_set) dep[w] = commit_cycle;
        }
      }
    }
  }
}

void FMatrix::FinishBatch() {
  if (track_dirty_) {
    for (ObjectId j : batch_union_cols_) {
      if (!touched_mask_[j]) {
        touched_mask_[j] = 1;
        touched_cols_.push_back(j);
      }
    }
  }
  for (ObjectId j : batch_union_cols_) batch_union_mask_[j] = 0;
}

void FMatrix::ApplyCommitBatch(std::span<const CommitSets> commits, Cycle commit_cycle) {
  const size_t m = commits.size();
  if (m == 0) return;
  if (m == 1) {
    ApplyCommit(commits[0].read_set, commits[0].write_set, commit_cycle);
    return;
  }
  PrepareScratch();
  AnalyzeBatch(commits, commit_cycle);

  // Pass 3 — one store per union column, grouped by final writer so each
  // writer's WS mask is built once. Store order across columns is
  // irrelevant: every new column derives only from dep vectors and masks
  // captured above.
  for (size_t t = 0; t < m; ++t) {
    if (batch_dep_idx_[t] < 0) continue;
    const CommitSets& cs = commits[t];
    bool owns_any = false;
    for (ObjectId j : cs.write_set) {
      if (batch_writer_[j] == static_cast<int32_t>(t)) {
        owns_any = true;
        break;
      }
    }
    if (!owns_any) continue;
    const Cycle* dep = dep_pool_[batch_dep_idx_[t]].data();
    for (ObjectId w : cs.write_set) ws_scratch_[w] = 1;
    for (ObjectId j : cs.write_set) {
      if (batch_writer_[j] != static_cast<int32_t>(t)) continue;
      KernelColumnSelectFill(MutableColumnPtr(j), ws_scratch_.data(), dep, commit_cycle, n_);
      batch_writer_[j] = -1;  // guard against duplicate write-set entries
    }
    for (ObjectId w : cs.write_set) ws_scratch_[w] = 0;
  }

  FinishBatch();
}

void FMatrix::ApplyCommitBatch(std::span<const CommitSets> commits, Cycle commit_cycle,
                               const ShardRunner& runner, uint32_t num_shards) {
  if (!runner || num_shards <= 1 || commits.size() <= 1) {
    ApplyCommitBatch(commits, commit_cycle);
    return;
  }
  AnalyzeBatch(commits, commit_cycle);
  // Copy every column the shards will store now, serially: the page table,
  // the retired list and the free list have one writer, and a shard then
  // finds its columns already writable.
  for (ObjectId j : batch_union_cols_) cols_.MutablePage(j);

  // Pass 3, sharded by column id (j % num_shards). Each shard stores only
  // the union columns of its own partition, reads/clears batch_writer_ only
  // for those columns, and builds the write-set mask in its own scratch
  // buffer, so shards share nothing writable. Values are bit-identical to
  // the serial pass: every store derives from dep vectors and masks captured
  // by AnalyzeBatch, independent of store order.
  if (shard_ws_scratch_.size() < num_shards) shard_ws_scratch_.resize(num_shards);
  const size_t m = commits.size();
  runner(num_shards, [&](uint32_t shard) {
    std::vector<uint8_t>& ws = shard_ws_scratch_[shard];
    if (ws.size() != n_) ws.assign(n_, 0);
    for (size_t t = 0; t < m; ++t) {
      if (batch_dep_idx_[t] < 0) continue;
      const CommitSets& cs = commits[t];
      const Cycle* dep = dep_pool_[batch_dep_idx_[t]].data();
      bool mask_built = false;
      for (ObjectId j : cs.write_set) {
        if (j % num_shards != shard) continue;
        if (batch_writer_[j] != static_cast<int32_t>(t)) continue;
        if (!mask_built) {
          for (ObjectId w : cs.write_set) ws[w] = 1;
          mask_built = true;
        }
        KernelColumnSelectFill(MutableColumnPtr(j), ws.data(), dep, commit_cycle, n_);
        batch_writer_[j] = -1;  // guard against duplicate write-set entries
      }
      if (mask_built) {
        for (ObjectId w : cs.write_set) ws[w] = 0;
      }
    }
  });

  FinishBatch();
}

FMatrix FMatrix::Snapshot() const {
  FMatrix s;
  s.n_ = n_;
  s.cols_ = cols_;
  return s;
}

void FMatrix::EnableDirtyTracking() {
  if (track_dirty_) return;
  track_dirty_ = true;
  touched_mask_.assign(n_, 0);
}

std::vector<ObjectId> FMatrix::TakeTouchedColumns() {
  std::vector<ObjectId> out;
  DrainTouchedColumns(out);
  return out;
}

void FMatrix::DrainTouchedColumns(std::vector<ObjectId>& out) {
  assert(track_dirty_);
  out.clear();
  out.swap(touched_cols_);  // tracker keeps out's old capacity for next cycle
  for (ObjectId j : out) touched_mask_[j] = 0;
}

bool FMatrix::ReadCondition(std::span<const ReadRecord> reads, ObjectId j) const {
  return KernelReadConditionScan(ColumnPtr(j), reads.data(), reads.size()) ==
         kReadConditionPass;
}

FMatrix FMatrixFromDefinition(const History& history,
                              const std::unordered_map<TxnId, Cycle>& commit_cycles,
                              uint32_t num_objects) {
  FMatrix c(num_objects);

  // Last committed writer per object, in history order.
  std::vector<TxnId> last_writer(num_objects, kInitTxn);
  for (const Operation& op : history.ops()) {
    if (op.type == OpType::kWrite &&
        history.Txn(op.txn).outcome == TxnOutcome::kCommitted) {
      last_writer[op.object] = op.txn;
    }
  }

  for (ObjectId j = 0; j < num_objects; ++j) {
    const TxnId tj = last_writer[j];
    if (tj == kInitTxn) continue;  // column stays all-zero
    const std::unordered_set<TxnId> live = history.LiveSet(tj);
    for (ObjectId i = 0; i < num_objects; ++i) {
      Cycle best = 0;
      for (TxnId t : live) {
        if (t == kInitTxn) continue;
        if (!history.Txn(t).Writes(i)) continue;
        const auto it = commit_cycles.find(t);
        assert(it != commit_cycles.end());
        best = std::max(best, it->second);
      }
      c.Set(i, j, best);
    }
  }
  return c;
}

}  // namespace bcc
