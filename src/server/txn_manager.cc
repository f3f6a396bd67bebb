#include "server/txn_manager.h"

#include <cassert>

namespace bcc {

ServerTxnManager::ServerTxnManager(uint32_t num_objects, TxnManagerOptions options)
    : options_(options),
      store_(num_objects),
      f_matrix_(options.maintain_f_matrix ? num_objects : 0),
      sparse_f_matrix_(options.maintain_sparse_matrix ? num_objects : 0) {
  if (options_.maintain_hier_matrix) {
    hier_matrix_.emplace(num_objects, options_.hier_options);
  }
  if (options_.track_dirty_columns) {
    assert((options_.maintain_f_matrix || options_.maintain_sparse_matrix) &&
           "dirty tracking requires a control matrix");
    if (options_.maintain_f_matrix) f_matrix_.EnableDirtyTracking();
    if (options_.maintain_sparse_matrix) sparse_f_matrix_.EnableDirtyTracking();
  }
}

std::vector<ObjectVersion> ServerTxnManager::ExecuteAndCommit(const ServerTxn& txn, Cycle cycle) {
  // Read phase: observe committed state (execution is serial, so committed
  // state is also the current state).
  std::vector<ObjectVersion> values_read;
  values_read.reserve(txn.read_set.size());
  for (ObjectId ob : txn.read_set) values_read.push_back(store_.Committed(ob));
  Commit(txn, cycle);
  return values_read;
}

void ServerTxnManager::Commit(const ServerTxn& txn, Cycle cycle) {
  assert(txn.id != kInitTxn && txn.id != kNoTxn);
  assert(cycle >= last_cycle_ && "commits must arrive in cycle order");
  last_cycle_ = cycle;

  if (options_.record_history) {
    for (ObjectId ob : txn.read_set) history_.AppendRead(txn.id, ob);
  }

  // Write phase: reads came first, so each write installs as committed.
  for (ObjectId ob : txn.write_set) {
    store_.Install(ob, txn.id, cycle);
    if (options_.record_history) history_.AppendWrite(txn.id, ob);
  }
  if (options_.record_history) history_.AppendCommit(txn.id);

  // Control information (Theorem 2 incremental maintenance). With batching
  // enabled the control-matrix work is queued and fused per cycle
  // (ApplyCommitBatch); a cycle change flushes the previous batch.
  if (options_.maintain_f_matrix || options_.maintain_sparse_matrix ||
      options_.maintain_hier_matrix) {
    if (options_.batch_commit_maintenance) {
      if (batch_size_ > 0 && cycle != batch_cycle_) FlushCommitBatch();
      batch_cycle_ = cycle;
      if (batch_size_ == batch_.size()) batch_.emplace_back();
      CommitSets& slot = batch_[batch_size_++];
      slot.read_set.assign(txn.read_set.begin(), txn.read_set.end());
      slot.write_set.assign(txn.write_set.begin(), txn.write_set.end());
    } else {
      if (options_.maintain_f_matrix) f_matrix_.ApplyCommit(txn.read_set, txn.write_set, cycle);
      if (options_.maintain_sparse_matrix) {
        sparse_f_matrix_.ApplyCommit(txn.read_set, txn.write_set, cycle);
      }
      if (options_.maintain_hier_matrix) {
        hier_matrix_->ApplyCommit(txn.read_set, txn.write_set, cycle);
      }
    }
  }
  if (options_.record_history) commit_cycles_[txn.id] = cycle;
  ++num_committed_;
}

void ServerTxnManager::FlushCommitBatch() {
  if (batch_size_ == 0) return;
  const size_t count = batch_size_;
  batch_size_ = 0;  // reset first: ApplyCommitBatch must not re-enter anyway
  const std::span<const CommitSets> commits(batch_.data(), count);
  if (options_.maintain_f_matrix) {
    if (fold_runner_ && fold_shards_ > 1) {
      f_matrix_.ApplyCommitBatch(commits, batch_cycle_, fold_runner_, fold_shards_);
    } else {
      f_matrix_.ApplyCommitBatch(commits, batch_cycle_);
    }
  }
  if (options_.maintain_sparse_matrix) sparse_f_matrix_.ApplyCommitBatch(commits, batch_cycle_);
  if (options_.maintain_hier_matrix) hier_matrix_->ApplyCommitBatch(commits, batch_cycle_);
}

}  // namespace bcc
