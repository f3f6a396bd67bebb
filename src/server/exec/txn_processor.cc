#include "server/exec/txn_processor.h"

#include <algorithm>
#include <cassert>
#include <thread>

namespace bcc {

namespace {

bool Contains(const std::vector<ObjectId>& set, ObjectId ob) {
  return std::find(set.begin(), set.end(), ob) != set.end();
}

/// Starts an attempt: clears the previous attempt's trace and reserves the
/// exact sizes (|RS| observations; |RS| + |WS| operations plus the commit
/// marker), so an attempt never regrows and a retry never reallocates.
void BeginAttempt(const ServerTxn& txn, CommittedServerTxn& out) {
  out.reads.clear();
  out.ops.clear();
  out.reads.reserve(txn.read_set.size());
  out.ops.reserve(txn.read_set.size() + txn.write_set.size() + 1);
}

}  // namespace

TxnProcessor::TxnProcessor(uint32_t num_objects, UpdateScheme scheme, uint32_t num_workers)
    : num_objects_(num_objects),
      scheme_(scheme),
      pool_(scheme == UpdateScheme::kSequential ? 1 : num_workers),
      scratch_(pool_.num_workers()) {
  switch (scheme_) {
    case UpdateScheme::kSequential:
      last_writer_.assign(num_objects_, kInitTxn);
      break;
    case UpdateScheme::kTwoPhaseLocking:
      last_writer_.assign(num_objects_, kInitTxn);
      locks_ = std::make_unique<LockManager>();
      break;
    case UpdateScheme::kOcc:
      last_writer_.assign(num_objects_, kInitTxn);
      occ_version_.assign(num_objects_, 0);
      break;
    case UpdateScheme::kMvcc:
      mvcc_ = std::make_unique<MvccStore>(num_objects_);
      break;
  }
}

TxnProcessor::~TxnProcessor() = default;

std::vector<CommittedServerTxn> TxnProcessor::ExecuteBatch(std::span<const ServerTxn> txns) {
  std::vector<CommittedServerTxn> results(txns.size());
  // Wait-die priorities are fixed at submission (base + input index):
  // retries keep them, so every transaction eventually becomes the oldest
  // contender.
  const uint64_t base = next_ts_.fetch_add(txns.size(), std::memory_order_relaxed);
  pool_.Run(txns.size(), [&](size_t i, uint32_t executor) {
    RunToCommit(txns[i], base + i, results[i], scratch_[executor]);
  });

  // Batch barrier: no transaction is in flight. Fold the workers' atomic
  // counters into the stats snapshot, run the MVCC epoch GC, and hand the
  // committed transactions back in serialization order.
  stats_.batches += 1;
  stats_.committed += txns.size();
  stats_.lock_die_aborts = lock_die_aborts_.load(std::memory_order_relaxed);
  stats_.occ_validation_aborts = occ_validation_aborts_.load(std::memory_order_relaxed);
  stats_.mvcc_write_aborts = mvcc_write_aborts_.load(std::memory_order_relaxed);
  if (mvcc_) {
    mvcc_->CollectGarbage(next_ts_.load(std::memory_order_relaxed));
    stats_.mvcc_versions_pruned = mvcc_->versions_pruned();
  }
  std::sort(results.begin(), results.end(),
            [](const CommittedServerTxn& a, const CommittedServerTxn& b) {
              return a.commit_seq < b.commit_seq;
            });
  return results;
}

std::vector<CommittedServerTxn> TxnProcessor::ExecuteSerial(std::span<const ServerTxn> txns) {
  std::vector<CommittedServerTxn> results(txns.size());
  for (size_t i = 0; i < txns.size(); ++i) {
    const uint64_t priority = next_ts_.fetch_add(1, std::memory_order_relaxed);
    RunToCommit(txns[i], priority, results[i], scratch_[0]);
    // Serial execution never conflicts: locks are uncontended, OCC validates
    // against an unchanged snapshot, and MVTO timestamps ascend with the
    // input order. Any abort here is a scheme bug.
    assert(results[i].aborts == 0 && "serial execution must commit first-try");
    assert((i == 0 || results[i - 1].commit_seq < results[i].commit_seq) &&
           "serial commit order must equal the input order");
  }
  stats_.committed += txns.size();
  stats_.lock_die_aborts = lock_die_aborts_.load(std::memory_order_relaxed);
  stats_.occ_validation_aborts = occ_validation_aborts_.load(std::memory_order_relaxed);
  stats_.mvcc_write_aborts = mvcc_write_aborts_.load(std::memory_order_relaxed);
  return results;
}

void TxnProcessor::RunShards(uint32_t num_shards, const std::function<void(uint32_t)>& body) {
  pool_.Run(num_shards, [&body](size_t shard, uint32_t) { body(static_cast<uint32_t>(shard)); });
}

void TxnProcessor::RunToCommit(const ServerTxn& txn, uint64_t priority, CommittedServerTxn& out,
                               Scratch& scratch) {
  assert(txn.id != kNoTxn && txn.id != kInitTxn && "transaction ids must be nonzero");
  out.txn = txn;
  out.aborts = 0;
  if (hook_) hook_(txn.id, "start");
  // A failed attempt yields before retrying: critical sections run at
  // memory speed, so giving the winner the core is enough to keep a retry
  // storm from sustaining itself.
  switch (scheme_) {
    case UpdateScheme::kSequential:
      RunSequential(txn, out);
      break;
    case UpdateScheme::kTwoPhaseLocking:
      while (!TryTwoPhase(txn, priority, out, scratch.held)) {
        out.aborts += 1;
        std::this_thread::yield();
      }
      break;
    case UpdateScheme::kOcc:
      while (!TryOcc(txn, out, scratch.read_versions)) {
        out.aborts += 1;
        std::this_thread::yield();
      }
      break;
    case UpdateScheme::kMvcc:
      while (!TryMvcc(txn, out)) {
        out.aborts += 1;
        std::this_thread::yield();
      }
      break;
  }
  if (hook_) hook_(txn.id, "commit");
}

bool TxnProcessor::TryTwoPhase(const ServerTxn& txn, uint64_t priority, CommittedServerTxn& out,
                               std::vector<ObjectId>& held) {
  BeginAttempt(txn, out);

  // Growing phase: everything before the first access. Reads take shared
  // locks; an object also written is upgraded to exclusive when the write
  // lock is requested (the LockManager promotes the holder in place, so the
  // object still appears once in `held`).
  held.clear();
  auto release_all = [&] {
    for (ObjectId ob : held) locks_->Release(ob, priority);
    held.clear();
  };
  auto die = [&] {
    release_all();
    lock_die_aborts_.fetch_add(1, std::memory_order_relaxed);
    if (hook_) hook_(txn.id, "2pl:die");
    return false;
  };
  for (ObjectId ob : txn.read_set) {
    if (locks_->Acquire(ob, LockMode::kShared, priority) == LockOutcome::kDie) return die();
    held.push_back(ob);
  }
  for (ObjectId ob : txn.write_set) {
    const bool upgrade = Contains(txn.read_set, ob);
    if (locks_->Acquire(ob, LockMode::kExclusive, priority) == LockOutcome::kDie) return die();
    if (!upgrade) held.push_back(ob);
  }
  if (hook_) hook_(txn.id, "2pl:locked");

  // Execute. last_writer_[ob] is guarded by the logical lock on ob; the
  // global op counter is fetched while the lock is held, so sequence order
  // agrees with conflict order.
  for (ObjectId ob : txn.read_set) {
    const uint64_t seq = next_op_seq_.fetch_add(1, std::memory_order_relaxed);
    out.reads.push_back(ReadObservation{ob, last_writer_[ob]});
    out.ops.push_back(SeqOp{seq, Operation::Read(txn.id, ob)});
  }
  for (ObjectId ob : txn.write_set) {
    const uint64_t seq = next_op_seq_.fetch_add(1, std::memory_order_relaxed);
    last_writer_[ob] = txn.id;
    out.ops.push_back(SeqOp{seq, Operation::Write(txn.id, ob)});
  }
  // The commit point is reached with all locks held: for any conflicting
  // pair the earlier transaction draws its commit_seq before releasing, the
  // later one only after acquiring, so commit_seq order extends the
  // conflict order (strict 2PL's serialization order).
  out.commit_seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  out.ops.push_back(
      SeqOp{next_op_seq_.fetch_add(1, std::memory_order_relaxed), Operation::Commit(txn.id)});
  release_all();
  return true;
}

bool TxnProcessor::TryOcc(const ServerTxn& txn, CommittedServerTxn& out,
                          std::vector<uint64_t>& read_versions) {
  BeginAttempt(txn, out);

  // Read phase: snapshot {writer, install-version} per object under one
  // shared latch (reads run at memory speed, so the whole phase is brief).
  read_versions.clear();
  {
    std::shared_lock<std::shared_mutex> lock(occ_mu_);
    for (ObjectId ob : txn.read_set) {
      const uint64_t seq = next_op_seq_.fetch_add(1, std::memory_order_relaxed);
      out.reads.push_back(ReadObservation{ob, last_writer_[ob]});
      read_versions.push_back(occ_version_[ob]);
      out.ops.push_back(SeqOp{seq, Operation::Read(txn.id, ob)});
    }
  }
  if (hook_) hook_(txn.id, "occ:read-done");

  // Backward validation + install, serialized by the unique latch: if any
  // object we read was re-installed since, a conflicting transaction
  // committed inside our window — abort and retry.
  {
    std::unique_lock<std::shared_mutex> lock(occ_mu_);
    for (size_t i = 0; i < txn.read_set.size(); ++i) {
      if (occ_version_[txn.read_set[i]] != read_versions[i]) {
        lock.unlock();
        occ_validation_aborts_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    for (ObjectId ob : txn.write_set) {
      last_writer_[ob] = txn.id;
      occ_version_[ob] += 1;
      out.ops.push_back(SeqOp{next_op_seq_.fetch_add(1, std::memory_order_relaxed),
                              Operation::Write(txn.id, ob)});
    }
    out.commit_seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    out.ops.push_back(
        SeqOp{next_op_seq_.fetch_add(1, std::memory_order_relaxed), Operation::Commit(txn.id)});
  }
  if (hook_) hook_(txn.id, "occ:install");
  return true;
}

bool TxnProcessor::TryMvcc(const ServerTxn& txn, CommittedServerTxn& out) {
  BeginAttempt(txn, out);

  // Every attempt draws a fresh timestamp; the serialization order of
  // committed transactions is exactly timestamp order, so commit_seq = ts.
  const uint64_t ts = next_ts_.fetch_add(1, std::memory_order_relaxed);
  for (ObjectId ob : txn.read_set) {
    const MvccStore::ReadResult r = mvcc_->Read(ob, ts);
    const uint64_t seq = next_op_seq_.fetch_add(1, std::memory_order_relaxed);
    out.reads.push_back(ReadObservation{ob, r.writer});
    out.ops.push_back(SeqOp{seq, Operation::Read(txn.id, ob)});
  }
  if (hook_) hook_(txn.id, "mvcc:read-done");
  if (!mvcc_->CommitWrites(txn.write_set, txn.id, ts)) {
    mvcc_write_aborts_.fetch_add(1, std::memory_order_relaxed);
    if (hook_) hook_(txn.id, "mvcc:die");
    return false;
  }
  for (ObjectId ob : txn.write_set) {
    out.ops.push_back(
        SeqOp{next_op_seq_.fetch_add(1, std::memory_order_relaxed), Operation::Write(txn.id, ob)});
  }
  out.commit_seq = ts;
  out.ops.push_back(
      SeqOp{next_op_seq_.fetch_add(1, std::memory_order_relaxed), Operation::Commit(txn.id)});
  return true;
}

void TxnProcessor::RunSequential(const ServerTxn& txn, CommittedServerTxn& out) {
  BeginAttempt(txn, out);
  for (ObjectId ob : txn.read_set) {
    const uint64_t seq = next_op_seq_.fetch_add(1, std::memory_order_relaxed);
    out.reads.push_back(ReadObservation{ob, last_writer_[ob]});
    out.ops.push_back(SeqOp{seq, Operation::Read(txn.id, ob)});
  }
  for (ObjectId ob : txn.write_set) {
    const uint64_t seq = next_op_seq_.fetch_add(1, std::memory_order_relaxed);
    last_writer_[ob] = txn.id;
    out.ops.push_back(SeqOp{seq, Operation::Write(txn.id, ob)});
  }
  out.commit_seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  out.ops.push_back(
      SeqOp{next_op_seq_.fetch_add(1, std::memory_order_relaxed), Operation::Commit(txn.id)});
}

void FoldIntoManager(std::span<const CommittedServerTxn> committed, ServerTxnManager& manager,
                     Cycle cycle) {
  for (const CommittedServerTxn& c : committed) manager.Commit(c.txn, cycle);
}

Status VerifySerializable(uint32_t num_objects, std::span<const CommittedServerTxn> committed) {
  std::vector<TxnId> table(num_objects, kInitTxn);
  uint64_t prev_seq = 0;
  for (const CommittedServerTxn& c : committed) {
    if (c.commit_seq <= prev_seq) {
      return Status::Internal("commit_seq not strictly ascending at txn " +
                              std::to_string(c.txn.id));
    }
    prev_seq = c.commit_seq;
    for (const ReadObservation& r : c.reads) {
      if (r.object >= num_objects) {
        return Status::InvalidArgument("read of out-of-range object " + std::to_string(r.object));
      }
      if (table[r.object] != r.writer) {
        return Status::Internal("txn " + std::to_string(c.txn.id) + " observed ob" +
                                std::to_string(r.object) + " from txn " +
                                std::to_string(r.writer) + " but the serial replay installs txn " +
                                std::to_string(table[r.object]) + " there");
      }
    }
    for (ObjectId ob : c.txn.write_set) {
      if (ob >= num_objects) {
        return Status::InvalidArgument("write of out-of-range object " + std::to_string(ob));
      }
      table[ob] = c.txn.id;
    }
  }
  return Status::OK();
}

History BuildInterleavedHistory(std::span<const CommittedServerTxn> committed) {
  std::vector<SeqOp> all;
  size_t total = 0;
  for (const CommittedServerTxn& c : committed) total += c.ops.size();
  all.reserve(total);
  for (const CommittedServerTxn& c : committed) {
    all.insert(all.end(), c.ops.begin(), c.ops.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SeqOp& a, const SeqOp& b) { return a.seq < b.seq; });
  History h;
  for (const SeqOp& s : all) h.Append(s.op);
  return h;
}

}  // namespace bcc
