#include "server/exec/txn_processor.h"

#include <algorithm>
#include <cassert>
#include <thread>

namespace bcc {

namespace {

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
      scratch_(pool_.num_workers()),
      last_writer_(num_objects, kInitTxn),
      occ_version_(scheme == UpdateScheme::kOcc ? num_objects : 0, 0) {}

std::vector<CommittedServerTxn> TxnProcessor::ExecuteBatch(std::span<const ServerTxn> txns) {
  std::vector<CommittedServerTxn> results(txns.size());
  pool_.Run(txns.size(), [&](size_t i, uint32_t executor) {
    RunToCommit(txns[i], results[i], scratch_[executor]);
  });

  // Batch barrier: no transaction is in flight. Fold the workers' atomic
  // counter into the stats snapshot and hand the committed transactions
  // back in serialization order.
  stats_.batches += 1;
  stats_.committed += txns.size();
  stats_.occ_validation_aborts = occ_validation_aborts_.load(std::memory_order_relaxed);
  std::sort(results.begin(), results.end(),
            [](const CommittedServerTxn& a, const CommittedServerTxn& b) {
              return a.commit_seq < b.commit_seq;
            });
  return results;
}

std::vector<CommittedServerTxn> TxnProcessor::ExecuteSerial(std::span<const ServerTxn> txns) {
  std::vector<CommittedServerTxn> results(txns.size());
  for (size_t i = 0; i < txns.size(); ++i) {
    RunToCommit(txns[i], results[i], scratch_[0]);
    // Serial execution never conflicts: OCC validates against an unchanged
    // snapshot. Any abort here is a scheme bug.
    assert(results[i].aborts == 0 && "serial execution must commit first-try");
    assert((i == 0 || results[i - 1].commit_seq < results[i].commit_seq) &&
           "serial commit order must equal the input order");
  }
  stats_.committed += txns.size();
  stats_.occ_validation_aborts = occ_validation_aborts_.load(std::memory_order_relaxed);
  return results;
}

void TxnProcessor::RunShards(uint32_t num_shards, const std::function<void(uint32_t)>& body) {
  pool_.Run(num_shards, [&body](size_t shard, uint32_t) { body(static_cast<uint32_t>(shard)); });
}

void TxnProcessor::RunToCommit(const ServerTxn& txn, CommittedServerTxn& out, Scratch& scratch) {
  assert(txn.id != kNoTxn && txn.id != kInitTxn && "transaction ids must be nonzero");
  out.txn = txn;
  out.aborts = 0;
  if (hook_) hook_(txn.id, "start");
  if (scheme_ == UpdateScheme::kSequential) {
    RunSequential(txn, out);
  } else {
    // A failed attempt yields before retrying: critical sections run at
    // memory speed, so giving the winner the core is enough to keep a retry
    // storm from sustaining itself.
    while (!TryOcc(txn, out, scratch.read_versions)) {
      out.aborts += 1;
      std::this_thread::yield();
    }
  }
  if (hook_) hook_(txn.id, "commit");
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
