#include "sim/broadcast_sim.h"

#include <cassert>

#include "cc/approx.h"
#include "cc/conflict_serializability.h"
#include "common/format.h"

namespace bcc {

BroadcastSim::BroadcastSim(SimConfig config)
    : config_(std::move(config)),
      geometry_(config_.Geometry()),
      metrics_(config_.warmup_txns) {}

BroadcastSim::~BroadcastSim() = default;

StatusOr<SimSummary> BroadcastSim::Run() {
  if (ran_) return Status::FailedPrecondition("BroadcastSim::Run may only be called once");
  ran_ = true;
  BCC_RETURN_IF_ERROR(config_.Validate());

  // The root RNG split order (server workload first, then one split per
  // client) is part of the cross-engine contract.
  Rng root(config_.seed);
  CycleServerOptions options;
  options.metrics = &metrics_;
  BCC_ASSIGN_OR_RETURN(server_, CycleServer::Create(config_, root.Split(), options));

  sessions_.clear();
  txns_.clear();
  for (uint32_t c = 0; c < config_.num_clients; ++c) {
    // Hier mode: every client validates against the broadcast hierarchical
    // view (no batch flush mid-cycle, see CycleServer::hier).
    sessions_.push_back(std::make_unique<ClientSession>(config_, root.Split(), server_->hier()));
    txns_.push_back(sessions_.back()->NewTxn());
  }

  if (tracer_ != nullptr) {
    // One single-writer ring per simulated actor; registered before any
    // event fires, never resized afterwards.
    server_->set_trace_ring(tracer_->AddTrack("server"));
    for (size_t c = 0; c < sessions_.size(); ++c) {
      sessions_[c]->set_trace_ring(tracer_->AddTrack(StrFormat("client%zu", c)));
    }
  }

  if (config_.channel_broadcast) {
    // The channel draws from its own salted streams (never from root), so
    // workload RNG draws — and hence the rate-0 decision logs — are
    // untouched by enabling the channel.
    channel_ =
        std::make_unique<LossyChannel>(config_.ChannelFaults(), config_.seed,
                                       config_.num_clients);
  }

  // Prime the loop: cycle 1 begins at t = 0; each client's first submission
  // follows its think time.
  BeginCycle(1);
  for (size_t c = 0; c < sessions_.size(); ++c) {
    queue_.ScheduleAfter(sessions_[c]->workload().NextInterTxnDelay(),
                         [this, c] { SubmitClientTxn(c); });
  }

  while (!done_ && queue_.Step()) {
  }
  // Commits staged during the final (partial) cycle still belong to it.
  server_->Fold(server_->snapshot().cycle);

  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  AbortBreakdown abort_causes;
  for (const auto& session : sessions_) {
    if (session->receiver()) metrics_.AccumulateChannel(session->receiver()->stats());
    if (session->cache()) {
      cache_hits += session->cache()->hits();
      cache_misses += session->cache()->misses();
    }
    abort_causes.Accumulate(session->abort_causes());
    if (config_.record_decisions) decisions_.push_back(std::move(session->decisions()));
  }
  SimSummary summary =
      metrics_.Summarize(server_->snapshot().cycle, queue_.now(), cache_hits, cache_misses);
  summary.abort_causes.Accumulate(abort_causes);
  if (config_.matrix_mode == MatrixMode::kSparse) {
    summary.matrix_nnz = manager().sparse_f_matrix().nnz();
  } else if (HierMatrix* hier = server_->hier()) {
    summary.matrix_nnz = hier->exact().nnz();
    summary.hier = hier->stats();
    summary.hier_groups = hier->num_groups();
    summary.hier_refined_columns = hier->refined_columns();
  }
  return summary;
}

void BroadcastSim::BeginCycle(Cycle cycle) {
  const CycleSnapshot& snap = server_->BeginCycle(cycle);
  for (uint32_t c = 0; c < sessions_.size(); ++c) {
    sessions_[c]->ReceiveCycle(snap, server_->frames(), channel_.get(), c, queue_.now());
  }
  server_->StageCycle(cycle);
  queue_.ScheduleAt(server_->broadcast().CycleEndTime(), [this] { StartNextCycle(); });
}

void BroadcastSim::StartNextCycle() {
  if (done_) return;
  const Cycle ending = server_->snapshot().cycle;
  uint64_t control_conflicts = 0;  // the hier policy's input
  for (const auto& s : sessions_) {
    control_conflicts += s->abort_causes().Count(AbortCause::kControlConflict);
  }
  server_->EndCycle(ending, control_conflicts);
  if (config_.stop_after_cycles > 0 && ending >= config_.stop_after_cycles) {
    done_ = true;
    return;
  }
  BeginCycle(ending + 1);
}

void BroadcastSim::SubmitClientTxn(size_t c) {
  if (done_) return;
  sessions_[c]->Begin(txns_[c], queue_.now());
  queue_.ScheduleAfter(sessions_[c]->workload().NextInterOpDelay(), [this, c] { BeginReadOp(c); });
}

void BroadcastSim::BeginReadOp(size_t c) {
  if (done_) return;
  ReadTxn& txn = txns_[c];
  const CycleSnapshot& snap = server_->snapshot();
  if (const std::optional<TxnStep> step = sessions_[c]->ReadCached(txn, snap, queue_.now())) {
    OnStep(c, *step);
    return;
  }
  // A slot of the next cycle is always later than that cycle's start event,
  // which is already scheduled and so fires first.
  queue_.ScheduleAt(NextReadSlotEnd(server_->broadcast().schedule(), geometry_, txn.next_object(),
                                    queue_.now(), snap.start_time),
                    [this, c] { PerformBroadcastRead(c); });
}

void BroadcastSim::PerformBroadcastRead(size_t c) {
  if (done_) return;
  ClientSession& session = *sessions_[c];
  ReadTxn& txn = txns_[c];
  const CycleSnapshot& snap = server_->snapshot();
  const ReadGate gate = session.Gate(txn.next_object(), snap.cycle);
  if (gate == ReadGate::kReady) {
    OnStep(c, session.Read(txn, snap, queue_.now()));
    return;
  }
  if (gate == ReadGate::kStallDesync) metrics_.RecordDeltaStall();
  session.Stall(txn, gate, queue_.now(), snap.cycle);
  const SimTime next_start = server_->broadcast().CycleEndTime();
  queue_.ScheduleAt(NextReadSlotEnd(server_->broadcast().schedule(), geometry_,
                                    txn.next_object(), next_start, next_start),
                    [this, c] { PerformBroadcastRead(c); });
}

void BroadcastSim::OnStep(size_t c, TxnStep step) {
  if (step == TxnStep::kNextRead || step == TxnStep::kRestart) {
    queue_.ScheduleAfter(sessions_[c]->ThinkTime(step), [this, c] { BeginReadOp(c); });
  } else if (step == TxnStep::kCensor || !txns_[c].is_update) {
    CompleteTxn(c, step == TxnStep::kCensor);  // a read-only commit is local and free
  } else {
    // Ship the read records and write set to the server over the uplink
    // ("a list of all the objects written ... and the list of all read
    // operations performed and the cycle numbers" — Section 3.2.1).
    queue_.ScheduleAfter(config_.uplink_delay, [this, c] { SendUplinkCommit(c); });
  }
}

void BroadcastSim::SendUplinkCommit(size_t c) {
  if (done_) return;
  const ReadTxn& txn = txns_[c];
  const Cycle cycle = server_->snapshot().cycle;
  const UplinkOutcome outcome =
      server_->SubmitUplink(static_cast<uint32_t>(c), txn.protocol.reads(), txn.write_set, cycle);
  sessions_[c]->UplinkVerdict(outcome.accepted, queue_.now(), cycle);
  // The client learns the outcome one uplink delay later.
  if (outcome.accepted) {
    queue_.ScheduleAfter(config_.uplink_delay, [this, c] { CompleteTxn(c, false); });
  } else {
    queue_.ScheduleAfter(config_.uplink_delay, [this, c, reject = outcome.cause] {
      OnStep(c, sessions_[c]->Abort(txns_[c], reject, queue_.now(), server_->snapshot().cycle));
    });
  }
}

void BroadcastSim::CompleteTxn(size_t c, bool censored) {
  const ReadTxn& txn = txns_[c];
  // Committed client UPDATE transactions already live in the server's
  // recorded history (via the validator); only read-only transactions need
  // a client-side oracle log.
  if (config_.record_history && !censored && !txn.is_update) {
    oracle_client_txns_.push_back(ClientTxnLog{
        kClientTxnIdBase + static_cast<TxnId>(oracle_client_txns_.size()),
        txn.protocol.reads(), txn.protocol.values()});
  }
  sessions_[c]->Complete(txn, censored, queue_.now(), server_->snapshot().cycle);
  metrics_.RecordClientTxn(txn.begin_time, queue_.now(), txn.restarts, censored);
  ++completed_txns_;
  if (completed_txns_ >= config_.num_client_txns) {
    done_ = true;
    return;
  }
  queue_.ScheduleAfter(sessions_[c]->workload().NextInterTxnDelay(),
                       [this, c] { SubmitClientTxn(c); });
}

StatusOr<History> BroadcastSim::BuildOracleHistory() const {
  if (!config_.record_history) {
    return Status::FailedPrecondition("run with config.record_history = true");
  }

  // Slice the server's recorded history into per-transaction blocks, in
  // commit order (execution is serial, so blocks are contiguous).
  struct Block {
    std::vector<Operation> ops;
    Cycle cycle;
  };
  std::vector<Block> server_blocks;
  {
    Block current{{}, 0};
    for (const Operation& op : manager().recorded_history().ops()) {
      current.ops.push_back(op);
      if (op.type == OpType::kCommit || op.type == OpType::kAbort) {
        current.cycle = manager().commit_cycles().at(op.txn);
        server_blocks.push_back(std::move(current));
        current = Block{{}, 0};
      }
    }
    if (!current.ops.empty()) {
      return Status::Internal("recorded server history ends mid-transaction");
    }
  }

  Cycle max_cycle = 0;
  for (const Block& b : server_blocks) max_cycle = std::max(max_cycle, b.cycle);
  for (const ClientTxnLog& ct : oracle_client_txns_) {
    for (const ReadRecord& r : ct.reads) max_cycle = std::max(max_cycle, r.cycle);
  }

  History oracle;
  size_t next_server_block = 0;
  // With caching, a transaction's read cycles need not be monotone (a cached
  // read is placed at the cycle it was cached in); the commit marker goes
  // after the transaction's final appended read.
  std::unordered_map<TxnId, size_t> appended_reads;
  for (Cycle c = 1; c <= max_cycle; ++c) {
    // Client reads that observed the beginning of cycle c (they precede all
    // transactions that commit during c).
    for (const ClientTxnLog& ct : oracle_client_txns_) {
      for (size_t k = 0; k < ct.reads.size(); ++k) {
        if (ct.reads[k].cycle != c) continue;
        oracle.AppendRead(ct.id, ct.reads[k].object);
        if (++appended_reads[ct.id] == ct.reads.size()) oracle.AppendCommit(ct.id);
      }
    }
    // Server transactions committed during cycle c, in commit order.
    while (next_server_block < server_blocks.size() &&
           server_blocks[next_server_block].cycle == c) {
      for (const Operation& op : server_blocks[next_server_block].ops) oracle.Append(op);
      ++next_server_block;
    }
  }
  if (next_server_block != server_blocks.size()) {
    return Status::Internal("server commit cycles out of order");
  }
  return oracle;
}

Status BroadcastSim::VerifyOracle() const {
  BCC_ASSIGN_OR_RETURN(const History oracle, BuildOracleHistory());

  // 1. Reads-from agreement: the writer whose version each client read
  // observed must be the writer the oracle history assigns to that read.
  // Client read sets are duplicate-free, so (txn, object) identifies a read
  // even when caching permutes the merge order.
  for (size_t i = 0; i < oracle.ops().size(); ++i) {
    const Operation& op = oracle.ops()[i];
    // Client update transactions (ids >= 2 * base) live in server blocks
    // and are validated server-side; only read-only logs are cross-checked.
    if (op.type != OpType::kRead || op.txn < kClientTxnIdBase ||
        op.txn >= 2 * kClientTxnIdBase) {
      continue;
    }
    const ClientTxnLog& ct = oracle_client_txns_.at(op.txn - kClientTxnIdBase);
    size_t k = ct.reads.size();
    for (size_t r = 0; r < ct.reads.size(); ++r) {
      if (ct.reads[r].object == op.object) {
        k = r;
        break;
      }
    }
    if (k == ct.reads.size()) {
      return Status::Internal(StrFormat("txn %u has no logged read of ob%u", op.txn, op.object));
    }
    const TxnId observed_writer = ct.values.at(k).writer;
    const TxnId oracle_writer = oracle.ReaderSource(i);
    if (observed_writer != oracle_writer) {
      return Status::Internal(StrFormat(
          "txn %u read %zu of ob%u: observed writer t%u but oracle says t%u", op.txn, k,
          op.object, observed_writer, oracle_writer));
    }
  }

  // 2. Mutual consistency: the whole run must pass APPROX.
  const ApproxResult approx = CheckApprox(oracle);
  if (!approx.accepted) {
    return Status::Internal("oracle history rejected by APPROX: " + approx.reason);
  }

  // 3. Datacycle promises full (conflict) serializability.
  if (config_.algorithm == Algorithm::kDatacycle && !IsConflictSerializable(oracle)) {
    return Status::Internal("Datacycle oracle history is not conflict serializable");
  }
  return Status::OK();
}

Status BroadcastSim::VerifyDeltaTrackers() const {
  if (!config_.delta_broadcast) {
    return Status::FailedPrecondition("run with config.delta_broadcast = true");
  }
  if (!ran_) return Status::FailedPrecondition("VerifyDeltaTrackers requires a completed Run");
  const CycleStampCodec codec(config_.timestamp_bits);
  const CycleSnapshot& final_snap = server_->snapshot();
  const FMatrix& truth = final_snap.f_matrix;
  const Cycle cycle = final_snap.cycle;
  // Sparse mode: truth and (direct-mode) reconstructions are SparseFMatrix.
  const auto truth_at = [&](ObjectId i, ObjectId j) {
    return final_snap.sparse_f_matrix != nullptr ? final_snap.sparse_f_matrix->At(i, j)
                                                 : truth.At(i, j);
  };
  for (size_t c = 0; c < sessions_.size(); ++c) {
    const DeltaMatrixTracker& tracker = *sessions_[c]->tracker();
    if (!tracker.synced()) continue;  // desync knob, or real loss in channel mode
    if (tracker.last_sync() != cycle) {
      // Channel mode: a lost final control block legitimately leaves the
      // tracker synced to an earlier cycle; its matrix reflects that cycle,
      // not the current truth, so the congruence check does not apply.
      if (config_.channel_broadcast) continue;
      return Status::Internal(StrFormat(
          "client %zu tracker synced at cycle %llu but the broadcast is at %llu", c,
          static_cast<unsigned long long>(tracker.last_sync()),
          static_cast<unsigned long long>(cycle)));
    }
    for (ObjectId j = 0; j < config_.num_objects; ++j) {
      for (ObjectId i = 0; i < config_.num_objects; ++i) {
        const Cycle mine =
            tracker.sparse() ? tracker.sparse_matrix().At(i, j) : tracker.matrix().At(i, j);
        if (codec.Encode(mine) != codec.Encode(truth_at(i, j))) {
          return Status::Internal(StrFormat(
              "client %zu reconstruction diverges at C(%u, %u): %llu !~ %llu (mod 2^%u)", c, i,
              j, static_cast<unsigned long long>(mine),
              static_cast<unsigned long long>(truth_at(i, j)), config_.timestamp_bits));
        }
      }
    }
  }
  return Status::OK();
}

StatusOr<SimSummary> RunSimulation(const SimConfig& config) {
  return BroadcastSim(config).Run();
}

}  // namespace bcc
