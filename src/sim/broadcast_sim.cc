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

  manager_ = std::make_unique<ServerTxnManager>(config_.num_objects, ManagerOptionsFor(config_));
  if (config_.matrix_mode == MatrixMode::kHier) hier_ = manager_->hier_matrix();

  server_ = std::make_unique<BroadcastServer>(config_.num_objects, geometry_);
  if (config_.delta_broadcast) {
    server_->EnableDeltaBroadcast(CycleStampCodec(config_.timestamp_bits),
                                  config_.delta_refresh_period);
  }
  BCC_RETURN_IF_ERROR(ConfigureBroadcastServer(config_, *server_));

  Rng root(config_.seed);
  server_workload_ = std::make_unique<ServerWorkload>(config_, root.Split());
  txn_processor_ = MakePooledProcessor(config_, *manager_);

  if (config_.client_update_fraction > 0.0) {
    validator_ = std::make_unique<UpdateValidator>(manager_.get());
    if (txn_processor_ != nullptr) {
      // Pooled mode: the cycle's commits (pooled server txns and accepted
      // uplinks) reach the manager only at the fold point, so the validator
      // reads the MC vector through the cycle-epoch overlay, and accepted
      // uplink transactions queue for the serial prefix of the fold.
      mc_overlay_ = std::make_unique<McOverlay>(config_.num_objects);
      validator_->AttachStagedMode(mc_overlay_.get(), [this](ServerTxn&& txn) {
        pending_uplink_txns_.push_back(std::move(txn));
      });
    }
  }

  sessions_.clear();
  txns_.clear();
  for (uint32_t c = 0; c < config_.num_clients; ++c) {
    // Hier mode: every client validates against the broadcast hierarchical
    // view (raw pointer — no batch flush mid-cycle, see the hier_ comment).
    sessions_.push_back(std::make_unique<ClientSession>(config_, root.Split(), hier_));
    txns_.push_back(sessions_.back()->NewTxn());
  }

  if (tracer_ != nullptr) {
    // One single-writer ring per simulated actor; registered before any
    // event fires, never resized afterwards.
    server_trace_ = tracer_->AddTrack("server");
    for (size_t c = 0; c < sessions_.size(); ++c) {
      sessions_[c]->set_trace_ring(tracer_->AddTrack(StrFormat("client%zu", c)));
    }
  }

  if (config_.channel_broadcast) {
    frame_codec_.emplace(CycleStampCodec(config_.timestamp_bits), config_.channel_frame_bits);
    // The channel draws from its own salted streams (never from root), so
    // workload RNG draws — and hence the rate-0 decision logs — are
    // untouched by enabling the channel.
    channel_ =
        std::make_unique<LossyChannel>(config_.ChannelFaults(), config_.seed,
                                       config_.num_clients);
  }

  // Prime the loop: cycle 1 begins at t = 0; the first server transaction
  // and each client's first submission follow their think times.
  server_->BeginCycle(1, 0, *manager_);
  TraceCycleStart(server_trace_, *server_);
  if (config_.delta_broadcast) AttachAndObserveDelta();
  if (channel_) TransmitCycle();
  queue_.ScheduleAt(server_->CycleEndTime(), [this] { StartNextCycle(); });
  queue_.ScheduleAfter(server_workload_->NextInterval(), [this] { ServerCommitEvent(); });
  for (size_t c = 0; c < sessions_.size(); ++c) {
    queue_.ScheduleAfter(sessions_[c]->workload().NextInterTxnDelay(),
                         [this, c] { SubmitClientTxn(c); });
  }

  while (!done_ && queue_.Step()) {
  }
  // Commits staged during the final (partial) cycle still belong to it.
  FoldPooledCycle(txn_processor_.get(), *manager_, server_->snapshot().cycle,
                  pending_uplink_txns_, pending_server_txns_, mc_overlay_.get());

  for (const auto& session : sessions_) {
    if (session->receiver()) metrics_.AccumulateChannel(session->receiver()->stats());
  }
  SimSummary summary = metrics_.Summarize(server_->snapshot().cycle, queue_.now(),
                                          TotalCacheHits(), TotalCacheMisses());
  for (const auto& session : sessions_) {
    summary.abort_causes.Accumulate(session->abort_causes());
    if (config_.record_decisions) decisions_.push_back(std::move(session->decisions()));
  }
  if (config_.matrix_mode == MatrixMode::kSparse) {
    summary.matrix_nnz = manager_->sparse_f_matrix().nnz();
  } else if (hier_ != nullptr) {
    summary.matrix_nnz = hier_->exact().nnz();
    summary.hier = hier_->stats();
    summary.hier_groups = hier_->num_groups();
    summary.hier_refined_columns = hier_->refined_columns();
  }
  return summary;
}

uint64_t BroadcastSim::TotalCacheHits() const {
  uint64_t total = 0;
  for (const auto& s : sessions_) {
    if (s->cache()) total += s->cache()->hits();
  }
  return total;
}

uint64_t BroadcastSim::TotalCacheMisses() const {
  uint64_t total = 0;
  for (const auto& s : sessions_) {
    if (s->cache()) total += s->cache()->misses();
  }
  return total;
}

void BroadcastSim::EndOfCycleMatrixStep(Cycle ending) {
  if (hier_ != nullptr) {
    // The flushing accessor folds the ending cycle's queued commits into the
    // exact matrix — the cycle boundary — before policy and accounting run.
    manager_->hier_matrix();
    metrics_.RecordMatrixCycle(hier_->ControlBits(config_.timestamp_bits));
    uint64_t control_conflicts = 0;
    for (const auto& s : sessions_) {
      control_conflicts += s->abort_causes().Count(AbortCause::kControlConflict);
    }
    hier_->EndOfCycle(ending, control_conflicts);
    return;
  }
  if (config_.matrix_mode != MatrixMode::kSparse) return;
  if (config_.sparse_compaction_period > 0 && ending % config_.sparse_compaction_period == 0) {
    metrics_.RecordSparseCompaction(
        manager_->CompactSparseMatrix(CycleStampCodec(config_.timestamp_bits), ending));
  }
  // O(1): the sparse matrix keeps nnz / nonempty-column counters.
  metrics_.RecordMatrixCycle(
      SparseMatrixControlBits(manager_->sparse_f_matrix(), config_.timestamp_bits));
}

void BroadcastSim::StartNextCycle() {
  if (done_) return;
  // Pooled mode: the ending cycle's server transactions execute now, so the
  // snapshot taken at BeginCycle sees them — the same cycle-granular
  // visibility clients get under the sequential path.
  FoldPooledCycle(txn_processor_.get(), *manager_, server_->snapshot().cycle,
                  pending_uplink_txns_, pending_server_txns_, mc_overlay_.get());
  EndOfCycleMatrixStep(server_->snapshot().cycle);
  const Cycle next = server_->snapshot().cycle + 1;
  if (config_.stop_after_cycles > 0 && next > config_.stop_after_cycles) {
    done_ = true;
    return;
  }
  server_->BeginCycle(next, server_->CycleEndTime(), *manager_);
  TraceCycleStart(server_trace_, *server_);
  if (config_.delta_broadcast) AttachAndObserveDelta();
  if (channel_) TransmitCycle();
  queue_.ScheduleAt(server_->CycleEndTime(), [this] { StartNextCycle(); });
}

void BroadcastSim::AttachAndObserveDelta() {
  manager_->DrainTouchedColumns(touched_scratch_);
  server_->AttachDeltaControl(touched_scratch_);
  const CycleSnapshot& snap = server_->snapshot();
  const DeltaControl& ctl = *snap.delta;
  metrics_.RecordDeltaCycle(ctl.full_refresh, ctl.control_bits, ctl.full_bits);
  // In channel mode the trackers are fed from each client's reassembled
  // frames (TransmitCycle), not from the in-process control block.
  if (config_.channel_broadcast) return;
  for (auto& session : sessions_) {
    DeltaMatrixTracker& tracker = *session->tracker();
    if (snap.sparse_f_matrix != nullptr) {
      tracker.Observe(ctl, *snap.sparse_f_matrix);
    } else {
      tracker.Observe(ctl, snap.f_matrix);
    }
    // Test knob: model a client that missed this cycle's control block.
    if (config_.delta_desync_at_cycle != 0 && snap.cycle == config_.delta_desync_at_cycle) {
      tracker.ForceDesync();
    }
  }
}

void BroadcastSim::TransmitCycle() {
  const CycleSnapshot& snap = server_->snapshot();
  EncodeCycleFramesInto(snap, *frame_codec_, config_.object_size_bits, frame_scratch_);
  for (size_t c = 0; c < sessions_.size(); ++c) {
    ClientSession& session = *sessions_[c];
    const Transmission tx = channel_->Transmit(static_cast<uint32_t>(c), frame_scratch_);
    session.receiver()->IngestCycle(snap.cycle, tx, queue_.now());
    // The desync knob still works in channel mode (on top of real loss).
    if (session.tracker() && config_.delta_desync_at_cycle != 0 &&
        snap.cycle == config_.delta_desync_at_cycle) {
      session.tracker()->ForceDesync();
    }
  }
}

void BroadcastSim::ServerCommitEvent() {
  if (done_) return;
  const ServerTxn txn = server_workload_->NextTxn();
  if (txn_processor_ != nullptr) {
    // Stage the MC effect at event time: an uplink validated later this
    // cycle must see this write exactly as the sequential path's eager MC
    // maintenance would have shown it.
    if (mc_overlay_ != nullptr) mc_overlay_->Stage(txn.write_set, server_->snapshot().cycle);
    pending_server_txns_.push_back(txn);
  } else {
    manager_->ExecuteAndCommit(txn, server_->snapshot().cycle);
  }
  metrics_.RecordServerCommit();
  TraceServerCommit(server_trace_, queue_.now(), server_->snapshot().cycle, txn.id);
  queue_.ScheduleAfter(server_workload_->NextInterval(), [this] { ServerCommitEvent(); });
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
  queue_.ScheduleAt(NextReadSlotEnd(server_->schedule(), geometry_, txn.next_object(),
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
  const SimTime next_start = server_->CycleEndTime();
  queue_.ScheduleAt(
      NextReadSlotEnd(server_->schedule(), geometry_, txn.next_object(), next_start, next_start),
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
  ClientUpdateRequest request;
  request.id = next_client_update_id_++;
  request.reads = txn.protocol.reads();
  request.writes = txn.write_set;
  const Cycle cycle = server_->snapshot().cycle;
  const bool accepted = validator_->ValidateAndCommit(request, cycle).ok();
  sessions_[c]->UplinkVerdict(accepted, queue_.now(), cycle);
  // The client learns the outcome one uplink delay later.
  if (accepted) {
    metrics_.RecordServerCommit();  // it is also a committed update txn
    metrics_.RecordClientUpdateCommit();
    queue_.ScheduleAfter(config_.uplink_delay, [this, c] { CompleteTxn(c, false); });
  } else {
    metrics_.RecordClientUpdateReject();
    // Capture the validator's structured cause now — by the time the abort
    // fires, another client's rejection may have overwritten last_reject().
    const AbortInfo reject = validator_->last_reject();
    queue_.ScheduleAfter(config_.uplink_delay, [this, c, reject] {
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
    for (const Operation& op : manager_->recorded_history().ops()) {
      current.ops.push_back(op);
      if (op.type == OpType::kCommit || op.type == OpType::kAbort) {
        current.cycle = manager_->commit_cycles().at(op.txn);
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
  const FMatrixSnapshot& truth = final_snap.f_matrix;
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

TxnManagerOptions ManagerOptionsFor(const SimConfig& config) {
  const bool f_family =
      config.algorithm == Algorithm::kFMatrix || config.algorithm == Algorithm::kFMatrixNo;
  const bool sparse_mode = config.matrix_mode == MatrixMode::kSparse;
  const bool hier_mode = config.matrix_mode == MatrixMode::kHier;
  TxnManagerOptions options;
  // In sparse/hier mode the dense matrix is maintained only when the oracle
  // needs it (record_history) — it is O(n^2) and the snapshot path prefers
  // the sparse representation regardless.
  options.maintain_f_matrix = (f_family && !sparse_mode && !hier_mode) || config.record_history;
  options.maintain_sparse_matrix = f_family && sparse_mode;
  options.maintain_hier_matrix = hier_mode;
  options.hier_options = config.HierOptions();
  options.maintain_mc_vector = true;
  options.record_history = config.record_history;
  options.track_dirty_columns = config.delta_broadcast;
  return options;
}

Status ConfigureBroadcastServer(const SimConfig& config, BroadcastServer& server) {
  if (config.hot_set_size > 0 && config.hot_broadcast_frequency > 1) {
    // Multi-speed disk: hot objects several times per major cycle.
    std::vector<uint32_t> frequencies(config.num_objects, 1);
    for (uint32_t i = 0; i < config.hot_set_size; ++i) {
      frequencies[i] = config.hot_broadcast_frequency;
    }
    BCC_ASSIGN_OR_RETURN(BroadcastSchedule schedule,
                         BroadcastSchedule::FromFrequencies(frequencies));
    server.SetSchedule(std::move(schedule));
  }
  const bool f_family =
      config.algorithm == Algorithm::kFMatrix || config.algorithm == Algorithm::kFMatrixNo;
  if (f_family && config.num_groups > 0 && config.num_groups < config.num_objects) {
    server.SetPartition(ObjectPartition::Blocks(config.num_objects, config.num_groups));
  }
  return Status::OK();
}

std::unique_ptr<TxnProcessor> MakePooledProcessor(const SimConfig& config,
                                                  ServerTxnManager& manager) {
  if (config.update_scheme == UpdateScheme::kSequential) return nullptr;
  auto processor = std::make_unique<TxnProcessor>(config.num_objects, config.update_scheme,
                                                  config.update_workers);
  // Pooled-apply: the cycle-batch F-Matrix fold borrows the processor's
  // worker pool, partitioned by column (bit-identical to the serial fold).
  manager.SetParallelFold(
      [pool = processor.get()](uint32_t shards, const std::function<void(uint32_t)>& body) {
        pool->RunShards(shards, body);
      },
      config.update_workers);
  return processor;
}

void FoldPooledCycle(TxnProcessor* processor, ServerTxnManager& manager, Cycle cycle,
                     std::vector<ServerTxn>& uplinks, std::vector<ServerTxn>& server_txns,
                     McOverlay* overlay) {
  if (processor == nullptr) return;
  if (!uplinks.empty()) {
    // Accepted uplink transactions commit first, serially, in acceptance
    // order. Validation guaranteed each one's reads are disjoint from every
    // write staged before it was accepted, so the serial prefix places each
    // uplink's commit exactly where the client's broadcast reads put it —
    // after the prior cycle, before anything of this cycle that could
    // conflict. Letting the pooled batch order them instead could slot a
    // later-staged conflicting server commit in front.
    FoldIntoManager(processor->ExecuteSerial(uplinks), manager, cycle);
    uplinks.clear();
  }
  if (!server_txns.empty()) {
    FoldIntoManager(processor->ExecuteBatch(server_txns), manager, cycle);
    server_txns.clear();
  }
  // The fold published every staged MC effect for real; retire the epoch.
  if (overlay != nullptr) overlay->Clear();
}

void TraceServerCommit(TraceRing* ring, SimTime time, Cycle cycle, TxnId id) {
  if (ring == nullptr) return;
  TraceEvent e;
  e.type = TraceEventType::kCommit;
  e.time = time;
  e.cycle = cycle;
  e.value = id;
  ring->Record(e);
}

void TraceCycleStart(TraceRing* ring, const BroadcastServer& server) {
  if (ring == nullptr) return;
  TraceEvent cycle;
  cycle.type = TraceEventType::kCycleStart;
  cycle.time = server.snapshot().start_time;
  cycle.duration = server.CycleLengthBits();
  cycle.cycle = server.snapshot().cycle;
  ring->Record(cycle);
  TraceEvent tx;
  tx.type = TraceEventType::kBroadcastTx;
  tx.time = cycle.time;
  tx.cycle = cycle.cycle;
  tx.value = server.num_objects();
  ring->Record(tx);
}

}  // namespace bcc
