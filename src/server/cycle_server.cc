#include "server/cycle_server.h"

#include <cassert>
#include <utility>

#include "obs/json.h"
#include "sim/metrics.h"

namespace bcc {
namespace {

/// The structures the manager maintains under `config`.
TxnManagerOptions ManagerOptions(const SimConfig& config) {
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
  options.record_history = config.record_history;
  options.track_dirty_columns = config.delta_broadcast;
  return options;
}

void Trace(TraceRing* ring, TraceEventType type, SimTime time, SimTime duration, Cycle cycle,
           uint64_t value) {
  if (ring == nullptr) return;
  TraceEvent e;
  e.type = type;
  e.time = time;
  e.duration = duration;
  e.cycle = cycle;
  e.value = value;
  ring->Record(e);
}

void WriteIds(JsonWriter& w, const char* key, const std::vector<ObjectId>& ids) {
  w.Key(key).BeginArray();
  for (const ObjectId ob : ids) w.Value(static_cast<uint64_t>(ob));
  w.EndArray();
}

}  // namespace

bool FiresBeforeFlip(SimTime at, SimTime parent_time, bool parent_pre_flip, SimTime cycle_bits) {
  if (at == 0 || at % cycle_bits != 0) return false;  // not on a boundary
  const SimTime flip_inserted = at - cycle_bits;
  return parent_time < flip_inserted || (parent_time == flip_inserted && parent_pre_flip);
}

StatusOr<std::unique_ptr<CycleServer>> CycleServer::Create(const SimConfig& config,
                                                           Rng workload_rng,
                                                           CycleServerOptions options) {
  std::unique_ptr<CycleServer> cs(new CycleServer(config, workload_rng, options));
  BroadcastServer& server = *cs->server_;
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
  cs->cycle_bits_ = server.CycleLengthBits();
  // The first commit is scheduled at set-up (t = 0), after the first flip.
  cs->next_commit_time_ = cs->workload_.NextInterval();
  cs->next_commit_pre_flip_ = FiresBeforeFlip(cs->next_commit_time_, 0, false, cs->cycle_bits_);
  return cs;
}

CycleServer::CycleServer(const SimConfig& config, Rng workload_rng, CycleServerOptions options)
    : config_(config),
      options_(options),
      manager_(std::make_unique<ServerTxnManager>(config.num_objects, ManagerOptions(config))),
      server_(std::make_unique<BroadcastServer>(config.num_objects, config.Geometry())),
      hier_(manager_->hier_matrix()),
      workload_(config, workload_rng),
      validator_(std::make_unique<UpdateValidator>(manager_.get())),
      next_uplink_id_(options.first_uplink_id) {
  if (config.delta_broadcast) {
    server_->EnableDeltaBroadcast(CycleStampCodec(config.timestamp_bits),
                                  config.delta_refresh_period);
  }
  if (config.channel_broadcast) {
    frame_codec_.emplace(CycleStampCodec(config.timestamp_bits), config.channel_frame_bits);
  }
  if (config.update_scheme != UpdateScheme::kSequential) {
    processor_ = std::make_unique<TxnProcessor>(config.num_objects, config.update_scheme,
                                                config.update_workers);
    // Pooled-apply: the cycle-batch F-Matrix fold borrows the processor's
    // executors, partitioned by column (bit-identical to the serial fold).
    manager_->SetParallelFold(
        [pool = processor_.get()](uint32_t shards, const std::function<void(uint32_t)>& body) {
          pool->RunShards(shards, body);
        },
        config.update_workers);
    // A cycle's commits reach the manager only at the fold, so the
    // validator reads the store's MC stamps through the cycle-epoch overlay
    // and accepted uplinks queue for the fold's serial prefix.
    overlay_ = std::make_unique<McOverlay>(config.num_objects);
    validator_->AttachStagedMode(overlay_.get(), [this](ServerTxn&& txn) {
      pending_uplinks_.push_back(std::move(txn));
    });
  }
}

CycleServer::~CycleServer() = default;

const CycleSnapshot& CycleServer::BeginCycle(Cycle cycle) {
  const SimTime start = static_cast<SimTime>(cycle - 1) * cycle_bits_;
  server_->BeginCycle(cycle, start, *manager_);
  Trace(trace_, TraceEventType::kCycleStart, start, cycle_bits_, cycle, 0);
  Trace(trace_, TraceEventType::kBroadcastTx, start, 0, cycle, config_.num_objects);
  if (server_->delta_enabled()) {
    manager_->DrainTouchedColumns(touched_);
    server_->AttachDeltaControl(touched_);
    const DeltaControl& ctl = *server_->snapshot().delta;
    if (options_.metrics != nullptr) {
      options_.metrics->RecordDeltaCycle(ctl.full_refresh, ctl.control_bits, ctl.full_bits);
    }
  }
  if (frame_codec_) {
    EncodeCycleFramesInto(server_->snapshot(), *frame_codec_, config_.object_size_bits, frames_);
  }
  return server_->snapshot();
}

void CycleServer::DrawCycle(Cycle cycle) {
  assert(drawn_cycle_ == 0 && "the drawn cycle is staged before the next is drawn");
  assert(PhaseOf(next_commit_time_, next_commit_pre_flip_, cycle_bits_) >= cycle &&
         "cycles are drawn in order");
  drawn_cycle_ = cycle;
  while (PhaseOf(next_commit_time_, next_commit_pre_flip_, cycle_bits_) == cycle) {
    drawn_.push_back(DrawnTxn{workload_.NextTxn(), next_commit_time_});
    const SimTime prev = next_commit_time_;
    const bool prev_pre = next_commit_pre_flip_;
    next_commit_time_ = prev + workload_.NextInterval();
    next_commit_pre_flip_ = FiresBeforeFlip(next_commit_time_, prev, prev_pre, cycle_bits_);
  }
}

uint64_t CycleServer::StageCycle(Cycle cycle) {
  if (drawn_cycle_ != cycle) DrawCycle(cycle);
  for (DrawnTxn& drawn : drawn_) {
    ServerTxn& txn = drawn.txn;
    if (config_.record_decisions) {
      if (processor_ != nullptr) unsequenced_server_.push_back(log_.server_commits.size());
      log_.server_commits.push_back(ServerCommitRecord{
          txn.id, cycle, processor_ != nullptr ? 0 : next_seq_++, txn.read_set, txn.write_set});
    }
    Trace(trace_, TraceEventType::kCommit, drawn.time, 0, cycle, txn.id);
    if (processor_ != nullptr) {
      overlay_->Stage(txn.write_set, cycle);
      pending_server_.push_back(std::move(txn));
    } else {
      manager_->Commit(txn, cycle);
    }
    if (options_.metrics != nullptr) options_.metrics->RecordServerCommit();
  }
  const uint64_t staged = drawn_.size();
  drawn_.clear();
  drawn_cycle_ = 0;
  server_commits_ += staged;
  return staged;
}

UplinkOutcome CycleServer::SubmitUplink(uint32_t client, std::vector<ReadRecord> reads,
                                        std::vector<ObjectId> writes, Cycle cycle) {
  ClientUpdateRequest request;
  request.id = next_uplink_id_++;
  request.reads = std::move(reads);
  request.writes = std::move(writes);
  UplinkOutcome outcome;
  outcome.accepted = validator_->ValidateAndCommit(request, cycle).ok();
  if (!outcome.accepted) outcome.cause = validator_->last_reject();
  if (options_.metrics != nullptr) {
    if (outcome.accepted) {
      options_.metrics->RecordServerCommit();  // it is also a committed update txn
      options_.metrics->RecordClientUpdateCommit();
    } else {
      options_.metrics->RecordClientUpdateReject();
    }
  }
  if (config_.record_decisions) {
    // The sequential scheme commits an accepted uplink on the spot; a pooled
    // one sequences it at the fold.
    const bool direct = outcome.accepted && processor_ == nullptr;
    if (outcome.accepted && !direct) unsequenced_uplinks_.push_back(log_.uplinks.size());
    log_.uplinks.push_back(UplinkDecision{request.id, client, cycle, direct ? next_seq_++ : 0,
                                          outcome.accepted, outcome.cause, std::move(request.reads),
                                          std::move(request.writes)});
  }
  return outcome;
}

void CycleServer::Fold(Cycle cycle) {
  if (processor_ == nullptr) return;  // everything committed when staged
  if (!pending_uplinks_.empty()) {
    // Accepted uplinks commit first, serially, in acceptance order.
    // Validation saw every write of the cycle's server batch, so each
    // uplink's reads are disjoint from it: the serial prefix places the
    // uplink exactly where the client's broadcast reads put it, after the
    // prior cycle. Letting the pooled batch order them instead could slot a
    // conflicting server commit in front.
    FoldIntoManager(processor_->ExecuteSerial(pending_uplinks_), *manager_, cycle);
    pending_uplinks_.clear();
  }
  if (!pending_server_.empty()) {
    FoldIntoManager(processor_->ExecuteBatch(pending_server_), *manager_, cycle);
    pending_server_.clear();
  }
  // The fold published every staged MC effect for real; retire the epoch.
  overlay_->Clear();
  // The fold is the store's commit point: sequence the log in its order.
  for (size_t i : unsequenced_uplinks_) log_.uplinks[i].seq = next_seq_++;
  unsequenced_uplinks_.clear();
  for (size_t i : unsequenced_server_) log_.server_commits[i].seq = next_seq_++;
  unsequenced_server_.clear();
}

void CycleServer::EndCycle(Cycle cycle, uint64_t control_conflicts) {
  Fold(cycle);
  SimMetrics* metrics = options_.metrics;
  if (hier_ != nullptr) {
    // The flushing accessor folds the cycle's queued commits into the exact
    // matrix — the cycle boundary — before policy and accounting run.
    manager_->hier_matrix();
    if (metrics != nullptr) metrics->RecordMatrixCycle(hier_->ControlBits(config_.timestamp_bits));
    hier_->EndOfCycle(cycle, control_conflicts);
    return;
  }
  if (config_.matrix_mode != MatrixMode::kSparse) return;
  if (config_.sparse_compaction_period > 0 && cycle % config_.sparse_compaction_period == 0) {
    const uint64_t dropped =
        manager_->CompactSparseMatrix(CycleStampCodec(config_.timestamp_bits), cycle);
    if (metrics != nullptr) metrics->RecordSparseCompaction(dropped);
  }
  // O(1): the sparse matrix keeps nnz / nonempty-column counters.
  if (metrics != nullptr) {
    metrics->RecordMatrixCycle(
        SparseMatrixControlBits(manager_->sparse_f_matrix(), config_.timestamp_bits));
  }
}

std::string DecisionLog::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("server_commits").BeginArray();
  for (const ServerCommitRecord& r : server_commits) {
    w.BeginObject();
    w.Key("id").Value(static_cast<uint64_t>(r.id));
    w.Key("cycle").Value(static_cast<uint64_t>(r.cycle));
    w.Key("seq").Value(r.seq);
    WriteIds(w, "reads", r.reads);
    WriteIds(w, "writes", r.writes);
    w.EndObject();
  }
  w.EndArray();
  w.Key("uplinks").BeginArray();
  for (const UplinkDecision& d : uplinks) {
    w.BeginObject();
    w.Key("id").Value(static_cast<uint64_t>(d.id));
    w.Key("client_index").Value(d.client_index);
    w.Key("cycle").Value(static_cast<uint64_t>(d.cycle));
    w.Key("seq").Value(d.seq);
    w.Key("accepted").Value(d.accepted);
    if (!d.accepted) {
      w.Key("cause").BeginObject();
      w.Key("kind").Value(AbortCauseName(d.cause.cause));
      w.Key("ob_i").Value(static_cast<uint64_t>(d.cause.ob_i));
      w.Key("ob_j").Value(static_cast<uint64_t>(d.cause.ob_j));
      w.Key("read_cycle").Value(static_cast<uint64_t>(d.cause.read_cycle));
      w.Key("c_ij").Value(static_cast<uint64_t>(d.cause.c_ij));
      w.EndObject();
    }
    w.Key("reads").BeginArray();
    for (const ReadRecord& rr : d.reads) {
      w.BeginObject();
      w.Key("object").Value(static_cast<uint64_t>(rr.object));
      w.Key("cycle").Value(static_cast<uint64_t>(rr.cycle));
      w.EndObject();
    }
    w.EndArray();
    WriteIds(w, "writes", d.writes);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

}  // namespace bcc
