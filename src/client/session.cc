#include "client/session.h"

#include <utility>

namespace bcc {
namespace {

/// Accounts a passed read.
TxnStep Advance(ReadTxn& txn) {
  ++txn.read_idx;
  return txn.read_idx == txn.read_set.size() ? TxnStep::kReadsDone : TxnStep::kNextRead;
}

}  // namespace

ClientSession::ClientSession(const SimConfig& config, Rng rng, HierMatrix* hier)
    : config_(config), workload_(config, rng), hier_(hier) {
  if (config.enable_cache) {
    cache_ = std::make_unique<QuasiCache>(config.cache_capacity, config.cache_currency_bound);
  }
  if (config.delta_broadcast) {
    // Sparse direct mode reconstructs a SparseFMatrix (refreshes adopt the
    // snapshot's shared columns); channel-mode trackers stay dense — they
    // rebuild from on-air bytes, which are identical for every server
    // representation.
    const bool sparse = config.matrix_mode == MatrixMode::kSparse && !config.channel_broadcast;
    tracker_ = std::make_unique<DeltaMatrixTracker>(
        config.num_objects, CycleStampCodec(config.timestamp_bits), sparse);
  }
  if (config.channel_broadcast) {
    receiver_ = std::make_unique<ChannelReceiver>(
        config.num_objects,
        FrameCodec(CycleStampCodec(config.timestamp_bits), config.channel_frame_bits),
        tracker_.get());
  }
}

ReadTxn ClientSession::NewTxn() const {
  std::optional<CycleStampCodec> codec;
  if (config_.use_wire_codec) codec.emplace(config_.timestamp_bits);
  ReadTxn txn(config_.algorithm, codec);
  ReadOnlyTxnProtocol& protocol = txn.protocol;
  // The per-read O(n) column capture exists only to validate stale cached
  // reads; without a cache it is pure overhead.
  protocol.set_capture_columns(config_.enable_cache);
  // Delta mode: every F-family check reads the locally reconstructed matrix.
  if (tracker_ != nullptr) protocol.set_control_override(tracker_->view());
  // Channel mode: data pages (and, in full control mode, control columns)
  // come off the reassembled frames.
  if (receiver_ != nullptr) {
    protocol.set_value_override(&receiver_->values());
    if (tracker_ == nullptr) protocol.set_control_override(receiver_->matrix());
  }
  if (hier_ != nullptr) protocol.set_hier_control_override(hier_);
  return txn;
}

void ClientSession::set_trace_ring(TraceRing* ring) {
  trace_ = ring;
  if (receiver_ != nullptr) receiver_->set_trace_ring(ring);
  if (tracker_ != nullptr) tracker_->set_trace_ring(ring);
}

void ClientSession::ReceiveCycle(const CycleSnapshot& snap, std::span<const Frame> frames,
                                 LossyChannel* channel, uint32_t client, SimTime now) {
  if (receiver_ != nullptr) {
    receiver_->IngestCycle(snap.cycle, channel->Transmit(client, frames), now);
  } else if (tracker_ != nullptr) {
    tracker_->Observe(*snap.delta, snap.control());
  }
  // Test knob: model a client that missed this cycle's control block.
  if (tracker_ != nullptr && config_.delta_desync_at_cycle != 0 &&
      snap.cycle == config_.delta_desync_at_cycle) {
    tracker_->ForceDesync();
  }
}

void ClientSession::Begin(ReadTxn& txn, SimTime now) {
  txn.read_set = workload_.NextReadSet();
  txn.is_update = config_.client_update_fraction > 0.0 && workload_.NextIsUpdate();
  txn.write_set = txn.is_update ? workload_.NextWriteSet() : std::vector<ObjectId>{};
  txn.read_idx = 0;
  txn.restarts = 0;
  txn.loss_stalled = false;
  txn.desync_stalled = false;
  txn.protocol.Reset();
  txn.begin_time = now;
}

ReadGate ClientSession::Gate(ObjectId ob, Cycle cycle) const {
  // A desynced, stale or out-of-window tracker cannot validate any read this
  // cycle; the next cycle's block may be the resynchronizing refresh.
  if (tracker_ != nullptr && tracker_->Unusable(cycle)) return ReadGate::kStallDesync;
  if (receiver_ != nullptr) {
    const bool control_missing = tracker_ == nullptr && !receiver_->ControlUsable(ob, cycle);
    if (control_missing || !receiver_->DataUsable(ob, cycle)) return ReadGate::kStallLoss;
  }
  return ReadGate::kReady;
}

void ClientSession::Stall(ReadTxn& txn, ReadGate gate, SimTime now, Cycle cycle) {
  const bool desync = gate == ReadGate::kStallDesync;
  Trace(TraceEventType::kStall, now, cycle, txn.next_object(),
        desync ? kStallDeltaDesync : kStallChannelLoss);
  if (receiver_ != nullptr) {
    receiver_->RecordStall();
    txn.loss_stalled = true;
  }
  if (desync) txn.desync_stalled = true;
}

std::optional<TxnStep> ClientSession::ReadCached(ReadTxn& txn, const CycleSnapshot& snap,
                                                 SimTime now) {
  if (cache_ == nullptr) return std::nullopt;
  const ObjectId ob = txn.next_object();
  const std::optional<CacheEntry> entry = cache_->Lookup(ob, now);
  if (!entry) return std::nullopt;
  const StatusOr<ObjectVersion> value = txn.protocol.ReadFromCache(*entry, ob, snap);
  if (!value.ok()) return std::nullopt;
  Trace(TraceEventType::kRead, now, snap.cycle, ob, value->value);
  return Advance(txn);
}

TxnStep ClientSession::Read(ReadTxn& txn, const CycleSnapshot& snap, SimTime now) {
  const ObjectId ob = txn.next_object();
  const StatusOr<ObjectVersion> value = txn.protocol.Read(snap, ob);
  Trace(TraceEventType::kValidation, now, snap.cycle, ob, value.ok() ? 1 : 0);
  if (!value.ok()) return Abort(txn, txn.protocol.last_abort(), now, snap.cycle);
  Trace(TraceEventType::kRead, now, snap.cycle, ob, value->value);
  if (cache_ != nullptr) {
    CacheEntry entry;
    entry.version = *value;
    entry.cycle = snap.cycle;
    entry.cached_time = now;
    if (snap.f_matrix.num_objects() > 0) {
      const std::span<const Cycle> col = snap.f_matrix.Column(ob);
      entry.column.assign(col.begin(), col.end());
    }
    cache_->Insert(ob, std::move(entry));
  }
  return Advance(txn);
}

SimTime ClientSession::ThinkTime(TxnStep step) {
  const SimTime restart = step == TxnStep::kRestart ? config_.restart_delay : 0;
  return restart + workload_.NextInterOpDelay();
}

void ClientSession::UplinkVerdict(bool accepted, SimTime now, Cycle cycle) {
  Trace(TraceEventType::kValidation, now, cycle, 0, accepted ? 1 : 0);
  ++(accepted ? update_commits_ : update_rejects_);
}

TxnStep ClientSession::Abort(ReadTxn& txn, AbortInfo info, SimTime now, Cycle cycle) {
  if (info.cause != AbortCause::kUplinkReject) {
    if (txn.loss_stalled) {
      info.cause = AbortCause::kChannelLoss;
    } else if (txn.desync_stalled) {
      info.cause = AbortCause::kDesyncStall;
    }
  }
  abort_causes_.Record(info.cause);
  Trace(TraceEventType::kAbort, now, cycle, info.ob_j, 0, info);
  if (txn.loss_stalled && receiver_ != nullptr) receiver_->RecordLossAttributedAbort();
  txn.loss_stalled = false;
  txn.desync_stalled = false;
  ++txn.restarts;
  if (txn.restarts >= config_.max_restarts_per_txn) return TxnStep::kCensor;
  txn.protocol.Reset();
  txn.read_idx = 0;
  return TxnStep::kRestart;
}

void ClientSession::Complete(const ReadTxn& txn, bool censored, SimTime now, Cycle cycle) {
  if (config_.record_decisions) {
    decisions_.push_back(TxnDecision{txn.protocol.reads(), txn.restarts, censored});
  }
  AbortInfo censor;
  if (censored) {
    abort_causes_.Record(AbortCause::kCensored);
    censor.cause = AbortCause::kCensored;
  }
  Trace(censored ? TraceEventType::kAbort : TraceEventType::kCommit, now, cycle, 0,
        txn.protocol.reads().size(), censor);
  ++completed_;
  if (censored) ++censored_;
  restarts_ += txn.restarts;
}

void ClientSession::Trace(TraceEventType type, SimTime now, Cycle cycle, ObjectId object,
                          uint64_t value, const AbortInfo& abort) const {
  if (trace_ == nullptr) return;
  TraceEvent e;
  e.type = type;
  e.time = now;
  e.cycle = cycle;
  e.object = object;
  e.value = value;
  e.abort = abort;
  trace_->Record(e);
}

}  // namespace bcc
