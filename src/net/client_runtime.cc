#include "net/client_runtime.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "channel/frame.h"
#include "client/delta_tracker.h"
#include "client/read_txn.h"
#include "client/receiver.h"
#include "common/format.h"
#include "net/datagram.h"
#include "net/epoll_loop.h"
#include "net/pacing.h"
#include "net/socket.h"
#include "net/state_digest.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "sim/workload.h"

namespace bcc {
namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t Quantile(std::vector<uint64_t> sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

void AppendChannelStatsJson(JsonWriter& w, const ChannelStats& ch) {
  w.BeginObject()
      .Key("frames_sent").Value(ch.frames_sent)
      .Key("frames_dropped").Value(ch.frames_dropped)
      .Key("frames_delivered").Value(ch.frames_delivered)
      .Key("frames_rejected").Value(ch.frames_rejected)
      .Key("control_losses").Value(ch.control_losses)
      .Key("data_losses").Value(ch.data_losses)
      .Key("stalls").Value(ch.stalls)
      .Key("resyncs").Value(ch.resyncs)
      .Key("tracker_desyncs").Value(ch.tracker_desyncs)
      .Key("loss_attributed_aborts").Value(ch.loss_attributed_aborts)
      .EndObject();
}

/// One open transaction. Slots progress in lockstep with the broadcast: each
/// ingested cycle advances every idle slot by exactly one read, so a
/// transaction of L reads spans >= L cycles and its F-Matrix validation runs
/// against genuinely evolving control info.
struct TxnSlot {
  explicit TxnSlot(Algorithm algorithm, std::optional<CycleStampCodec> codec)
      : protocol(algorithm, codec) {}

  ReadOnlyTxnProtocol protocol;
  std::vector<ObjectId> read_set;
  std::vector<ObjectId> write_set;  // nonempty iff is_update
  bool is_update = false;
  size_t read_idx = 0;
  uint64_t start_us = 0;
  bool stalled_this_attempt = false;

  // Update-uplink state: an UPDATE is in flight and the slot is parked until
  // the matching UPDATE_REPLY (resent if the reply outwaits reply_wait_cycles).
  bool awaiting_reply = false;
  uint32_t update_seq = 0;
  uint32_t reply_wait_cycles = 0;
};

/// Per-cycle reassembly buffer: datagrams held until the cycle is flushed
/// (all datagrams arrived, a newer cycle started, or the daemon asked for
/// stats). Late datagrams for an already-flushed cycle are dropped — the
/// missed-cycle rule makes stale control info unusable anyway.
struct CycleBuffer {
  uint16_t dgram_count = 0;
  uint16_t cycle_frames = 0;
  std::map<uint16_t, std::vector<Frame>> dgrams;  // dgram_seq -> frames

  bool Complete() const { return dgram_count > 0 && dgrams.size() == dgram_count; }
};

class ClientRuntime {
 public:
  ClientRuntime(const NetConfig& net, const SimConfig& sim) : net_(net), sim_(sim) {}

  Status Run(ClientReport* report);

 private:
  Status SetUp();
  void SetUpTelemetry();
  Status MaybeLogMetrics();
  void RefreshSnapshotGauges();
  std::string MetricsEnvelopeJson();
  Status Handshake();
  Status CompleteHandshake(const HelloAckMsg& ack);
  Status DrainSocket(UdpSocket* sock);
  Status HandleDatagram(const InDatagramView& d);
  Status HandleCycleData(std::span<const uint8_t> bytes);
  Status FlushCycle(Cycle cycle, CycleBuffer&& buffer);
  Status AdvanceSlots(Cycle cycle);
  void StartNextTxn(TxnSlot& slot);
  void CommitSlot(TxnSlot& slot);
  void AbortSlot(TxnSlot& slot);
  Status SendUpdate(TxnSlot& slot);
  Status HandleUpdateReply(const UpdateReplyMsg& reply);
  Status SendStats();
  uint64_t ComputeDigest() const;

  const NetConfig& net_;
  SimConfig sim_;

  UdpSocket uplink_;
  UdpSocket mcast_;  // valid only with --mcast
  SockAddr server_addr_ = {};
  EpollLoop loop_;

  HelloAckMsg ack_;
  std::optional<CycleStampCodec> stamp_codec_;
  std::optional<FrameCodec> codec_;
  std::unique_ptr<DeltaMatrixTracker> tracker_;
  std::unique_ptr<ChannelReceiver> receiver_;
  std::unique_ptr<ClientWorkload> workload_;
  std::vector<std::unique_ptr<TxnSlot>> slots_;

  std::map<Cycle, CycleBuffer> pending_cycles_;
  Cycle last_flushed_ = 0;
  uint64_t cycles_ingested_ = 0;

  uint64_t commits_ = 0;
  uint64_t aborts_ = 0;
  uint64_t update_commits_ = 0;
  uint64_t update_rejects_ = 0;
  uint32_t next_update_seq_ = 1;
  std::vector<uint64_t> response_us_;

  bool stats_requested_ = false;
  uint64_t last_stats_req_ms_ = 0;

  // Telemetry (DESIGN.md §4k). Handles are null when telemetry is off, so
  // every recording site is a branch-on-null no-op (the PR-4 contract).
  std::unique_ptr<MetricsRegistry> registry_;
  Counter* m_cycles_ingested_ = nullptr;
  Counter* m_gap_cycles_ = nullptr;
  Counter* m_reads_ = nullptr;
  Counter* m_commits_ = nullptr;
  Counter* m_aborts_ = nullptr;
  Counter* m_stalls_ = nullptr;
  Counter* m_updates_sent_ = nullptr;
  Counter* m_update_commits_ = nullptr;
  Counter* m_update_rejects_ = nullptr;
  Counter* m_metrics_polls_ = nullptr;
  Gauge* m_last_cycle_ = nullptr;
  Gauge* m_pending_cycles_ = nullptr;
  Gauge* m_frames_delivered_ = nullptr;
  Gauge* m_frames_dropped_ = nullptr;
  Histogram* m_response_us_ = nullptr;
  Histogram* m_cycle_gap_ = nullptr;
  std::unique_ptr<MetricsLogger> metrics_logger_;
  std::unique_ptr<Tracer> tracer_;
  TraceRing* ring_ = nullptr;

  WallClock clock_;
};

Status ClientRuntime::Run(ClientReport* report) {
  BCC_RETURN_IF_ERROR(net_.Validate());
  BCC_RETURN_IF_ERROR(NormalizeNetSimConfig(&sim_));
  if (net_.connect.empty()) {
    return Status::InvalidArgument("bcc_client requires --connect=ip:port");
  }
  SetUpTelemetry();
  BCC_RETURN_IF_ERROR(SetUp());
  BCC_RETURN_IF_ERROR(Handshake());

  // Main loop: ingest broadcast + uplink traffic until the daemon's
  // STATS_REQ (answered in HandleDatagram), then linger so a lost STATS can
  // be re-requested before exiting.
  while (true) {
    if (net_.max_wall_ms > 0 && clock_.ElapsedMs() > net_.max_wall_ms) {
      return Status::Internal("client watchdog expired before the run completed");
    }
    if (stats_requested_ && clock_.ElapsedMs() - last_stats_req_ms_ > 1000) break;
    BCC_RETURN_IF_ERROR(loop_.Poll(50).status());
    BCC_RETURN_IF_ERROR(MaybeLogMetrics());
  }

  report->client_index = ack_.client_index;
  report->cycles_ingested = cycles_ingested_;
  report->commits = commits_;
  report->aborts = aborts_;
  report->txns = commits_ + aborts_;
  report->update_commits = update_commits_;
  report->update_rejects = update_rejects_;
  report->digest = ComputeDigest();
  std::sort(response_us_.begin(), response_us_.end());
  report->p50_us = Quantile(response_us_, 0.50);
  report->p99_us = Quantile(response_us_, 0.99);
  report->channel = receiver_->stats();
  if (registry_ != nullptr) {
    RefreshSnapshotGauges();
    report->metrics_json = registry_->ToJson();
  }
  if (metrics_logger_ != nullptr) {
    BCC_RETURN_IF_ERROR(metrics_logger_->WriteNow(clock_.ElapsedMs()));
  }
  if (tracer_ != nullptr && !net_.trace_out.empty()) {
    BCC_RETURN_IF_ERROR(WriteTextFile(net_.trace_out, ExportChromeTrace(*tracer_)));
  }
  return Status::OK();
}

void ClientRuntime::SetUpTelemetry() {
  if (!net_.TelemetryEnabled()) return;
  registry_ = std::make_unique<MetricsRegistry>();
  m_cycles_ingested_ = registry_->AddCounter("client.cycles_ingested");
  m_gap_cycles_ = registry_->AddCounter("client.gap_cycles");
  m_reads_ = registry_->AddCounter("client.reads");
  m_commits_ = registry_->AddCounter("client.commits");
  m_aborts_ = registry_->AddCounter("client.aborts");
  m_stalls_ = registry_->AddCounter("client.stalls");
  m_updates_sent_ = registry_->AddCounter("uplink.updates_sent");
  m_update_commits_ = registry_->AddCounter("uplink.update_commits");
  m_update_rejects_ = registry_->AddCounter("uplink.update_rejects");
  m_metrics_polls_ = registry_->AddCounter("metrics.polls");
  m_last_cycle_ = registry_->AddGauge("client.last_cycle");
  m_pending_cycles_ = registry_->AddGauge("client.pending_cycles");
  m_frames_delivered_ = registry_->AddGauge("channel.frames_delivered");
  m_frames_dropped_ = registry_->AddGauge("channel.frames_dropped");
  m_response_us_ = registry_->AddHistogram("client.response_us", ExponentialBounds(64, 2.0, 16));
  m_cycle_gap_ = registry_->AddHistogram("client.cycle_gap", ExponentialBounds(1, 2.0, 8));
  if (!net_.trace_out.empty()) tracer_ = std::make_unique<Tracer>(net_.trace_capacity);
  // The MetricsLogger is created at handshake time, once the client knows
  // its index (the JSONL "node" field).
}

/// Gauges mirroring receiver/reassembly state are refreshed lazily, right
/// before each snapshot is rendered — cheaper than updating them on the
/// datagram path and just as fresh to a poller.
void ClientRuntime::RefreshSnapshotGauges() {
  if (registry_ == nullptr) return;
  GaugeSet(m_pending_cycles_, static_cast<int64_t>(pending_cycles_.size()));
  GaugeSet(m_last_cycle_, static_cast<int64_t>(last_flushed_));
  if (receiver_ != nullptr) {
    const ChannelStats& ch = receiver_->stats();
    GaugeSet(m_frames_delivered_, static_cast<int64_t>(ch.frames_delivered));
    GaugeSet(m_frames_dropped_, static_cast<int64_t>(ch.frames_dropped));
  }
}

Status ClientRuntime::MaybeLogMetrics() {
  if (metrics_logger_ == nullptr) return Status::OK();
  RefreshSnapshotGauges();
  return metrics_logger_->MaybeWrite(clock_.ElapsedMs());
}

std::string ClientRuntime::MetricsEnvelopeJson() {
  RefreshSnapshotGauges();
  JsonWriter w;
  w.BeginObject();
  w.Key("node").Value(
      receiver_ != nullptr ? StrFormat("client%u", ack_.client_index) : "client");
  w.Key("enabled").Value(registry_ != nullptr);
  w.Key("t_ms").Value(clock_.ElapsedMs());
  w.Key("cycle").Value(static_cast<uint64_t>(last_flushed_));
  if (registry_ != nullptr) {
    w.Key("metrics");
    registry_->WriteJson(w);
  }
  w.EndObject();
  return std::move(w).Take();
}

Status ClientRuntime::SetUp() {
  BCC_RETURN_IF_ERROR(uplink_.Open());
  BCC_RETURN_IF_ERROR(uplink_.Bind(Endpoint{"0.0.0.0", 0}));
  BCC_RETURN_IF_ERROR(uplink_.SetRecvBufferBytes(net_.rcvbuf_bytes));
  BCC_ASSIGN_OR_RETURN(const Endpoint server, ParseEndpoint(net_.connect));
  BCC_ASSIGN_OR_RETURN(server_addr_, ResolveEndpoint(server));

  BCC_RETURN_IF_ERROR(loop_.Init());
  BCC_RETURN_IF_ERROR(loop_.Add(uplink_.fd(), [this] { return DrainSocket(&uplink_); }));

  if (!net_.multicast.empty()) {
    BCC_RETURN_IF_ERROR(mcast_.Open());
    BCC_ASSIGN_OR_RETURN(const Endpoint group, ParseEndpoint(net_.multicast));
    BCC_RETURN_IF_ERROR(mcast_.JoinMulticast(group));
    BCC_RETURN_IF_ERROR(mcast_.SetRecvBufferBytes(net_.rcvbuf_bytes));
    BCC_RETURN_IF_ERROR(loop_.Add(mcast_.fd(), [this] { return DrainSocket(&mcast_); }));
  }
  return Status::OK();
}

Status ClientRuntime::Handshake() {
  HelloMsg hello;
  hello.client_id = net_.client_id != 0 ? net_.client_id : static_cast<uint32_t>(getpid());
  const std::vector<uint8_t> wire = EncodeHello(hello);

  uint64_t last_send_ms = 0;
  bool first = true;
  while (receiver_ == nullptr) {
    if (clock_.ElapsedMs() > net_.hello_timeout_ms) {
      return Status::Internal(
          StrFormat("no HELLO_ACK from %s within %llu ms", net_.connect.c_str(),
                    static_cast<unsigned long long>(net_.hello_timeout_ms)));
    }
    if (first || clock_.ElapsedMs() - last_send_ms > 200) {
      BCC_RETURN_IF_ERROR(uplink_.SendTo(wire, server_addr_).status());
      last_send_ms = clock_.ElapsedMs();
      first = false;
    }
    BCC_RETURN_IF_ERROR(loop_.Poll(50).status());
  }
  return Status::OK();
}

// Runs inside HandleDatagram the moment the HELLO_ACK arrives: the daemon
// may fan out cycle 1 immediately after acking the last registration, so
// the receiver must exist before the next datagram of the same drain batch
// is processed — deferring setup to the Handshake loop would discard those
// frames as pre-handshake noise and deterministically lose the first cycle.
Status ClientRuntime::CompleteHandshake(const HelloAckMsg& ack) {
  ack_ = ack;

  // The daemon's geometry must match ours exactly — a drifting config would
  // not corrupt state (CRCs and the missed-cycle rule reject it) but it
  // would silently turn the whole broadcast into loss.
  if (ack_.num_objects != sim_.num_objects ||
      ack_.ts_bits != static_cast<uint8_t>(sim_.timestamp_bits) ||
      ack_.frame_bits != static_cast<uint32_t>(sim_.channel_frame_bits)) {
    return Status::FailedPrecondition(
        StrFormat("server geometry mismatch: server n=%u ts=%u frame=%u, "
                  "client n=%u ts=%u frame=%llu",
                  ack_.num_objects, ack_.ts_bits, ack_.frame_bits, sim_.num_objects,
                  sim_.timestamp_bits,
                  static_cast<unsigned long long>(sim_.channel_frame_bits)));
  }
  const bool delta = ack_.control_mode != CycleIndex::kControlColumns;
  sim_.delta_broadcast = delta;

  stamp_codec_.emplace(sim_.timestamp_bits);
  codec_.emplace(*stamp_codec_, sim_.channel_frame_bits);
  if (delta) tracker_ = std::make_unique<DeltaMatrixTracker>(sim_.num_objects, *stamp_codec_);
  receiver_ = std::make_unique<ChannelReceiver>(sim_.num_objects, *codec_, tracker_.get());
  if (tracer_ != nullptr) {
    ring_ = tracer_->AddTrack(StrFormat("client%u", ack_.client_index));
    receiver_->set_trace_ring(ring_);
    if (tracker_ != nullptr) tracker_->set_trace_ring(ring_);
  }
  if (registry_ != nullptr) {
    metrics_logger_ = std::make_unique<MetricsLogger>(
        net_.metrics_out, net_.metrics_interval_ms, registry_.get(),
        StrFormat("client%u", ack_.client_index));
  }

  // Replicate the DES RNG tree so client `i`'s workload stream is the same
  // one the in-process simulation would hand its client `i`: the root splits
  // once for the server, then once per client in index order.
  Rng root(sim_.seed);
  (void)root.Split();  // server workload
  for (uint32_t i = 0; i < ack_.client_index; ++i) (void)root.Split();
  workload_ = std::make_unique<ClientWorkload>(sim_, root.Split());

  for (uint32_t i = 0; i < net_.txns_per_cycle; ++i) {
    auto slot = std::make_unique<TxnSlot>(sim_.algorithm, stamp_codec_);
    slot->protocol.set_value_override(&receiver_->values());
    slot->protocol.set_control_override(tracker_ ? &tracker_->matrix() : &receiver_->matrix());
    StartNextTxn(*slot);
    slots_.push_back(std::move(slot));
  }
  return Status::OK();
}

Status ClientRuntime::DrainSocket(UdpSocket* sock) {
  while (true) {
    BCC_ASSIGN_OR_RETURN(const std::span<const InDatagramView> batch,
                         sock->RecvBatchInPlace(64, 65536));
    if (batch.empty()) return Status::OK();
    for (const InDatagramView& d : batch) BCC_RETURN_IF_ERROR(HandleDatagram(d));
  }
}

Status ClientRuntime::HandleDatagram(const InDatagramView& d) {
  const StatusOr<MsgKind> kind = PeekKind(d.bytes);
  if (!kind.ok()) return Status::OK();  // foreign datagram: ignore
  switch (*kind) {
    case MsgKind::kHelloAck: {
      BCC_ASSIGN_OR_RETURN(const HelloAckMsg ack, DecodeHelloAck(d.bytes));
      if (receiver_ != nullptr) return Status::OK();  // duplicates ignored
      return CompleteHandshake(ack);
    }
    case MsgKind::kCycleData:
      if (receiver_ == nullptr) return Status::OK();  // pre-handshake noise
      return HandleCycleData(d.bytes);
    case MsgKind::kUpdateReply: {
      BCC_ASSIGN_OR_RETURN(const UpdateReplyMsg reply, DecodeUpdateReply(d.bytes));
      return HandleUpdateReply(reply);
    }
    case MsgKind::kStatsReq: {
      if (receiver_ == nullptr) return Status::OK();
      // Flush whatever is still buffered (the final cycle completes here
      // when its last datagram arrived before the request), then report.
      while (!pending_cycles_.empty()) {
        auto node = pending_cycles_.extract(pending_cycles_.begin());
        BCC_RETURN_IF_ERROR(FlushCycle(node.key(), std::move(node.mapped())));
      }
      stats_requested_ = true;
      last_stats_req_ms_ = clock_.ElapsedMs();
      return SendStats();
    }
    case MsgKind::kMetricsReq: {
      const auto req = DecodeMetricsReq(d.bytes);
      if (!req.ok()) return Status::OK();
      CounterAdd(m_metrics_polls_);
      MetricsMsg reply;
      reply.token = req->token;
      reply.node_kind = kMetricsNodeClient;
      reply.json = MetricsEnvelopeJson();
      return uplink_.SendTo(EncodeMetrics(reply), d.from).status();
    }
    default:
      return Status::OK();  // server-bound kinds: not ours
  }
}

Status ClientRuntime::HandleCycleData(std::span<const uint8_t> bytes) {
  BCC_ASSIGN_OR_RETURN(CycleDataMsg msg, DecodeCycleData(bytes));
  const Cycle cycle = msg.header.cycle;
  if (cycle <= last_flushed_) return Status::OK();  // late: that cycle is gone

  CycleBuffer& buffer = pending_cycles_[cycle];
  buffer.dgram_count = msg.header.dgram_count;
  buffer.cycle_frames = msg.header.cycle_frames;
  buffer.dgrams.emplace(msg.header.dgram_seq, std::move(msg.frames));  // dup seq ignored

  // A newer cycle on the air means older cycles' remaining datagrams are
  // lost (flushing them counts the loss); the newest cycle itself flushes
  // only once complete, so in-cycle reordering never costs frames.
  while (!pending_cycles_.empty()) {
    auto first = pending_cycles_.begin();
    const bool newest = first->first == pending_cycles_.rbegin()->first;
    if (newest && !first->second.Complete()) break;
    auto node = pending_cycles_.extract(first);
    BCC_RETURN_IF_ERROR(FlushCycle(node.key(), std::move(node.mapped())));
  }
  return Status::OK();
}

Status ClientRuntime::FlushCycle(Cycle cycle, CycleBuffer&& buffer) {
  // Cycles between the last flush and this one never produced a single
  // datagram (receiver overrun, or real network loss): observe them as
  // all-frames-dropped transmissions so the receiver's loss accounting and
  // the tracker's desync logic see the cycle pass, exactly as a DES client
  // whose channel dropped every frame would. The per-cycle frame count is
  // constant (same broadcast schedule every cycle), so this buffer's header
  // value stands in for the lost cycles'.
  if (cycle > last_flushed_ + 1) {
    const uint64_t gap_n = cycle - last_flushed_ - 1;
    CounterAdd(m_gap_cycles_, gap_n);
    HistogramRecord(m_cycle_gap_, gap_n);
  }
  for (Cycle gap = last_flushed_ + 1; gap < cycle; ++gap) {
    ++cycles_ingested_;
    CounterAdd(m_cycles_ingested_);
    Transmission lost;
    lost.sent = buffer.cycle_frames;
    lost.dropped = buffer.cycle_frames;
    receiver_->IngestCycle(gap, lost, clock_.ElapsedUs());
    BCC_RETURN_IF_ERROR(AdvanceSlots(gap));
  }
  last_flushed_ = cycle;
  ++cycles_ingested_;
  CounterAdd(m_cycles_ingested_);
  GaugeSet(m_last_cycle_, static_cast<int64_t>(cycle));

  Transmission tx;
  for (auto& [seq, frames] : buffer.dgrams) {
    for (Frame& frame : frames) {
      Delivery d;
      d.frame = std::move(frame);
      tx.frames.push_back(std::move(d));
    }
  }
  tx.sent = buffer.cycle_frames;
  tx.dropped = tx.sent - std::min<uint64_t>(tx.sent, tx.frames.size());
  receiver_->IngestCycle(cycle, tx, clock_.ElapsedUs());
  return AdvanceSlots(cycle);
}

Status ClientRuntime::AdvanceSlots(Cycle cycle) {
  // The snapshot handed to the protocol is a shell: the value and control
  // overrides route every lookup to the receiver/tracker state, so only the
  // cycle number matters (it anchors the windowed stamp decode).
  CycleSnapshot snap;
  snap.cycle = cycle;

  for (auto& slot_ptr : slots_) {
    TxnSlot& slot = *slot_ptr;
    if (slot.awaiting_reply) {
      if (++slot.reply_wait_cycles >= 2) {
        slot.reply_wait_cycles = 0;
        BCC_RETURN_IF_ERROR(SendUpdate(slot));  // reply or request was lost
      }
      continue;
    }

    const ObjectId ob = slot.read_set[slot.read_idx];
    // Missed-cycle rule, exactly as BroadcastSim::PerformBroadcastRead:
    // validate only against control info and data received in THIS cycle;
    // a desynced tracker or a lost column/page stalls the read to the next
    // cycle rather than substituting stale state.
    bool stall = tracker_ != nullptr && tracker_->Unusable(cycle);
    if (!stall) {
      const bool control_missing =
          tracker_ == nullptr && !receiver_->ControlUsable(ob, cycle);
      stall = control_missing || !receiver_->DataUsable(ob, cycle);
    }
    if (stall) {
      receiver_->RecordStall();
      slot.stalled_this_attempt = true;
      CounterAdd(m_stalls_);
      continue;
    }

    const StatusOr<ObjectVersion> value = slot.protocol.Read(snap, ob);
    if (!value.ok()) {
      if (ring_ != nullptr) {
        TraceEvent ev;
        ev.type = TraceEventType::kAbort;
        ev.time = clock_.ElapsedUs();
        ev.cycle = cycle;
        ev.object = ob;
        ev.abort = slot.protocol.last_abort();
        TraceTo(ring_, ev);
      }
      AbortSlot(slot);
      continue;
    }
    CounterAdd(m_reads_);
    ++slot.read_idx;
    if (slot.read_idx < slot.read_set.size()) continue;
    if (slot.is_update) {
      slot.update_seq = next_update_seq_++;
      slot.awaiting_reply = true;
      slot.reply_wait_cycles = 0;
      BCC_RETURN_IF_ERROR(SendUpdate(slot));
    } else {
      CommitSlot(slot);
    }
  }
  return Status::OK();
}

void ClientRuntime::StartNextTxn(TxnSlot& slot) {
  slot.read_set = workload_->NextReadSet();
  slot.is_update = sim_.client_update_fraction > 0 && workload_->NextIsUpdate();
  slot.write_set = slot.is_update ? workload_->NextWriteSet() : std::vector<ObjectId>{};
  slot.read_idx = 0;
  slot.stalled_this_attempt = false;
  slot.awaiting_reply = false;
  slot.protocol.Reset();
  slot.start_us = NowMicros();
}

void ClientRuntime::CommitSlot(TxnSlot& slot) {
  ++commits_;
  const uint64_t resp_us = NowMicros() - slot.start_us;
  response_us_.push_back(resp_us);
  CounterAdd(m_commits_);
  HistogramRecord(m_response_us_, resp_us);
  if (ring_ != nullptr) {
    TraceEvent ev;
    ev.type = TraceEventType::kCommit;
    ev.time = clock_.ElapsedUs();
    ev.cycle = last_flushed_;
    TraceTo(ring_, ev);
  }
  StartNextTxn(slot);
}

void ClientRuntime::AbortSlot(TxnSlot& slot) {
  ++aborts_;
  CounterAdd(m_aborts_);
  if (slot.stalled_this_attempt) receiver_->RecordLossAttributedAbort();
  slot.stalled_this_attempt = false;
  // Restart the same transaction program from its first read; the response
  // clock keeps running across restarts, as in the DES.
  slot.protocol.Reset();
  slot.read_idx = 0;
}

Status ClientRuntime::SendUpdate(TxnSlot& slot) {
  UpdateMsg msg;
  msg.client_index = ack_.client_index;
  msg.seq = slot.update_seq;
  msg.reads = slot.protocol.reads();
  msg.writes = slot.write_set;
  CounterAdd(m_updates_sent_);
  return uplink_.SendTo(EncodeUpdate(msg), server_addr_).status();
}

Status ClientRuntime::HandleUpdateReply(const UpdateReplyMsg& reply) {
  for (auto& slot_ptr : slots_) {
    TxnSlot& slot = *slot_ptr;
    if (!slot.awaiting_reply || slot.update_seq != reply.seq) continue;
    slot.awaiting_reply = false;
    if (reply.accepted) {
      ++update_commits_;
      ++commits_;
      const uint64_t resp_us = NowMicros() - slot.start_us;
      response_us_.push_back(resp_us);
      CounterAdd(m_update_commits_);
      CounterAdd(m_commits_);
      HistogramRecord(m_response_us_, resp_us);
      if (ring_ != nullptr) {
        TraceEvent ev;
        ev.type = TraceEventType::kCommit;
        ev.time = clock_.ElapsedUs();
        ev.cycle = last_flushed_;
        ev.value = 1;  // committed over the uplink
        TraceTo(ring_, ev);
      }
      StartNextTxn(slot);
    } else {
      ++update_rejects_;
      CounterAdd(m_update_rejects_);
      if (ring_ != nullptr) {
        TraceEvent ev;
        ev.type = TraceEventType::kAbort;
        ev.time = clock_.ElapsedUs();
        ev.cycle = last_flushed_;
        ev.abort = AbortInfo{AbortCause::kUplinkReject, 0, 0, 0, 0};
        TraceTo(ring_, ev);
      }
      AbortSlot(slot);
    }
    return Status::OK();
  }
  return Status::OK();  // stale duplicate reply
}

Status ClientRuntime::SendStats() {
  StatsMsg msg;
  msg.client_index = ack_.client_index;
  msg.digest = ComputeDigest();
  msg.commits = commits_;
  msg.aborts = aborts_;
  msg.txns = commits_ + aborts_;
  std::vector<uint64_t> sorted = response_us_;
  std::sort(sorted.begin(), sorted.end());
  msg.p50_us = Quantile(sorted, 0.50);
  msg.p99_us = Quantile(sorted, 0.99);
  msg.channel = receiver_->stats();
  return uplink_.SendTo(EncodeStats(msg), server_addr_).status();
}

uint64_t ClientRuntime::ComputeDigest() const {
  // Mirrors the daemon's digest: data pages, then the control matrix reduced
  // to TS-bit residues. The client stores windowed-decoded absolute cycles,
  // the server stores true absolutes — both reduce to the same residues, so
  // at loss 0 the digests are bit-identical.
  uint64_t h = DigestValues(receiver_->values());
  return DigestMatrixResidues(tracker_ ? tracker_->matrix() : receiver_->matrix(), *stamp_codec_,
                              h);
}

}  // namespace

std::string ClientReport::ToJson() const {
  JsonWriter w;
  w.BeginObject()
      .Key("client_index").Value(client_index)
      .Key("cycles_ingested").Value(cycles_ingested)
      .Key("txns").Value(txns)
      .Key("commits").Value(commits)
      .Key("aborts").Value(aborts)
      .Key("update_commits").Value(update_commits)
      .Key("update_rejects").Value(update_rejects)
      .Key("digest").Value(digest)
      .Key("p50_us").Value(p50_us)
      .Key("p99_us").Value(p99_us)
      .Key("channel");
  AppendChannelStatsJson(w, channel);
  if (!metrics_json.empty()) {
    w.Key("metrics").RawValue(metrics_json);
  }
  w.EndObject();
  return std::move(w).Take();
}

Status RunClientRuntime(const NetConfig& net, const SimConfig& sim, ClientReport* report) {
  ClientRuntime runtime(net, sim);
  return runtime.Run(report);
}

}  // namespace bcc
