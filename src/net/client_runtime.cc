#include "net/client_runtime.h"

#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "channel/frame.h"
#include "client/session.h"
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

namespace bcc {
namespace {

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

/// An UPDATE in flight for one transaction slot: the slot is parked until
/// the matching UPDATE_REPLY, and the UPDATE is resent if the reply outwaits
/// two cycles. `seq` 0 means no UPDATE is in flight.
struct UplinkWait {
  uint32_t seq = 0;
  uint32_t waited_cycles = 0;
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
  /// Completes slot `i`'s transaction and begins the slot's next one.
  void FinishTxn(size_t i, bool censored);
  Status SendUpdate(size_t i);
  Status HandleUpdateReply(const UpdateReplyMsg& reply);
  Status SendStats();
  uint64_t ComputeDigest() const;
  uint64_t commits() const { return session_->completed() - session_->censored(); }
  uint64_t aborts() const { return session_->abort_causes().TotalAborts(); }

  const NetConfig& net_;
  SimConfig sim_;

  UdpSocket uplink_;
  UdpSocket mcast_;  // valid only with --mcast
  SockAddr server_addr_ = {};
  EpollLoop loop_;

  HelloAckMsg ack_;
  /// Null until the HELLO_ACK arrives.
  std::unique_ptr<ClientSession> session_;
  /// `txns_per_cycle` transaction slots, advanced one read per ingested
  /// cycle, and their uplink state.
  std::vector<ReadTxn> txns_;
  std::vector<UplinkWait> uplink_waits_;

  std::map<Cycle, CycleBuffer> pending_cycles_;
  Cycle last_flushed_ = 0;
  uint64_t cycles_ingested_ = 0;

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
  report->commits = commits();
  report->aborts = aborts();
  report->txns = report->commits + report->aborts;
  report->update_commits = session_->update_commits();
  report->update_rejects = session_->update_rejects();
  report->abort_causes = session_->abort_causes();
  report->digest = ComputeDigest();
  std::sort(response_us_.begin(), response_us_.end());
  report->p50_us = Quantile(response_us_, 0.50);
  report->p99_us = Quantile(response_us_, 0.99);
  report->channel = session_->receiver()->stats();
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
  if (session_ != nullptr) {
    const ChannelStats& ch = session_->receiver()->stats();
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
      session_ != nullptr ? StrFormat("client%u", ack_.client_index) : "client");
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
  while (session_ == nullptr) {
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
  sim_.delta_broadcast = ack_.control_mode != CycleIndex::kControlColumns;

  // Replicate the DES RNG tree so client `i`'s workload stream is the same
  // one the in-process simulation would hand its client `i`: the root splits
  // once for the server, then once per client in index order.
  Rng root(sim_.seed);
  (void)root.Split();  // server workload
  for (uint32_t i = 0; i < ack_.client_index; ++i) (void)root.Split();
  session_ = std::make_unique<ClientSession>(sim_, root.Split());
  if (tracer_ != nullptr) {
    session_->set_trace_ring(tracer_->AddTrack(StrFormat("client%u", ack_.client_index)));
  }
  if (registry_ != nullptr) {
    metrics_logger_ = std::make_unique<MetricsLogger>(
        net_.metrics_out, net_.metrics_interval_ms, registry_.get(),
        StrFormat("client%u", ack_.client_index));
  }

  for (uint32_t i = 0; i < net_.txns_per_cycle; ++i) {
    txns_.push_back(session_->NewTxn());
    session_->Begin(txns_.back(), clock_.ElapsedUs());
  }
  uplink_waits_.resize(txns_.size());
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
      if (session_ != nullptr) return Status::OK();  // duplicates ignored
      return CompleteHandshake(ack);
    }
    case MsgKind::kCycleData:
      if (session_ == nullptr) return Status::OK();  // pre-handshake noise
      return HandleCycleData(d.bytes);
    case MsgKind::kUpdateReply: {
      BCC_ASSIGN_OR_RETURN(const UpdateReplyMsg reply, DecodeUpdateReply(d.bytes));
      return HandleUpdateReply(reply);
    }
    case MsgKind::kStatsReq: {
      if (session_ == nullptr) return Status::OK();
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
    session_->receiver()->IngestCycle(gap, lost, clock_.ElapsedUs());
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
  session_->receiver()->IngestCycle(cycle, tx, clock_.ElapsedUs());
  return AdvanceSlots(cycle);
}

Status ClientRuntime::AdvanceSlots(Cycle cycle) {
  // The snapshot handed to the protocol is a shell: the value and control
  // overrides route every lookup to the receiver/tracker state, so only the
  // cycle number matters (it anchors the windowed stamp decode).
  CycleSnapshot snap;
  snap.cycle = cycle;
  const SimTime now = clock_.ElapsedUs();

  for (size_t i = 0; i < txns_.size(); ++i) {
    ReadTxn& txn = txns_[i];
    UplinkWait& wait = uplink_waits_[i];
    if (wait.seq != 0) {
      if (++wait.waited_cycles >= 2) {
        wait.waited_cycles = 0;
        BCC_RETURN_IF_ERROR(SendUpdate(i));  // reply or request was lost
      }
      continue;
    }
    const ReadGate gate = session_->Gate(txn.next_object(), cycle);
    if (gate != ReadGate::kReady) {
      session_->Stall(txn, gate, now, cycle);
      CounterAdd(m_stalls_);
      continue;
    }
    switch (session_->Read(txn, snap, now)) {
      case TxnStep::kNextRead:
        CounterAdd(m_reads_);
        break;
      case TxnStep::kReadsDone:
        CounterAdd(m_reads_);
        if (txn.is_update) {
          wait.seq = next_update_seq_++;
          wait.waited_cycles = 0;
          BCC_RETURN_IF_ERROR(SendUpdate(i));
        } else {
          FinishTxn(i, /*censored=*/false);
        }
        break;
      case TxnStep::kRestart:
        // The transaction program restarts from its first read next cycle;
        // its response clock keeps running, as in the DES.
        CounterAdd(m_aborts_);
        break;
      case TxnStep::kCensor:
        CounterAdd(m_aborts_);
        FinishTxn(i, /*censored=*/true);
        break;
    }
  }
  return Status::OK();
}

void ClientRuntime::FinishTxn(size_t i, bool censored) {
  ReadTxn& txn = txns_[i];
  const SimTime now = clock_.ElapsedUs();
  session_->Complete(txn, censored, now, last_flushed_);
  if (!censored) {
    const uint64_t resp_us = now - txn.begin_time;
    response_us_.push_back(resp_us);
    CounterAdd(m_commits_);
    HistogramRecord(m_response_us_, resp_us);
  }
  session_->Begin(txn, now);
}

Status ClientRuntime::SendUpdate(size_t i) {
  UpdateMsg msg;
  msg.client_index = ack_.client_index;
  msg.seq = uplink_waits_[i].seq;
  msg.reads = txns_[i].protocol.reads();
  msg.writes = txns_[i].write_set;
  CounterAdd(m_updates_sent_);
  return uplink_.SendTo(EncodeUpdate(msg), server_addr_).status();
}

Status ClientRuntime::HandleUpdateReply(const UpdateReplyMsg& reply) {
  for (size_t i = 0; i < txns_.size(); ++i) {
    if (uplink_waits_[i].seq == 0 || uplink_waits_[i].seq != reply.seq) continue;
    uplink_waits_[i].seq = 0;
    const SimTime now = clock_.ElapsedUs();
    session_->UplinkVerdict(reply.accepted, now, last_flushed_);
    if (reply.accepted) {
      CounterAdd(m_update_commits_);
      FinishTxn(i, /*censored=*/false);
      return Status::OK();
    }
    CounterAdd(m_update_rejects_);
    CounterAdd(m_aborts_);
    const TxnStep step = session_->Abort(
        txns_[i], AbortInfo{AbortCause::kUplinkReject, 0, 0, 0, 0}, now, last_flushed_);
    if (step == TxnStep::kCensor) FinishTxn(i, /*censored=*/true);
    return Status::OK();
  }
  return Status::OK();  // stale duplicate reply
}

Status ClientRuntime::SendStats() {
  StatsMsg msg;
  msg.client_index = ack_.client_index;
  msg.digest = ComputeDigest();
  msg.commits = commits();
  msg.aborts = aborts();
  msg.txns = msg.commits + msg.aborts;
  std::vector<uint64_t> sorted = response_us_;
  std::sort(sorted.begin(), sorted.end());
  msg.p50_us = Quantile(sorted, 0.50);
  msg.p99_us = Quantile(sorted, 0.99);
  msg.channel = session_->receiver()->stats();
  return uplink_.SendTo(EncodeStats(msg), server_addr_).status();
}

uint64_t ClientRuntime::ComputeDigest() const {
  // Mirrors the daemon's digest: data pages, then the control matrix reduced
  // to TS-bit residues. The client stores windowed-decoded absolute cycles,
  // the server stores true absolutes — both reduce to the same residues, so
  // at loss 0 the digests are bit-identical.
  const ChannelReceiver& receiver = *session_->receiver();
  const DeltaMatrixTracker* tracker = session_->tracker();
  const uint64_t h = DigestValues(receiver.values());
  return DigestMatrixResidues(tracker != nullptr ? tracker->matrix() : receiver.matrix(),
                              CycleStampCodec(sim_.timestamp_bits), h);
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
      .Key("abort_causes").BeginObject();
  for (size_t c = 1; c < kNumAbortCauses; ++c) {
    w.Key(AbortCauseName(static_cast<AbortCause>(c))).Value(abort_causes.counts[c]);
  }
  w.Key("total").Value(abort_causes.TotalAborts()).EndObject()
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
