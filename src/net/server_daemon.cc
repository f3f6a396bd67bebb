#include "net/server_daemon.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "common/format.h"
#include "common/rng.h"
#include "net/epoll_loop.h"
#include "net/pacing.h"
#include "net/socket.h"
#include "net/state_digest.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "server/broadcast_server.h"
#include "server/exec/txn_processor.h"
#include "server/mc_overlay.h"
#include "server/validator.h"
#include "sim/workload.h"

namespace bcc {

namespace {

void AppendChannelStatsJson(JsonWriter& w, const ChannelStats& ch) {
  w.BeginObject();
  w.Key("frames_sent").Value(ch.frames_sent);
  w.Key("frames_dropped").Value(ch.frames_dropped);
  w.Key("frames_delivered").Value(ch.frames_delivered);
  w.Key("frames_rejected").Value(ch.frames_rejected);
  w.Key("control_losses").Value(ch.control_losses);
  w.Key("data_losses").Value(ch.data_losses);
  w.Key("stalls").Value(ch.stalls);
  w.Key("resyncs").Value(ch.resyncs);
  w.Key("tracker_desyncs").Value(ch.tracker_desyncs);
  w.Key("loss_attributed_aborts").Value(ch.loss_attributed_aborts);
  w.EndObject();
}

/// Everything the daemon knows about one registered client.
struct ClientSlot {
  SockAddr addr;
  uint32_t client_id = 0;
  bool stats_received = false;
  StatsMsg stats;
};

class ServerDaemon {
 public:
  ServerDaemon(const NetConfig& net, const SimConfig& sim) : net_(net), sim_(sim) {}

  Status Run(ServerReport* report);

 private:
  Status SetUpEngine();
  void SetUpTelemetry();
  Status SetUpSocket();
  Status WaitForClients();
  Status BroadcastCycles();
  Status ReplayCommitsForCycle(Cycle cycle);
  void FlushBatch(Cycle cycle);
  Status FanOutCycle(Cycle cycle);
  Status CollectStats();
  Status DrainUplink();
  Status HandleUplink(const InDatagramView& dgram);
  Status CheckWatchdog() const;
  Status MaybeLogMetrics();
  void MaybeWarnSlowCycle(const CyclePacer& pacer, Cycle cycle, uint64_t cycle_us);
  std::string MetricsEnvelopeJson() const;

  NetConfig net_;
  SimConfig sim_;

  // Engine (mirrors BroadcastSim::Run's server-side setup).
  std::unique_ptr<ServerTxnManager> manager_;
  std::unique_ptr<BroadcastServer> server_;
  std::unique_ptr<ServerWorkload> workload_;
  std::unique_ptr<TxnProcessor> processor_;
  std::unique_ptr<UpdateValidator> validator_;
  std::unique_ptr<McOverlay> overlay_;
  std::vector<ServerTxn> pending_uplink_txns_;
  std::vector<ServerTxn> pending_server_txns_;
  std::vector<ObjectId> touched_scratch_;
  std::optional<FrameCodec> codec_;
  std::vector<Frame> frame_scratch_;

  // Commit replay clock: virtual time of the next server commit.
  SimTime next_commit_vt_ = 0;
  TxnId next_uplink_id_ = 1u << 30;  ///< uplink txn ids, disjoint from workload ids

  // Transport.
  UdpSocket socket_;
  EpollLoop loop_;
  std::optional<SockAddr> mcast_addr_;
  std::vector<ClientSlot> clients_;
  HelloAckMsg ack_template_;
  bool collecting_stats_ = false;
  uint64_t final_cycle_ = 0;

  // Telemetry (DESIGN.md §4k). All handles are null when telemetry is off,
  // so every recording site below is a branch-on-null no-op — the disabled
  // daemon takes exactly the PR-4 zero-observer-effect path.
  std::unique_ptr<MetricsRegistry> registry_;
  Counter* m_cycles_ = nullptr;
  Counter* m_server_commits_ = nullptr;
  Counter* m_uplink_accepts_ = nullptr;
  Counter* m_uplink_rejects_ = nullptr;
  Counter* m_datagrams_ = nullptr;
  Counter* m_bytes_ = nullptr;
  Counter* m_slow_cycles_ = nullptr;
  Counter* m_metrics_polls_ = nullptr;
  Gauge* m_current_cycle_ = nullptr;
  Gauge* m_clients_gauge_ = nullptr;
  Gauge* m_pacing_slip_ = nullptr;
  /// Control-matrix footprint (live via METRICS_REQ / bcc_statsctl): resident
  /// non-floor entries and the cycle's control share in bytes. In dense mode
  /// nnz is not tracked (a scan would be O(n^2)) and the byte gauge holds the
  /// constant n^2*ts/8 full-matrix share.
  Gauge* m_matrix_nnz_ = nullptr;
  Gauge* m_matrix_control_bytes_ = nullptr;
  Histogram* m_slip_hist_ = nullptr;
  Histogram* m_cycle_us_ = nullptr;
  Histogram* m_validate_us_ = nullptr;
  /// Per-registered-client live view, fed from uplink traffic.
  struct PerClientMetrics {
    Counter* accepts = nullptr;
    Counter* rejects = nullptr;
    Gauge* last_read_cycle = nullptr;  ///< newest read cycle seen on the uplink
    Gauge* lag_cycles = nullptr;       ///< current cycle minus last_read_cycle
    Gauge* frames_dropped = nullptr;   ///< from the client's final STATS
  };
  std::vector<PerClientMetrics> client_metrics_;
  std::unique_ptr<MetricsLogger> metrics_logger_;
  std::unique_ptr<Tracer> tracer_;
  TraceRing* server_ring_ = nullptr;
  std::vector<TraceRing*> client_rings_;

  // Decision log (NetConfig::decisions_out). `seq` is the store's commit
  // order: assigned at the commit call in direct mode; assigned at the
  // cycle fold in staged mode (uplink serial prefix first, then the server
  // batch — the same order FlushBatch folds them).
  bool record_decisions_ = false;
  DecisionLog decisions_;
  uint64_t next_commit_seq_ = 1;
  std::vector<size_t> staged_uplink_decisions_;  ///< indices awaiting a seq
  std::vector<size_t> staged_server_commits_;    ///< indices awaiting a seq

  WallClock wall_;
  ServerReport stats_;
};

Status ServerDaemon::SetUpEngine() {
  if (sim_.matrix_mode == MatrixMode::kHier) {
    return Status::InvalidArgument(
        "the networked tier does not support matrix_mode=hier (its refinement policy is "
        "driven by the in-process simulators)");
  }
  if (sim_.sparse_compaction_period > 0) {
    return Status::InvalidArgument(
        "the networked tier does not support sparse_compaction_period");
  }
  // Sparse mode swaps the manager's representation only: the on-air bytes
  // (EncodeCycleFramesInto packs the snapshot's sparse matrix byte-identically)
  // and every client decision are unchanged.
  const bool sparse_mode = sim_.matrix_mode == MatrixMode::kSparse;
  TxnManagerOptions options;
  options.maintain_f_matrix = !sparse_mode;
  options.maintain_sparse_matrix = sparse_mode;
  options.maintain_mc_vector = true;
  options.track_dirty_columns = sim_.delta_broadcast;
  manager_ = std::make_unique<ServerTxnManager>(sim_.num_objects, options);

  server_ = std::make_unique<BroadcastServer>(sim_.num_objects, sim_.Geometry());
  if (sim_.delta_broadcast) {
    server_->EnableDeltaBroadcast(CycleStampCodec(sim_.timestamp_bits),
                                  sim_.delta_refresh_period);
  }

  // Same RNG split discipline as BroadcastSim: the server workload takes the
  // root's first split, so the daemon's commit stream is bit-identical to
  // the DES oracle's for the same (seed, config).
  Rng root(sim_.seed);
  workload_ = std::make_unique<ServerWorkload>(sim_, root.Split());
  next_commit_vt_ = workload_->NextInterval();

  if (sim_.update_scheme != UpdateScheme::kSequential) {
    processor_ = std::make_unique<TxnProcessor>(sim_.num_objects, sim_.update_scheme,
                                                sim_.update_workers);
    manager_->SetParallelFold(
        [this](uint32_t shards, const std::function<void(uint32_t)>& body) {
          processor_->RunShards(shards, body);
        },
        sim_.update_workers);
  }

  // The uplink validator is always armed: any client may submit updates.
  validator_ = std::make_unique<UpdateValidator>(manager_.get());
  if (processor_ != nullptr) {
    overlay_ = std::make_unique<McOverlay>(sim_.num_objects);
    validator_->AttachStagedMode(overlay_.get(), [this](ServerTxn&& txn) {
      pending_uplink_txns_.push_back(std::move(txn));
    });
  }

  codec_.emplace(CycleStampCodec(sim_.timestamp_bits), sim_.channel_frame_bits);

  ack_template_.num_objects = sim_.num_objects;
  ack_template_.ts_bits = static_cast<uint8_t>(sim_.timestamp_bits);
  ack_template_.control_mode =
      sim_.delta_broadcast ? CycleIndex::kControlDelta : CycleIndex::kControlColumns;
  ack_template_.frame_bits = static_cast<uint32_t>(sim_.channel_frame_bits);
  ack_template_.cycles = sim_.stop_after_cycles;
  return Status::OK();
}

void ServerDaemon::SetUpTelemetry() {
  record_decisions_ = !net_.decisions_out.empty();
  if (!net_.TelemetryEnabled()) return;
  registry_ = std::make_unique<MetricsRegistry>();
  m_cycles_ = registry_->AddCounter("server.cycles");
  m_server_commits_ = registry_->AddCounter("server.commits");
  m_uplink_accepts_ = registry_->AddCounter("uplink.accepts");
  m_uplink_rejects_ = registry_->AddCounter("uplink.rejects");
  m_datagrams_ = registry_->AddCounter("net.datagrams_sent");
  m_bytes_ = registry_->AddCounter("net.bytes_sent");
  m_slow_cycles_ = registry_->AddCounter("server.slow_cycles");
  m_metrics_polls_ = registry_->AddCounter("metrics.polls");
  m_current_cycle_ = registry_->AddGauge("server.cycle");
  m_clients_gauge_ = registry_->AddGauge("server.clients_registered");
  m_pacing_slip_ = registry_->AddGauge("pacing.slip_ms");
  m_matrix_nnz_ = registry_->AddGauge("matrix.nnz");
  m_matrix_control_bytes_ = registry_->AddGauge("matrix.control_bytes_per_cycle");
  // Dense mode broadcasts the full n^2 stamp matrix every cycle; sparse mode
  // overwrites both gauges per cycle from the live matrix.
  if (sim_.matrix_mode != MatrixMode::kSparse) {
    GaugeSet(m_matrix_control_bytes_,
             static_cast<int64_t>(static_cast<uint64_t>(sim_.num_objects) * sim_.num_objects *
                                  sim_.timestamp_bits / 8));
  }
  m_slip_hist_ = registry_->AddHistogram("pacing.slip_ms_hist", ExponentialBounds(1, 2.0, 12));
  m_cycle_us_ = registry_->AddHistogram("server.cycle_us", ExponentialBounds(16, 2.0, 16));
  m_validate_us_ = registry_->AddHistogram("uplink.validate_us", ExponentialBounds(1, 2.0, 20));
  if (!net_.trace_out.empty()) {
    tracer_ = std::make_unique<Tracer>(net_.trace_capacity);
    server_ring_ = tracer_->AddTrack("server");
  }
  metrics_logger_ = std::make_unique<MetricsLogger>(net_.metrics_out, net_.metrics_interval_ms,
                                                    registry_.get(), "server");
}

Status ServerDaemon::MaybeLogMetrics() {
  if (metrics_logger_ == nullptr) return Status::OK();
  return metrics_logger_->MaybeWrite(wall_.ElapsedMs());
}

/// The METRICS reply payload: the registry snapshot wrapped with enough
/// context (node, uptime, cycle) to read one poll in isolation. Answers
/// even when telemetry is off, so a poller can distinguish "disabled" from
/// "dead".
std::string ServerDaemon::MetricsEnvelopeJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("node").Value("server");
  w.Key("enabled").Value(registry_ != nullptr);
  w.Key("t_ms").Value(wall_.ElapsedMs());
  w.Key("cycle").Value(
      static_cast<uint64_t>(server_ != nullptr ? server_->snapshot().cycle : 0));
  if (registry_ != nullptr) {
    w.Key("metrics");
    registry_->WriteJson(w);
  }
  w.EndObject();
  return std::move(w).Take();
}

void ServerDaemon::MaybeWarnSlowCycle(const CyclePacer& pacer, Cycle cycle, uint64_t cycle_us) {
  if (net_.slow_cycle_factor <= 0.0) return;
  const double period_ms = pacer.PeriodMs();
  if (period_ms <= 0.0) return;  // unpaced: no deadline to miss
  const double cycle_ms = static_cast<double>(cycle_us) / 1000.0;
  if (cycle_ms <= net_.slow_cycle_factor * period_ms) return;
  ++stats_.slow_cycles;
  CounterAdd(m_slow_cycles_);
  if (tracer_ != nullptr && server_ring_ != nullptr) {
    TraceEvent ev;
    ev.type = TraceEventType::kStall;
    ev.time = wall_.ElapsedUs();
    ev.cycle = cycle;
    ev.value = cycle_us;
    TraceTo(server_ring_, ev);
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("warning").Value("slow_cycle");
  w.Key("cycle").Value(static_cast<uint64_t>(cycle));
  w.Key("cycle_ms").Value(cycle_ms);
  w.Key("deadline_ms").Value(net_.slow_cycle_factor * period_ms);
  w.Key("period_ms").Value(period_ms);
  w.EndObject();
  std::fprintf(stderr, "bcc_serverd: %s\n", std::move(w).Take().c_str());
}

Status ServerDaemon::SetUpSocket() {
  BCC_RETURN_IF_ERROR(socket_.Open());
  Endpoint listen;
  if (!net_.listen.empty()) {
    BCC_ASSIGN_OR_RETURN(listen, ParseEndpoint(net_.listen));
  }
  BCC_RETURN_IF_ERROR(socket_.Bind(listen));
  BCC_ASSIGN_OR_RETURN(const Endpoint bound, socket_.local_endpoint());
  if (!net_.multicast.empty()) {
    BCC_ASSIGN_OR_RETURN(const Endpoint group, ParseEndpoint(net_.multicast));
    BCC_ASSIGN_OR_RETURN(mcast_addr_, ResolveEndpoint(group));
    BCC_RETURN_IF_ERROR(socket_.SetMulticastSendOptions());
  }
  if (!net_.endpoint_file.empty()) {
    BCC_RETURN_IF_ERROR(WriteTextFile(net_.endpoint_file, bound.ToString() + "\n"));
  }
  std::fprintf(stderr, "bcc_serverd: uplink on %s\n", bound.ToString().c_str());
  BCC_RETURN_IF_ERROR(loop_.Init());
  return loop_.Add(socket_.fd(), [this] { return DrainUplink(); });
}

Status ServerDaemon::CheckWatchdog() const {
  if (net_.max_wall_ms > 0 && wall_.ElapsedMs() > net_.max_wall_ms) {
    return Status::Internal(StrFormat("watchdog: exceeded %llu ms",
                                      static_cast<unsigned long long>(net_.max_wall_ms)));
  }
  return Status::OK();
}

Status ServerDaemon::DrainUplink() {
  for (;;) {
    BCC_ASSIGN_OR_RETURN(const std::span<const InDatagramView> dgrams,
                         socket_.RecvBatchInPlace(/*max_datagrams=*/64, /*max_bytes=*/65536));
    if (dgrams.empty()) return Status::OK();
    for (const InDatagramView& d : dgrams) BCC_RETURN_IF_ERROR(HandleUplink(d));
  }
}

Status ServerDaemon::HandleUplink(const InDatagramView& dgram) {
  const auto kind = PeekKind(dgram.bytes);
  if (!kind.ok()) return Status::OK();  // stray datagram; ignore
  switch (*kind) {
    case MsgKind::kHello: {
      const auto hello = DecodeHello(dgram.bytes);
      if (!hello.ok()) return Status::OK();
      size_t index = clients_.size();
      for (size_t i = 0; i < clients_.size(); ++i) {
        if (clients_[i].addr == dgram.from) {
          index = i;
          break;
        }
      }
      if (index == clients_.size()) {
        if (clients_.size() >= net_.expected_clients) return Status::OK();  // full house
        ClientSlot slot;
        slot.addr = dgram.from;
        slot.client_id = hello->client_id;
        clients_.push_back(slot);
      }
      HelloAckMsg ack = ack_template_;
      ack.client_index = static_cast<uint32_t>(index);
      const std::vector<uint8_t> bytes = EncodeHelloAck(ack);
      return socket_.SendTo(bytes, dgram.from).status();
    }
    case MsgKind::kUpdate: {
      const auto update = DecodeUpdate(dgram.bytes);
      if (!update.ok()) return Status::OK();
      ClientUpdateRequest request;
      request.id = next_uplink_id_++;
      request.reads = update->reads;
      request.writes = update->writes;
      const Cycle current = server_->snapshot().cycle;
      const uint64_t t0_us = wall_.ElapsedUs();
      const auto verdict = validator_->ValidateAndCommit(request, current);
      HistogramRecord(m_validate_us_, wall_.ElapsedUs() - t0_us);
      const uint32_t ci = update->client_index;
      const bool tracked = ci < client_metrics_.size();
      if (verdict.ok()) {
        ++stats_.uplink_accepts;
        CounterAdd(m_uplink_accepts_);
        if (tracked) CounterAdd(client_metrics_[ci].accepts);
      } else {
        ++stats_.uplink_rejects;
        CounterAdd(m_uplink_rejects_);
        if (tracked) CounterAdd(client_metrics_[ci].rejects);
      }
      if (tracked) {
        Cycle last_read = 0;
        for (const ReadRecord& r : update->reads) last_read = std::max(last_read, r.cycle);
        GaugeSet(client_metrics_[ci].last_read_cycle, static_cast<int64_t>(last_read));
        GaugeSet(client_metrics_[ci].lag_cycles,
                 static_cast<int64_t>(current) - static_cast<int64_t>(last_read));
      }
      if (ci < client_rings_.size()) {
        TraceEvent ev;
        ev.type = TraceEventType::kValidation;
        ev.time = wall_.ElapsedUs();
        ev.cycle = current;
        ev.value = verdict.ok() ? 1 : 0;
        if (!verdict.ok()) ev.abort = validator_->last_reject();
        TraceTo(client_rings_[ci], ev);
      }
      if (record_decisions_) {
        UplinkDecision d;
        d.id = request.id;
        d.client_index = ci;
        d.cycle = current;
        d.accepted = verdict.ok();
        if (verdict.ok()) {
          if (processor_ == nullptr) {
            d.seq = next_commit_seq_++;  // direct mode commits on the spot
          } else {
            staged_uplink_decisions_.push_back(decisions_.uplinks.size());
          }
        } else {
          d.cause = validator_->last_reject();
        }
        d.reads = update->reads;
        d.writes = update->writes;
        decisions_.uplinks.push_back(std::move(d));
      }
      UpdateReplyMsg reply;
      reply.seq = update->seq;
      reply.accepted = verdict.ok();
      const std::vector<uint8_t> bytes = EncodeUpdateReply(reply);
      return socket_.SendTo(bytes, dgram.from).status();
    }
    case MsgKind::kMetricsReq: {
      const auto req = DecodeMetricsReq(dgram.bytes);
      if (!req.ok()) return Status::OK();
      CounterAdd(m_metrics_polls_);
      MetricsMsg reply;
      reply.token = req->token;
      reply.node_kind = kMetricsNodeServer;
      reply.json = MetricsEnvelopeJson();
      const std::vector<uint8_t> bytes = EncodeMetrics(reply);
      return socket_.SendTo(bytes, dgram.from).status();
    }
    case MsgKind::kStats: {
      if (!collecting_stats_) return Status::OK();
      const auto stats = DecodeStats(dgram.bytes);
      if (!stats.ok()) return Status::OK();
      if (stats->client_index < clients_.size()) {
        ClientSlot& slot = clients_[stats->client_index];
        if (!slot.stats_received) {
          slot.stats_received = true;
          slot.stats = *stats;
        }
        if (stats->client_index < client_metrics_.size()) {
          GaugeSet(client_metrics_[stats->client_index].frames_dropped,
                   static_cast<int64_t>(stats->channel.frames_dropped));
        }
      }
      return Status::OK();
    }
    default:
      return Status::OK();
  }
}

Status ServerDaemon::WaitForClients() {
  const WallClock hello_wall;
  while (clients_.size() < net_.expected_clients) {
    BCC_RETURN_IF_ERROR(CheckWatchdog());
    if (hello_wall.ElapsedMs() > net_.hello_timeout_ms) {
      return Status::Internal(StrFormat("only %zu of %u clients registered before the timeout",
                                        clients_.size(), net_.expected_clients));
    }
    BCC_RETURN_IF_ERROR(loop_.Poll(/*timeout_ms=*/50).status());
    BCC_RETURN_IF_ERROR(MaybeLogMetrics());
  }
  GaugeSet(m_clients_gauge_, static_cast<int64_t>(clients_.size()));
  // Per-client metrics and trace tracks: registered here, after the HELLO
  // barrier fixed the client set, still on the daemon's single thread (Add*
  // is setup-time-only, like Tracer::AddTrack).
  if (registry_ != nullptr) {
    client_metrics_.resize(clients_.size());
    for (size_t i = 0; i < clients_.size(); ++i) {
      PerClientMetrics& pc = client_metrics_[i];
      pc.accepts = registry_->AddCounter(StrFormat("client%zu.uplink_accepts", i));
      pc.rejects = registry_->AddCounter(StrFormat("client%zu.uplink_rejects", i));
      pc.last_read_cycle = registry_->AddGauge(StrFormat("client%zu.last_read_cycle", i));
      pc.lag_cycles = registry_->AddGauge(StrFormat("client%zu.lag_cycles", i));
      pc.frames_dropped = registry_->AddGauge(StrFormat("client%zu.frames_dropped", i));
    }
  }
  if (tracer_ != nullptr) {
    client_rings_.resize(clients_.size());
    for (size_t i = 0; i < clients_.size(); ++i) {
      client_rings_[i] = tracer_->AddTrack(StrFormat("client%zu", i));
    }
  }
  return Status::OK();
}

Status ServerDaemon::ReplayCommitsForCycle(Cycle cycle) {
  // DES boundary rule: the cycle-start event was inserted before any commit
  // scheduled at exactly the boundary time, so a commit at vt == cycle_end
  // belongs to the NEXT cycle — hence the strict <.
  const SimTime cycle_end = static_cast<SimTime>(cycle) * server_->CycleLengthBits();
  while (next_commit_vt_ < cycle_end) {
    const ServerTxn txn = workload_->NextTxn();
    if (processor_ != nullptr) {
      if (overlay_ != nullptr) overlay_->Stage(txn.write_set, cycle);
      pending_server_txns_.push_back(txn);
    } else {
      manager_->ExecuteAndCommit(txn, cycle);
    }
    if (record_decisions_) {
      ServerCommitRecord rec;
      rec.id = txn.id;
      rec.cycle = cycle;
      rec.reads = txn.read_set;
      rec.writes = txn.write_set;
      if (processor_ == nullptr) {
        rec.seq = next_commit_seq_++;
      } else {
        staged_server_commits_.push_back(decisions_.server_commits.size());
      }
      decisions_.server_commits.push_back(std::move(rec));
    }
    ++stats_.server_commits;
    CounterAdd(m_server_commits_);
    next_commit_vt_ += workload_->NextInterval();
  }
  return Status::OK();
}

void ServerDaemon::FlushBatch(Cycle cycle) {
  if (processor_ == nullptr) return;
  if (!pending_uplink_txns_.empty()) {
    // Accepted uplinks commit first, serially, in acceptance order — the
    // same serial-prefix rule as the DES engine's cycle fold.
    const std::vector<CommittedServerTxn> committed =
        processor_->ExecuteSerial(pending_uplink_txns_);
    FoldIntoManager(committed, *manager_, cycle);
    pending_uplink_txns_.clear();
  }
  if (!pending_server_txns_.empty()) {
    const std::vector<CommittedServerTxn> committed =
        processor_->ExecuteBatch(pending_server_txns_);
    FoldIntoManager(committed, *manager_, cycle);
    pending_server_txns_.clear();
  }
  if (overlay_ != nullptr) overlay_->Clear();
  // The fold above is the store's commit point in staged mode: assign the
  // decision log's commit-order seqs in the same order it folded (uplink
  // serial prefix in acceptance order, then the server batch).
  for (size_t i : staged_uplink_decisions_) decisions_.uplinks[i].seq = next_commit_seq_++;
  staged_uplink_decisions_.clear();
  for (size_t i : staged_server_commits_) decisions_.server_commits[i].seq = next_commit_seq_++;
  staged_server_commits_.clear();
}

Status ServerDaemon::FanOutCycle(Cycle cycle) {
  const CycleSnapshot& snap = server_->snapshot();
  EncodeCycleFramesInto(snap, *codec_, sim_.object_size_bits, frame_scratch_);
  stats_.frames_per_cycle = frame_scratch_.size();
  const std::vector<std::vector<uint8_t>> dgrams =
      PackCycleDatagrams(cycle, frame_scratch_, net_.dgram_bytes);

  std::vector<OutDatagram> batch;
  if (mcast_addr_.has_value()) {
    batch.reserve(dgrams.size());
    for (const auto& d : dgrams) batch.push_back(OutDatagram{d, *mcast_addr_});
  } else {
    batch.reserve(dgrams.size() * clients_.size());
    // Interleave clients within each datagram slot so no client systematically
    // trails the others through a cycle's burst.
    for (const auto& d : dgrams) {
      for (const ClientSlot& c : clients_) batch.push_back(OutDatagram{d, c.addr});
    }
  }
  BCC_ASSIGN_OR_RETURN(const size_t sent, socket_.SendBatch(batch));
  stats_.datagrams_sent += sent;
  CounterAdd(m_datagrams_, sent);
  uint64_t cycle_bytes = 0;
  for (const auto& d : dgrams) {
    cycle_bytes += d.size() * (mcast_addr_.has_value() ? 1 : clients_.size());
  }
  stats_.bytes_sent += cycle_bytes;
  CounterAdd(m_bytes_, cycle_bytes);
  if (server_ring_ != nullptr) {
    TraceEvent ev;
    ev.type = TraceEventType::kBroadcastTx;
    ev.time = wall_.ElapsedUs();
    ev.cycle = cycle;
    ev.value = cycle_bytes;
    TraceTo(server_ring_, ev);
  }
  return Status::OK();
}

Status ServerDaemon::BroadcastCycles() {
  CyclePacer pacer(net_.pace_cycles_per_sec);
  pacer.Start();
  const WallClock loop_wall;
  const uint64_t cycles = sim_.stop_after_cycles;
  for (Cycle cycle = 1; cycle <= cycles; ++cycle) {
    BCC_RETURN_IF_ERROR(CheckWatchdog());
    // Pacing: drain the uplink while waiting for the cycle's start time.
    for (;;) {
      const int64_t wait = pacer.MsUntilDue(cycle);
      BCC_RETURN_IF_ERROR(loop_.Poll(static_cast<int>(std::min<int64_t>(wait, 100))).status());
      BCC_RETURN_IF_ERROR(MaybeLogMetrics());
      if (wait == 0) break;
      BCC_RETURN_IF_ERROR(CheckWatchdog());
    }
    const double slip_ms = pacer.SlipMs(cycle);
    if (slip_ms > stats_.max_slip_ms) stats_.max_slip_ms = slip_ms;
    GaugeSet(m_pacing_slip_, static_cast<int64_t>(slip_ms));
    HistogramRecord(m_slip_hist_, static_cast<uint64_t>(slip_ms));
    GaugeSet(m_current_cycle_, static_cast<int64_t>(cycle));
    const uint64_t cycle_start_us = wall_.ElapsedUs();
    server_->BeginCycle(cycle, static_cast<SimTime>(cycle - 1) * server_->CycleLengthBits(),
                        *manager_);
    if (registry_ != nullptr && sim_.matrix_mode == MatrixMode::kSparse) {
      // Cycle boundary: the commit batch was just flushed into the snapshot,
      // so nnz() is the begin-of-cycle footprint clients validate against.
      const SparseFMatrix& sm = manager_->sparse_f_matrix();
      GaugeSet(m_matrix_nnz_, static_cast<int64_t>(sm.nnz()));
      GaugeSet(m_matrix_control_bytes_,
               static_cast<int64_t>(SparseMatrixControlBits(sm, sim_.timestamp_bits) / 8));
    }
    if (sim_.delta_broadcast) {
      manager_->DrainTouchedColumns(touched_scratch_);
      server_->AttachDeltaControl(touched_scratch_);
    }
    BCC_RETURN_IF_ERROR(FanOutCycle(cycle));
    // The cycle's server commits are staged right after its snapshot goes on
    // the air: an uplink validated later in the cycle sees their MC effects
    // (conservative — staging can only add rejects, never false accepts)
    // and the next BeginCycle folds them in, the same cycle-granular
    // visibility the DES engines give clients.
    BCC_RETURN_IF_ERROR(ReplayCommitsForCycle(cycle));
    FlushBatch(cycle);
    const uint64_t cycle_us = wall_.ElapsedUs() - cycle_start_us;
    CounterAdd(m_cycles_);
    HistogramRecord(m_cycle_us_, cycle_us);
    if (server_ring_ != nullptr) {
      TraceEvent ev;
      ev.type = TraceEventType::kCycleStart;
      ev.time = cycle_start_us;
      ev.duration = cycle_us;
      ev.cycle = cycle;
      TraceTo(server_ring_, ev);
    }
    MaybeWarnSlowCycle(pacer, cycle, cycle_us);
  }
  stats_.cycles = cycles;
  stats_.wall_sec = static_cast<double>(loop_wall.ElapsedUs()) / 1e6;
  stats_.cycles_per_sec = stats_.wall_sec > 0 ? static_cast<double>(cycles) / stats_.wall_sec : 0;
  return Status::OK();
}

Status ServerDaemon::CollectStats() {
  collecting_stats_ = true;
  final_cycle_ = sim_.stop_after_cycles;
  StatsReqMsg req;
  req.final_cycle = final_cycle_;
  const std::vector<uint8_t> bytes = EncodeStatsReq(req);
  const WallClock stats_wall;
  uint64_t last_resend_ms = 0;
  for (;;) {
    size_t reported = 0;
    for (const ClientSlot& c : clients_) reported += c.stats_received ? 1 : 0;
    if (reported == clients_.size()) break;
    if (stats_wall.ElapsedMs() > net_.stats_timeout_ms) {
      return Status::Internal(StrFormat("only %zu of %zu clients reported stats", reported,
                                        clients_.size()));
    }
    // Re-request from stragglers every 200 ms (STATS_REQ or STATS datagrams
    // may be dropped; both sides are idempotent).
    if (stats_wall.ElapsedMs() - last_resend_ms > 200 || last_resend_ms == 0) {
      last_resend_ms = stats_wall.ElapsedMs();
      for (const ClientSlot& c : clients_) {
        if (!c.stats_received) BCC_RETURN_IF_ERROR(socket_.SendTo(bytes, c.addr).status());
      }
    }
    BCC_RETURN_IF_ERROR(loop_.Poll(/*timeout_ms=*/50).status());
    BCC_RETURN_IF_ERROR(MaybeLogMetrics());
  }
  for (const ClientSlot& c : clients_) stats_.clients.push_back(c.stats);
  return Status::OK();
}

Status ServerDaemon::Run(ServerReport* report) {
  BCC_RETURN_IF_ERROR(net_.Validate());
  BCC_RETURN_IF_ERROR(NormalizeNetSimConfig(&sim_));
  SetUpTelemetry();
  BCC_RETURN_IF_ERROR(SetUpEngine());
  BCC_RETURN_IF_ERROR(SetUpSocket());
  BCC_RETURN_IF_ERROR(WaitForClients());
  BCC_RETURN_IF_ERROR(BroadcastCycles());
  BCC_RETURN_IF_ERROR(CollectStats());
  // Uplinks accepted after the final fold (stats collection can race
  // in-flight updates) close out the decision log's commit order.
  for (size_t i : staged_uplink_decisions_) decisions_.uplinks[i].seq = next_commit_seq_++;
  staged_uplink_decisions_.clear();

  const CycleSnapshot& snap = server_->snapshot();
  uint64_t digest = DigestValues(snap.values);
  // Sparse mode leaves the snapshot's dense matrix empty; the sparse At()
  // returns the same absolute values, so the digest is representation-
  // independent (a sparse daemon still matches a dense in-process oracle).
  const CycleStampCodec digest_codec(sim_.timestamp_bits);
  digest = snap.sparse_f_matrix != nullptr
               ? DigestMatrixResidues(*snap.sparse_f_matrix, digest_codec, digest)
               : DigestMatrixResidues(snap.f_matrix, digest_codec, digest);
  stats_.digest = digest;
  if (registry_ != nullptr) stats_.metrics_json = registry_->ToJson();
  if (metrics_logger_ != nullptr) {
    BCC_RETURN_IF_ERROR(metrics_logger_->WriteNow(wall_.ElapsedMs()));
  }
  if (tracer_ != nullptr && !net_.trace_out.empty()) {
    BCC_RETURN_IF_ERROR(WriteTextFile(net_.trace_out, ExportChromeTrace(*tracer_)));
  }
  if (record_decisions_) {
    stats_.decisions = decisions_;
    BCC_RETURN_IF_ERROR(WriteTextFile(net_.decisions_out, decisions_.ToJson() + "\n"));
  }
  *report = stats_;
  return Status::OK();
}

}  // namespace

std::string DecisionLog::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("server_commits").BeginArray();
  for (const ServerCommitRecord& r : server_commits) {
    w.BeginObject();
    w.Key("id").Value(static_cast<uint64_t>(r.id));
    w.Key("cycle").Value(static_cast<uint64_t>(r.cycle));
    w.Key("seq").Value(r.seq);
    w.Key("reads").BeginArray();
    for (const ObjectId ob : r.reads) w.Value(static_cast<uint64_t>(ob));
    w.EndArray();
    w.Key("writes").BeginArray();
    for (const ObjectId ob : r.writes) w.Value(static_cast<uint64_t>(ob));
    w.EndArray();
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
    w.Key("writes").BeginArray();
    for (const ObjectId ob : d.writes) w.Value(static_cast<uint64_t>(ob));
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

std::string ServerReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("cycles").Value(cycles);
  w.Key("frames_per_cycle").Value(frames_per_cycle);
  w.Key("server_commits").Value(server_commits);
  w.Key("uplink_accepts").Value(uplink_accepts);
  w.Key("uplink_rejects").Value(uplink_rejects);
  w.Key("datagrams_sent").Value(datagrams_sent);
  w.Key("bytes_sent").Value(bytes_sent);
  w.Key("slow_cycles").Value(slow_cycles);
  w.Key("max_slip_ms").Value(max_slip_ms);
  w.Key("digest").Value(digest);
  w.Key("wall_sec").Value(wall_sec);
  w.Key("cycles_per_sec").Value(cycles_per_sec);
  w.Key("clients").BeginArray();
  for (const StatsMsg& c : clients) {
    w.BeginObject();
    w.Key("client_index").Value(c.client_index);
    w.Key("digest").Value(c.digest);
    w.Key("digest_match").Value(c.digest == digest);
    w.Key("txns").Value(c.txns);
    w.Key("commits").Value(c.commits);
    w.Key("aborts").Value(c.aborts);
    w.Key("p50_us").Value(c.p50_us);
    w.Key("p99_us").Value(c.p99_us);
    w.Key("channel");
    AppendChannelStatsJson(w, c.channel);
    w.EndObject();
  }
  w.EndArray();
  if (!metrics_json.empty()) {
    w.Key("metrics").RawValue(metrics_json);
  }
  w.EndObject();
  return std::move(w).Take();
}

Status RunServerDaemon(const NetConfig& net, const SimConfig& sim, ServerReport* report) {
  ServerDaemon daemon(net, sim);
  return daemon.Run(report);
}

}  // namespace bcc
