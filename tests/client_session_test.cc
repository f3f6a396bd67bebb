#include "client/session.h"

#include <gtest/gtest.h>

#include "channel/frame.h"
#include "common/rng.h"
#include "matrix/hier_matrix.h"
#include "server/broadcast_server.h"
#include "sim/workload.h"

namespace bcc {
namespace {

constexpr uint32_t kObjects = 16;

SimConfig BaseConfig() {
  SimConfig config;
  config.num_objects = kObjects;
  config.client_txn_length = 3;
  config.record_decisions = true;
  return config;
}

SimConfig ChannelConfig() {
  SimConfig config = BaseConfig();
  config.channel_broadcast = true;
  return config;
}

SimConfig DeltaConfig() {
  SimConfig config = BaseConfig();
  config.delta_broadcast = true;
  return config;
}

AbortInfo Conflict(AbortCause cause) { return AbortInfo{cause, 1, 2, 3, 4}; }

// ---------------------------------------------------------------- abort --

struct AttributionCase {
  const char* name;
  SimConfig config;
  ReadGate stall;  // kReady = the attempt never stalled
  AbortCause raw;
  AbortCause attributed;
  uint64_t loss_attributed;  // receiver's loss-attributed abort count after
};

TEST(ClientSessionTest, AbortAttributionPrecedence) {
  const SimConfig channel_delta = [] {
    SimConfig c = ChannelConfig();
    c.delta_broadcast = true;
    return c;
  }();
  const AttributionCase cases[] = {
      {"clean control", BaseConfig(), ReadGate::kReady, AbortCause::kControlConflict,
       AbortCause::kControlConflict, 0},
      {"clean mc", BaseConfig(), ReadGate::kReady, AbortCause::kMcConflict,
       AbortCause::kMcConflict, 0},
      {"clean uplink", BaseConfig(), ReadGate::kReady, AbortCause::kUplinkReject,
       AbortCause::kUplinkReject, 0},
      {"desync control", DeltaConfig(), ReadGate::kStallDesync, AbortCause::kControlConflict,
       AbortCause::kDesyncStall, 0},
      {"desync mc", DeltaConfig(), ReadGate::kStallDesync, AbortCause::kMcConflict,
       AbortCause::kDesyncStall, 0},
      {"desync uplink", DeltaConfig(), ReadGate::kStallDesync, AbortCause::kUplinkReject,
       AbortCause::kUplinkReject, 0},
      {"loss control", ChannelConfig(), ReadGate::kStallLoss, AbortCause::kControlConflict,
       AbortCause::kChannelLoss, 1},
      {"loss mc", ChannelConfig(), ReadGate::kStallLoss, AbortCause::kMcConflict,
       AbortCause::kChannelLoss, 1},
      // An uplink rejection keeps its cause, but the loss still counts.
      {"loss uplink", ChannelConfig(), ReadGate::kStallLoss, AbortCause::kUplinkReject,
       AbortCause::kUplinkReject, 1},
      // With a receiver every stall is a loss stall, and loss outranks desync.
      {"channel desync control", channel_delta, ReadGate::kStallDesync,
       AbortCause::kControlConflict, AbortCause::kChannelLoss, 1},
      {"channel loss in delta mode", channel_delta, ReadGate::kStallLoss,
       AbortCause::kMcConflict, AbortCause::kChannelLoss, 1},
  };
  for (const AttributionCase& tc : cases) {
    SCOPED_TRACE(tc.name);
    ClientSession session(tc.config, Rng(5));
    Tracer tracer(16);
    session.set_trace_ring(tracer.AddTrack("client"));
    ReadTxn txn = session.NewTxn();
    session.Begin(txn, 0);
    if (tc.stall != ReadGate::kReady) session.Stall(txn, tc.stall, 10, 1);

    EXPECT_EQ(session.Abort(txn, Conflict(tc.raw), 20, 2), TxnStep::kRestart);
    EXPECT_EQ(session.abort_causes().Count(tc.attributed), 1u);
    EXPECT_EQ(session.abort_causes().TotalAborts(), 1u);
    if (session.receiver() != nullptr) {
      EXPECT_EQ(session.receiver()->stats().loss_attributed_aborts, tc.loss_attributed);
    }
    // The trace carries the attributed cause with the check's fields.
    const std::vector<TraceEvent> events = tracer.track(0).Snapshot();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().type, TraceEventType::kAbort);
    EXPECT_EQ(events.back().abort.cause, tc.attributed);
    EXPECT_EQ(events.back().abort.ob_j, 2u);

    // The stall flags belong to the attempt: the restart aborts cleanly.
    EXPECT_FALSE(txn.loss_stalled);
    EXPECT_FALSE(txn.desync_stalled);
    session.Abort(txn, Conflict(AbortCause::kControlConflict), 30, 3);
    EXPECT_EQ(session.abort_causes().TotalAborts(), 2u);
    EXPECT_EQ(session.abort_causes().Count(AbortCause::kControlConflict),
              tc.attributed == AbortCause::kControlConflict ? 2u : 1u);
  }
}

TEST(ClientSessionTest, RestartsUntilCensoredAtTheRestartGuard) {
  SimConfig config = BaseConfig();
  config.max_restarts_per_txn = 3;
  ClientSession session(config, Rng(9));
  ReadTxn txn = session.NewTxn();
  session.Begin(txn, 100);

  txn.read_idx = 2;
  EXPECT_EQ(session.Abort(txn, Conflict(AbortCause::kControlConflict), 110, 1), TxnStep::kRestart);
  EXPECT_EQ(txn.read_idx, 0u) << "a restart re-runs the program from its first read";
  EXPECT_EQ(txn.restarts, 1u);
  EXPECT_EQ(session.Abort(txn, Conflict(AbortCause::kMcConflict), 120, 2), TxnStep::kRestart);
  txn.read_idx = 1;
  EXPECT_EQ(session.Abort(txn, Conflict(AbortCause::kControlConflict), 130, 3), TxnStep::kCensor);
  EXPECT_EQ(txn.read_idx, 1u) << "the censored attempt is logged as it failed";
  EXPECT_EQ(txn.restarts, 3u);

  session.Complete(txn, /*censored=*/true, 140, 3);
  EXPECT_EQ(session.completed(), 1u);
  EXPECT_EQ(session.censored(), 1u);
  EXPECT_EQ(session.restarts(), 3u);
  EXPECT_EQ(session.abort_causes().TotalAborts(), 3u);
  EXPECT_EQ(session.abort_causes().Count(AbortCause::kCensored), 1u);
  ASSERT_EQ(session.decisions().size(), 1u);
  EXPECT_EQ(session.decisions()[0].restarts, 3u);
  EXPECT_TRUE(session.decisions()[0].censored);

  // Begin starts the next transaction from a clean slate.
  session.Begin(txn, 150);
  EXPECT_EQ(txn.restarts, 0u);
  EXPECT_EQ(txn.read_idx, 0u);
  EXPECT_EQ(txn.begin_time, 150u);
}

// -------------------------------------------------------------- workload --

void ExpectBeginMatchesWorkload(const SimConfig& config) {
  ClientWorkload reference(config, Rng(77));
  ClientSession session(config, Rng(77));
  ReadTxn txn = session.NewTxn();
  int updates = 0;
  for (int k = 0; k < 200; ++k) {
    session.Begin(txn, static_cast<SimTime>(k));
    const std::vector<ObjectId> reads = reference.NextReadSet();
    const bool is_update = config.client_update_fraction > 0.0 && reference.NextIsUpdate();
    const std::vector<ObjectId> writes =
        is_update ? reference.NextWriteSet() : std::vector<ObjectId>{};
    ASSERT_EQ(txn.read_set, reads) << "txn " << k;
    ASSERT_EQ(txn.is_update, is_update) << "txn " << k;
    ASSERT_EQ(txn.write_set, writes) << "txn " << k;
    updates += is_update ? 1 : 0;
    // Interleaved think-time draws stay in lockstep too.
    ASSERT_EQ(session.workload().NextInterOpDelay(), reference.NextInterOpDelay());
  }
  if (config.client_update_fraction > 0.0) {
    EXPECT_GT(updates, 0);
  } else {
    EXPECT_EQ(updates, 0);
  }
}

TEST(ClientSessionTest, BeginDrawsTheWorkloadStreamWithoutUplinks) {
  ExpectBeginMatchesWorkload(BaseConfig());
}

TEST(ClientSessionTest, BeginDrawsTheWorkloadStreamWithUplinks) {
  SimConfig config = BaseConfig();
  config.client_update_fraction = 0.4;
  ExpectBeginMatchesWorkload(config);
}

TEST(ClientSessionTest, ThinkTimeAddsTheRestartDelayAfterAnAbort) {
  SimConfig config = BaseConfig();
  config.restart_delay = 1000;
  ClientWorkload reference(config, Rng(4));
  ClientSession session(config, Rng(4));
  EXPECT_EQ(session.ThinkTime(TxnStep::kNextRead), reference.NextInterOpDelay());
  EXPECT_EQ(session.ThinkTime(TxnStep::kRestart), 1000 + reference.NextInterOpDelay());
}

// ---------------------------------------------------------------- wiring --

TEST(ClientSessionTest, DirectModeValidatesAgainstTheSnapshot) {
  for (const bool cache : {false, true}) {
    SimConfig config = BaseConfig();
    config.enable_cache = cache;
    ClientSession session(config, Rng(1));
    const ReadTxn txn = session.NewTxn();
    EXPECT_EQ(txn.protocol.control_override(), nullptr);
    EXPECT_EQ(txn.protocol.sparse_control_override(), nullptr);
    EXPECT_EQ(txn.protocol.value_override(), nullptr);
    EXPECT_EQ(txn.protocol.hier_control_override(), nullptr);
    EXPECT_EQ(txn.protocol.capture_columns(), cache);
    EXPECT_EQ(session.cache() != nullptr, cache);
    EXPECT_EQ(session.tracker(), nullptr);
    EXPECT_EQ(session.receiver(), nullptr);
  }
}

TEST(ClientSessionTest, DeltaModeValidatesAgainstTheTracker) {
  ClientSession session(DeltaConfig(), Rng(1));
  ASSERT_NE(session.tracker(), nullptr);
  EXPECT_FALSE(session.tracker()->sparse());
  const ReadTxn txn = session.NewTxn();
  EXPECT_EQ(txn.protocol.control_override(), &session.tracker()->matrix());
  EXPECT_EQ(txn.protocol.sparse_control_override(), nullptr);
  EXPECT_EQ(txn.protocol.value_override(), nullptr);
}

TEST(ClientSessionTest, SparseDeltaModeValidatesAgainstTheSparseTracker) {
  SimConfig config = DeltaConfig();
  config.matrix_mode = MatrixMode::kSparse;
  ClientSession session(config, Rng(1));
  ASSERT_NE(session.tracker(), nullptr);
  EXPECT_TRUE(session.tracker()->sparse());
  const ReadTxn txn = session.NewTxn();
  EXPECT_EQ(txn.protocol.sparse_control_override(), &session.tracker()->sparse_matrix());
  EXPECT_EQ(txn.protocol.control_override(), nullptr);
}

TEST(ClientSessionTest, ChannelModeValidatesAgainstTheReceiver) {
  ClientSession session(ChannelConfig(), Rng(1));
  ASSERT_NE(session.receiver(), nullptr);
  EXPECT_EQ(session.tracker(), nullptr);
  const ReadTxn txn = session.NewTxn();
  EXPECT_EQ(txn.protocol.value_override(), &session.receiver()->values());
  EXPECT_EQ(txn.protocol.control_override(), &session.receiver()->matrix());
}

TEST(ClientSessionTest, ChannelDeltaModeReadsValuesOffFramesAndControlOffTheTracker) {
  SimConfig config = ChannelConfig();
  config.delta_broadcast = true;
  // Channel-mode trackers rebuild from on-air bytes and stay dense.
  config.matrix_mode = MatrixMode::kSparse;
  ClientSession session(config, Rng(1));
  ASSERT_NE(session.receiver(), nullptr);
  ASSERT_NE(session.tracker(), nullptr);
  EXPECT_FALSE(session.tracker()->sparse());
  const ReadTxn txn = session.NewTxn();
  EXPECT_EQ(txn.protocol.value_override(), &session.receiver()->values());
  EXPECT_EQ(txn.protocol.control_override(), &session.tracker()->matrix());
  EXPECT_EQ(txn.protocol.sparse_control_override(), nullptr);
}

TEST(ClientSessionTest, HierModeValidatesAgainstTheHierarchy) {
  SimConfig config = BaseConfig();
  config.matrix_mode = MatrixMode::kHier;
  HierMatrix hier(kObjects);
  ClientSession session(config, Rng(1), &hier);
  const ReadTxn txn = session.NewTxn();
  EXPECT_EQ(txn.protocol.hier_control_override(), &hier);
  EXPECT_EQ(txn.protocol.control_override(), nullptr);
}

// ------------------------------------------------------------ read gate --

TEST(ClientSessionTest, GateStallsOnMissingControlOrData) {
  EXPECT_EQ(ClientSession(BaseConfig(), Rng(1)).Gate(0, 1), ReadGate::kReady);
  // Nothing received yet: a channel client lacks this cycle's page and
  // column, and an unsynced tracker cannot validate at all.
  EXPECT_EQ(ClientSession(ChannelConfig(), Rng(1)).Gate(0, 1), ReadGate::kStallLoss);
  EXPECT_EQ(ClientSession(DeltaConfig(), Rng(1)).Gate(0, 1), ReadGate::kStallDesync);
}

TEST(ClientSessionTest, GateNeedsThisCyclesControlColumnAndPage) {
  const SimConfig config = ChannelConfig();
  ServerTxnManager manager(kObjects);
  BroadcastServer server(kObjects, config.Geometry());
  server.BeginCycle(1, 0, manager);
  const FrameCodec codec(CycleStampCodec(config.timestamp_bits), config.channel_frame_bits);
  const std::vector<Frame> frames =
      EncodeCycleFrames(server.snapshot(), codec, config.object_size_bits);

  // Deliver the whole cycle except ob3's control column and ob5's page.
  Transmission tx;
  tx.sent = frames.size();
  for (const Frame& frame : frames) {
    const StatusOr<FrameHeader> header = codec.DecodeHeader(frame.bytes);
    ASSERT_TRUE(header.ok());
    if ((header->kind == FrameKind::kControlColumn && header->stream_id == 3) ||
        (header->kind == FrameKind::kData && header->stream_id == 5)) {
      ++tx.dropped;
      continue;
    }
    tx.frames.push_back(Delivery{frame, false});
  }
  ASSERT_GT(tx.dropped, 0u);
  ClientSession session(config, Rng(1));
  session.receiver()->IngestCycle(1, tx);

  EXPECT_EQ(session.Gate(4, 1), ReadGate::kReady);
  EXPECT_EQ(session.Gate(3, 1), ReadGate::kStallLoss) << "lost control column";
  EXPECT_EQ(session.Gate(5, 1), ReadGate::kStallLoss) << "lost data page";
  EXPECT_EQ(session.Gate(4, 2), ReadGate::kStallLoss) << "cycle 1's state is stale in cycle 2";
}

TEST(ClientSessionTest, StallMarksTheAttemptAndCountsAtTheReceiver) {
  ClientSession session(ChannelConfig(), Rng(1));
  ReadTxn txn = session.NewTxn();
  session.Begin(txn, 0);
  session.Stall(txn, ReadGate::kStallLoss, 5, 1);
  EXPECT_TRUE(txn.loss_stalled);
  EXPECT_FALSE(txn.desync_stalled);
  EXPECT_EQ(session.receiver()->stats().stalls, 1u);
}

// ------------------------------------------------------------------ read --

TEST(ClientSessionTest, ReadAdvancesAndAbortsWithTheProtocolCause) {
  ServerTxnManager manager(kObjects);
  BroadcastServer server(kObjects, ComputeGeometry(Algorithm::kFMatrix, kObjects, 100, 8));
  ClientSession session(BaseConfig(), Rng(3));
  ReadTxn txn = session.NewTxn();
  session.Begin(txn, 0);
  txn.read_set = {1, 4};

  server.BeginCycle(1, 0, manager);
  EXPECT_EQ(session.Read(txn, server.snapshot(), 10), TxnStep::kNextRead);
  EXPECT_EQ(txn.read_idx, 1u);
  // ob4's next value depends on an overwrite of ob1, which was read in 1.
  manager.ExecuteAndCommit(ServerTxn{1, {}, {1}}, 1);
  manager.ExecuteAndCommit(ServerTxn{2, {1}, {4}}, 1);
  server.BeginCycle(2, 1000, manager);
  EXPECT_EQ(session.Read(txn, server.snapshot(), 1010), TxnStep::kRestart);
  EXPECT_EQ(session.abort_causes().Count(AbortCause::kControlConflict), 1u);
  EXPECT_EQ(txn.read_idx, 0u);

  // The restart reads both objects in cycle 2 and finishes.
  EXPECT_EQ(session.Read(txn, server.snapshot(), 1020), TxnStep::kNextRead);
  EXPECT_EQ(session.Read(txn, server.snapshot(), 1030), TxnStep::kReadsDone);
  session.Complete(txn, /*censored=*/false, 1040, 2);
  ASSERT_EQ(session.decisions().size(), 1u);
  EXPECT_EQ(session.decisions()[0].restarts, 1u);
  EXPECT_EQ(session.decisions()[0].reads.size(), 2u);
  EXPECT_FALSE(session.decisions()[0].censored);
}

TEST(ClientSessionTest, UplinkVerdictsAreCounted) {
  ClientSession session(BaseConfig(), Rng(1));
  session.UplinkVerdict(true, 0, 1);
  session.UplinkVerdict(false, 0, 1);
  session.UplinkVerdict(false, 0, 2);
  EXPECT_EQ(session.update_commits(), 1u);
  EXPECT_EQ(session.update_rejects(), 2u);
}

}  // namespace
}  // namespace bcc
