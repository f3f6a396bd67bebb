// Tests for the snapshot+delta control broadcast pipeline: server-side
// DeltaBroadcaster, client-side DeltaMatrixTracker, full-vs-delta decision
// parity, and the windowed-wraparound property test from the issue.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "client/delta_tracker.h"
#include "common/rng.h"
#include "server/delta_broadcast.h"
#include "sim/broadcast_sim.h"

namespace bcc {
namespace {

// ---------------------------------------------------------------------------
// DeltaBroadcaster units
// ---------------------------------------------------------------------------

TEST(DeltaBroadcasterTest, FirstCycleIsAScheduledRefresh) {
  DeltaBroadcaster b(4, CycleStampCodec(8), /*refresh_period=*/5);
  FMatrix m(4);
  const DeltaControl ctl = b.BuildControl(m, {}, 1);
  EXPECT_TRUE(ctl.full_refresh);
  EXPECT_TRUE(ctl.scheduled);
  EXPECT_TRUE(ctl.entries.empty());
  EXPECT_EQ(ctl.control_bits, ctl.full_bits);
  EXPECT_EQ(ctl.full_bits, FullMatrixControlBits(4, 8));
}

TEST(DeltaBroadcasterTest, RefreshEveryPeriodCyclesAndDeltasBetween) {
  const CycleStampCodec codec(8);
  DeltaBroadcaster b(4, codec, /*refresh_period=*/3);
  FMatrix m(4);
  m.EnableDirtyTracking();
  Cycle cycle = 1;
  std::vector<bool> refreshes;
  for (; cycle <= 9; ++cycle) {
    m.ApplyCommit({}, std::vector<ObjectId>{static_cast<ObjectId>(cycle % 4)}, cycle);
    const DeltaControl ctl = b.BuildControl(m, m.TakeTouchedColumns(), cycle);
    refreshes.push_back(ctl.full_refresh);
    EXPECT_LE(ctl.control_bits, ctl.full_bits) << "cycle " << cycle;
    if (!ctl.full_refresh) {
      EXPECT_EQ(ctl.base_cycle, cycle - 1);
      EXPECT_EQ(ctl.control_bits, DeltaCodec::EncodedBits(ctl.entries.size(), 4, 8));
    }
  }
  // Cycle 1 (first), then every 3rd cycle after the last refresh.
  const std::vector<bool> expect = {true, false, false, true, false, false, true, false, false};
  EXPECT_EQ(refreshes, expect);
}

TEST(DeltaBroadcasterTest, DeltaEntriesReconstructTheMatrix) {
  const CycleStampCodec codec(8);
  const uint32_t n = 6;
  DeltaBroadcaster b(n, codec, /*refresh_period=*/4);
  FMatrix server(n);
  server.EnableDirtyTracking();
  FMatrix client(n);
  Rng rng(3);
  bool synced = false;
  for (Cycle cycle = 1; cycle <= 30; ++cycle) {
    const uint32_t commits = static_cast<uint32_t>(rng.NextBounded(3));
    for (uint32_t t = 0; t < commits; ++t) {
      const auto reads = rng.SampleWithoutReplacement(n, static_cast<uint32_t>(rng.NextBounded(3)));
      const auto writes =
          rng.SampleWithoutReplacement(n, 1 + static_cast<uint32_t>(rng.NextBounded(2)));
      server.ApplyCommit(reads, writes, cycle);
    }
    const DeltaControl ctl = b.BuildControl(server, server.TakeTouchedColumns(), cycle);
    if (ctl.full_refresh) {
      client = server;
      synced = true;
    } else if (synced) {
      DeltaCodec::Apply(&client, ctl.entries, codec, cycle);
    }
    // Within the codec window (cycle <= 255 here) decode is exact, so the
    // reconstruction must be bit-identical, not just congruent.
    ASSERT_TRUE(client == server) << "cycle " << cycle;
  }
}

TEST(DeltaBroadcasterTest, AdaptiveRefreshWhenDeltaWouldNotBeatFullMatrix) {
  // n = 2, ts = 8: full matrix is 32 bits; any nonempty delta costs
  // 32 + k * (1 + 1 + 8) > 32, so every changing cycle falls back to an
  // unscheduled (adaptive) refresh.
  const CycleStampCodec codec(8);
  DeltaBroadcaster b(2, codec, /*refresh_period=*/100);
  FMatrix m(2);
  m.EnableDirtyTracking();
  (void)b.BuildControl(m, {}, 1);  // initial scheduled refresh
  m.ApplyCommit({}, std::vector<ObjectId>{0}, 2);
  const DeltaControl ctl = b.BuildControl(m, m.TakeTouchedColumns(), 2);
  EXPECT_TRUE(ctl.full_refresh);
  EXPECT_FALSE(ctl.scheduled);
  EXPECT_EQ(ctl.control_bits, ctl.full_bits);
  // At n = 2 even an empty delta's 32-bit header ties the full matrix, so
  // quiet cycles also refresh (>= threshold). With a bigger matrix a quiet
  // cycle ships only the header.
  const DeltaControl tiny_quiet = b.BuildControl(m, {}, 3);
  EXPECT_TRUE(tiny_quiet.full_refresh);
  EXPECT_EQ(tiny_quiet.control_bits, tiny_quiet.full_bits);

  DeltaBroadcaster big(4, codec, /*refresh_period=*/100);
  FMatrix m4(4);
  (void)big.BuildControl(m4, {}, 1);
  const DeltaControl quiet = big.BuildControl(m4, {}, 2);
  EXPECT_FALSE(quiet.full_refresh);
  EXPECT_TRUE(quiet.entries.empty());
  EXPECT_EQ(quiet.control_bits, 32u);
}

// ---------------------------------------------------------------------------
// DeltaMatrixTracker units
// ---------------------------------------------------------------------------

DeltaControl MakeRefresh(Cycle cycle, uint32_t n, unsigned ts) {
  DeltaControl ctl;
  ctl.cycle = cycle;
  ctl.full_refresh = true;
  ctl.scheduled = true;
  ctl.base_cycle = cycle;
  ctl.full_bits = ctl.control_bits = FullMatrixControlBits(n, ts);
  return ctl;
}

TEST(DeltaMatrixTrackerTest, StartsDesyncedAndSyncsOnRefresh) {
  DeltaMatrixTracker tracker(3, CycleStampCodec(8));
  EXPECT_FALSE(tracker.synced());
  EXPECT_TRUE(tracker.Unusable(1));

  FMatrix on_air(3);
  on_air.Set(1, 2, 4);
  tracker.Observe(MakeRefresh(5, 3, 8), on_air);
  EXPECT_TRUE(tracker.synced());
  EXPECT_EQ(tracker.last_sync(), 5u);
  EXPECT_FALSE(tracker.Unusable(5));
  EXPECT_EQ(tracker.matrix().At(1, 2), 4u);
}

TEST(DeltaMatrixTrackerTest, AppliesContiguousDeltasAndDesyncsOnGaps) {
  const CycleStampCodec codec(8);
  DeltaMatrixTracker tracker(3, codec);
  FMatrix on_air(3);
  tracker.Observe(MakeRefresh(1, 3, 8), on_air);

  DeltaControl delta;
  delta.cycle = 2;
  delta.base_cycle = 1;
  delta.entries = {{0, 1, codec.Encode(2)}};
  tracker.Observe(delta, on_air);
  EXPECT_TRUE(tracker.synced());
  EXPECT_EQ(tracker.last_sync(), 2u);
  EXPECT_EQ(tracker.matrix().At(0, 1), 2u);

  // A gap (cycle 4 on top of last_sync 2) must desync, not apply.
  DeltaControl gap;
  gap.cycle = 4;
  gap.base_cycle = 3;
  gap.entries = {{0, 0, codec.Encode(4)}};
  tracker.Observe(gap, on_air);
  EXPECT_FALSE(tracker.synced());
  EXPECT_TRUE(tracker.Unusable(4));
  EXPECT_EQ(tracker.matrix().At(0, 0), 0u) << "a gapped delta must not be applied";

  // Still desynced on the next contiguous-looking delta...
  DeltaControl next;
  next.cycle = 5;
  next.base_cycle = 4;
  tracker.Observe(next, on_air);
  EXPECT_FALSE(tracker.synced());

  // ...until a refresh arrives.
  tracker.Observe(MakeRefresh(6, 3, 8), on_air);
  EXPECT_TRUE(tracker.synced());
  EXPECT_EQ(tracker.last_sync(), 6u);
}

TEST(DeltaMatrixTrackerTest, DuplicatedAndStaleDeltasAreIgnoredWhileSynced) {
  // A lossy channel can replay control blocks the tracker already absorbed
  // (e.g. a client that stalls and re-ingests a cycle boundary). Anything at
  // or before last_sync must be dropped without desyncing — and without
  // re-applying stamps, which could only move them backwards.
  const CycleStampCodec codec(8);
  DeltaMatrixTracker tracker(3, codec);
  FMatrix on_air(3);
  tracker.Observe(MakeRefresh(4, 3, 8), on_air);

  DeltaControl delta;
  delta.cycle = 5;
  delta.base_cycle = 4;
  delta.entries = {{1, 2, codec.Encode(5)}};
  tracker.Observe(delta, on_air);
  ASSERT_TRUE(tracker.synced());
  ASSERT_EQ(tracker.last_sync(), 5u);
  ASSERT_EQ(tracker.matrix().At(1, 2), 5u);

  // Exact duplicate of the delta just applied: ignored, still synced.
  tracker.Observe(delta, on_air);
  EXPECT_TRUE(tracker.synced());
  EXPECT_EQ(tracker.last_sync(), 5u);
  EXPECT_EQ(tracker.matrix().At(1, 2), 5u);

  // A stale delta from an older cycle (would regress the stamp): ignored.
  DeltaControl stale;
  stale.cycle = 3;
  stale.base_cycle = 2;
  stale.entries = {{1, 2, codec.Encode(2)}};
  tracker.Observe(stale, on_air);
  EXPECT_TRUE(tracker.synced());
  EXPECT_EQ(tracker.last_sync(), 5u);
  EXPECT_EQ(tracker.matrix().At(1, 2), 5u) << "a stale delta must never lower a stamp";

  // The contiguous next delta still applies after the noise.
  DeltaControl next;
  next.cycle = 6;
  next.base_cycle = 5;
  next.entries = {{0, 0, codec.Encode(6)}};
  tracker.Observe(next, on_air);
  EXPECT_TRUE(tracker.synced());
  EXPECT_EQ(tracker.last_sync(), 6u);
  EXPECT_EQ(tracker.matrix().At(0, 0), 6u);
}

TEST(DeltaMatrixTrackerTest, StaleRefreshWhileSyncedIsIgnored) {
  const CycleStampCodec codec(8);
  DeltaMatrixTracker tracker(3, codec);
  FMatrix current(3);
  current.Set(0, 1, 7);
  tracker.Observe(MakeRefresh(7, 3, 8), current);
  ASSERT_TRUE(tracker.synced());
  ASSERT_EQ(tracker.matrix().At(0, 1), 7u);

  // A replayed refresh from cycle 2 carries older stamps; applying it would
  // be exactly the false-acceptance hazard. It must be dropped.
  FMatrix old(3);
  tracker.Observe(MakeRefresh(2, 3, 8), old);
  EXPECT_TRUE(tracker.synced());
  EXPECT_EQ(tracker.last_sync(), 7u);
  EXPECT_EQ(tracker.matrix().At(0, 1), 7u);

  // A fresh refresh still wins.
  FMatrix newer(3);
  newer.Set(0, 1, 9);
  tracker.Observe(MakeRefresh(9, 3, 8), newer);
  EXPECT_TRUE(tracker.synced());
  EXPECT_EQ(tracker.last_sync(), 9u);
  EXPECT_EQ(tracker.matrix().At(0, 1), 9u);
}

TEST(DeltaMatrixTrackerTest, BeyondDecodeWindowGuard) {
  DeltaMatrixTracker tracker(2, CycleStampCodec(3));  // window: 7 cycles
  FMatrix on_air(2);
  tracker.Observe(MakeRefresh(10, 2, 3), on_air);
  EXPECT_FALSE(tracker.BeyondDecodeWindow(17));  // 17 - 10 == max_cycles
  EXPECT_TRUE(tracker.BeyondDecodeWindow(18));
  EXPECT_TRUE(tracker.Unusable(18));
}

// ---------------------------------------------------------------------------
// Full-vs-delta decision parity (CrossCheckEngines-style)
// ---------------------------------------------------------------------------

SimConfig SmallDeltaConfig() {
  SimConfig config;
  config.algorithm = Algorithm::kFMatrix;
  config.num_objects = 20;
  config.object_size_bits = 64;
  config.client_txn_length = 3;
  config.server_txn_length = 4;
  config.server_txn_interval = 3000;
  config.mean_inter_op_delay = 800;
  config.mean_inter_txn_delay = 1500;
  config.num_client_txns = 100000;  // cutoff comes from stop_after_cycles
  config.warmup_txns = 1;
  config.timestamp_bits = 8;
  config.stop_after_cycles = 60;
  config.delta_refresh_period = 8;
  return config;
}

TEST(DeltaParityTest, FullAndDeltaBroadcastDecideIdentically) {
  for (uint64_t seed : {7u, 21u, 99u}) {
    SimConfig config = SmallDeltaConfig();
    config.seed = seed;
    const Status status = CrossCheckDeltaBroadcast(config);
    EXPECT_TRUE(status.ok()) << "seed " << seed << ": " << status.ToString();
  }
}

TEST(DeltaParityTest, ParityHoldsWithMultipleClients) {
  SimConfig config = SmallDeltaConfig();
  config.num_clients = 3;
  config.seed = 5;
  const Status status = CrossCheckDeltaBroadcast(config);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(DeltaParityTest, ParityHoldsAtRefreshPeriodOne) {
  // Period 1 degenerates to "full matrix every cycle" — the accounting must
  // then equal the baseline exactly.
  SimConfig config = SmallDeltaConfig();
  config.delta_refresh_period = 1;
  const Status status = CrossCheckDeltaBroadcast(config);
  EXPECT_TRUE(status.ok()) << status.ToString();

  SimConfig delta = config;
  delta.delta_broadcast = true;
  delta.num_client_txns = 1000;
  BroadcastSim sim(delta);
  const auto summary = sim.Run();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->delta_refresh_cycles, summary->delta_cycles);
  EXPECT_EQ(summary->delta_control_bits, summary->full_control_bits);
}

TEST(DeltaModeTest, RunReportsDeltaAccounting) {
  SimConfig config = SmallDeltaConfig();
  config.delta_broadcast = true;
  config.num_client_txns = 1000;
  BroadcastSim sim(config);
  const auto summary = sim.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->delta_cycles, summary->cycles_elapsed);
  EXPECT_GE(summary->delta_refresh_cycles, 1u);
  EXPECT_LE(summary->delta_control_bits, summary->full_control_bits);
  EXPECT_EQ(summary->delta_stall_waits, 0u) << "no stalls without a forced desync";
  EXPECT_TRUE(sim.VerifyDeltaTrackers().ok());
}

TEST(DeltaModeTest, ForcedDesyncStallsUntilRefreshThenResyncs) {
  SimConfig config = SmallDeltaConfig();
  config.delta_broadcast = true;
  config.num_client_txns = 1000;
  config.delta_refresh_period = 8;
  config.delta_desync_at_cycle = 10;  // mid refresh-interval
  BroadcastSim sim(config);
  const auto summary = sim.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  // The desynced clients must have stalled at least once and resynced at the
  // next scheduled refresh; by the final cycle the tracker is valid again.
  EXPECT_GE(summary->delta_stall_waits, 1u);
  const Status trackers = sim.VerifyDeltaTrackers();
  EXPECT_TRUE(trackers.ok()) << trackers.ToString();
}

TEST(DeltaModeTest, OracleAuditPassesInDeltaMode) {
  SimConfig config = SmallDeltaConfig();
  config.delta_broadcast = true;
  config.record_history = true;
  config.num_client_txns = 1000;
  BroadcastSim sim(config);
  const auto summary = sim.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  const Status oracle = sim.VerifyOracle();
  EXPECT_TRUE(oracle.ok()) << oracle.ToString();
}

TEST(DeltaModeTest, ConfigValidationRejectsUnsupportedCombinations) {
  SimConfig config = SmallDeltaConfig();
  config.delta_broadcast = true;

  SimConfig bad = config;
  bad.algorithm = Algorithm::kRMatrix;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());

  bad = config;
  bad.use_wire_codec = false;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());

  bad = config;
  bad.enable_cache = true;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());

  bad = config;
  bad.num_groups = 4;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());

  bad = config;
  bad.timestamp_bits = 3;
  bad.delta_refresh_period = 8;  // > 2^3 - 1
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());

  bad = config;
  bad.delta_refresh_period = 0;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Windowed-wraparound property test (issue satellite): run for more than
// 2^ts cycles at ts in {2, 3}, cross-check the delta-reconstructed client
// matrices against the server's unbounded-cycle F-Matrix, and verify
// decisions match full-matrix broadcast (err-on-abort is the codec's
// property, proven in cycle_stamp_test; here decisions must be *identical*
// because both modes consult congruent stamps).
// ---------------------------------------------------------------------------

class WraparoundPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(WraparoundPropertyTest, DeltaReconstructionSurvivesTimestampWraparound) {
  const unsigned ts_bits = GetParam();
  const uint64_t window = (uint64_t{1} << ts_bits);
  SimConfig config;
  config.algorithm = Algorithm::kFMatrix;
  config.num_objects = 12;
  config.object_size_bits = 64;
  config.client_txn_length = 2;
  config.server_txn_length = 3;
  config.server_txn_interval = 2500;
  config.mean_inter_op_delay = 500;
  config.mean_inter_txn_delay = 900;
  config.num_client_txns = 1000000;
  config.warmup_txns = 1;
  config.timestamp_bits = ts_bits;
  config.delta_refresh_period = window - 1;  // the legal maximum
  config.stop_after_cycles = 6 * window;     // well past several wraparounds
  config.seed = 11 + ts_bits;

  // 1. Decision parity with the full-matrix broadcast across wraparound.
  const Status parity = CrossCheckDeltaBroadcast(config);
  EXPECT_TRUE(parity.ok()) << "ts=" << ts_bits << ": " << parity.ToString();

  // 2. Reconstruction congruence against the server's unbounded matrix plus
  // the end-to-end oracle audit (client reads consistent despite aliasing).
  SimConfig delta = config;
  delta.delta_broadcast = true;
  delta.record_history = true;
  BroadcastSim sim(delta);
  const auto summary = sim.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_GT(summary->cycles_elapsed, window) << "run must outlive the stamp window";
  EXPECT_LE(summary->delta_control_bits, summary->full_control_bits);
  const Status trackers = sim.VerifyDeltaTrackers();
  EXPECT_TRUE(trackers.ok()) << "ts=" << ts_bits << ": " << trackers.ToString();
  const Status oracle = sim.VerifyOracle();
  EXPECT_TRUE(oracle.ok()) << "ts=" << ts_bits << ": " << oracle.ToString();
}

INSTANTIATE_TEST_SUITE_P(TinyStamps, WraparoundPropertyTest, ::testing::Values(2u, 3u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "ts" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace bcc
