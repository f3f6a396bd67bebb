// Simulation-level tests for the lossy broadcast channel: lossless
// bit-exactness with the direct in-process handoff, determinism of lossy
// runs, loss-driven stalls/desyncs/resyncs, the oracle safety sweep (loss
// may add stalls and aborts, never false acceptance), and lossy parity
// between the DES and the concurrent engine.

#include <gtest/gtest.h>

#include <vector>

#include "sim/broadcast_sim.h"
#include "sim/concurrent_sim.h"

namespace bcc {
namespace {

SimConfig SmallChannelConfig() {
  SimConfig config;
  config.algorithm = Algorithm::kFMatrix;
  config.num_objects = 12;
  config.object_size_bits = 64;
  config.client_txn_length = 3;
  config.server_txn_length = 3;
  config.server_txn_interval = 2500;
  config.mean_inter_op_delay = 600;
  config.mean_inter_txn_delay = 1200;
  config.num_client_txns = 100000;  // cutoff comes from stop_after_cycles
  config.warmup_txns = 1;
  config.timestamp_bits = 8;
  config.stop_after_cycles = 40;
  config.channel_broadcast = true;
  config.channel_frame_bits = 256;
  return config;
}

// ---------------------------------------------------------------------------
// Lossless bit-exactness
// ---------------------------------------------------------------------------

TEST(ChannelLosslessTest, FullModeChannelIsBitExactWithDirectHandoff) {
  for (uint64_t seed : {3u, 17u, 4242u}) {
    SimConfig config = SmallChannelConfig();
    config.seed = seed;
    EXPECT_TRUE(CrossCheckLossless(config).ok()) << "seed " << seed;
  }
}

TEST(ChannelLosslessTest, DeltaModeChannelIsBitExactWithDirectHandoff) {
  for (uint64_t seed : {5u, 29u, 999u}) {
    SimConfig config = SmallChannelConfig();
    config.seed = seed;
    config.delta_broadcast = true;
    config.delta_refresh_period = 6;
    EXPECT_TRUE(CrossCheckLossless(config).ok()) << "seed " << seed;
  }
}

TEST(ChannelLosslessTest, CrossCheckRequiresCycleCutoff) {
  SimConfig config = SmallChannelConfig();
  config.stop_after_cycles = 0;
  EXPECT_FALSE(CrossCheckLossless(config).ok());
}

TEST(ChannelLosslessTest, MultiClientLosslessChannelStaysBitExact) {
  SimConfig config = SmallChannelConfig();
  config.num_clients = 4;
  EXPECT_TRUE(CrossCheckLossless(config).ok());
}

// ---------------------------------------------------------------------------
// Lossy determinism
// ---------------------------------------------------------------------------

TEST(ChannelLossyTest, LossyRunsAreDeterministicGivenTheSeed) {
  SimConfig config = SmallChannelConfig();
  config.record_decisions = true;
  config.num_clients = 2;
  config.channel_loss_rate = 0.1;
  config.channel_corrupt_rate = 0.05;
  config.channel_truncate_rate = 0.02;
  config.channel_burst = true;

  BroadcastSim a(config);
  const auto sa = a.Run();
  ASSERT_TRUE(sa.ok()) << sa.status().ToString();
  BroadcastSim b(config);
  const auto sb = b.Run();
  ASSERT_TRUE(sb.ok()) << sb.status().ToString();

  EXPECT_GT(sa->channel.frames_dropped, 0u);
  EXPECT_TRUE(sa->channel == sb->channel);
  EXPECT_EQ(sa->total_restarts, sb->total_restarts);
  EXPECT_EQ(sa->total_txns, sb->total_txns);
  ASSERT_EQ(a.decisions().size(), b.decisions().size());
  for (size_t c = 0; c < a.decisions().size(); ++c) {
    ASSERT_EQ(a.decisions()[c].size(), b.decisions()[c].size()) << "client " << c;
    for (size_t i = 0; i < a.decisions()[c].size(); ++i) {
      EXPECT_TRUE(a.decisions()[c][i] == b.decisions()[c][i]) << "client " << c << " txn " << i;
    }
  }
}

TEST(ChannelLossyTest, StatsInvariantsHoldUnderHeavyFaults) {
  SimConfig config = SmallChannelConfig();
  config.channel_loss_rate = 0.2;
  config.channel_corrupt_rate = 0.2;
  config.channel_truncate_rate = 0.1;
  BroadcastSim sim(config);
  const auto summary = sim.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  const ChannelStats& ch = summary->channel;
  EXPECT_GT(ch.frames_sent, 0u);
  EXPECT_EQ(ch.frames_sent, ch.frames_dropped + ch.frames_delivered);
  // Damage is either caught by CRC/framing or delivered-and-counted.
  EXPECT_EQ(ch.frames_corrupted + ch.frames_truncated,
            ch.frames_rejected + ch.frames_delivered_corrupt);
  EXPECT_GT(ch.frames_rejected, 0u);
  EXPECT_GT(ch.stalls, 0u);
}

TEST(ChannelLossyTest, DeltaModeLossDrivesDesyncsAndResyncs) {
  SimConfig config = SmallChannelConfig();
  config.delta_broadcast = true;
  config.delta_refresh_period = 4;
  config.channel_loss_rate = 0.15;
  config.stop_after_cycles = 80;
  BroadcastSim sim(config);
  const auto summary = sim.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  const ChannelStats& ch = summary->channel;
  EXPECT_GT(ch.control_losses, 0u);
  EXPECT_GT(ch.tracker_desyncs, 0u) << "a lost delta must desync the tracker";
  EXPECT_GT(ch.resyncs, 0u) << "the next refresh must resync it";
  EXPECT_GT(ch.stalls, 0u);
  // Desynced reads stall through the delta-stall path too.
  EXPECT_GT(summary->delta_stall_waits, 0u);
}

// ---------------------------------------------------------------------------
// Safety sweep: loss may only add stalls/aborts, never false acceptance
// ---------------------------------------------------------------------------

TEST(ChannelSafetyTest, NoOracleRejectedCommitUnderAnyFaultSchedule) {
  // >= 20 seeds spread over every loss rate, burst setting, stamp width and
  // control mode from the issue's acceptance sweep. VerifyOracle re-checks
  // every committed read against the reads-from relation of the paper-
  // semantics history and runs APPROX over it: a client that validated
  // against stale control information would surface here.
  const double losses[] = {0.01, 0.05, 0.2};
  const unsigned ts_bits[] = {2, 3, 8};
  uint64_t seed = 1000;
  for (const bool delta_mode : {false, true}) {
    for (const double loss : losses) {
      for (const bool burst : {false, true}) {
        for (const unsigned ts : ts_bits) {
          SimConfig config = SmallChannelConfig();
          config.seed = ++seed;
          config.timestamp_bits = ts;
          config.channel_loss_rate = loss;
          config.channel_corrupt_rate = loss / 2;
          config.channel_burst = burst;
          config.record_history = true;
          config.stop_after_cycles = 30;
          if (delta_mode) {
            config.delta_broadcast = true;
            config.delta_refresh_period = 3;  // keep refreshes inside tiny windows
          }
          BroadcastSim sim(config);
          const auto summary = sim.Run();
          ASSERT_TRUE(summary.ok()) << summary.status().ToString();
          const Status oracle = sim.VerifyOracle();
          EXPECT_TRUE(oracle.ok())
              << "seed " << config.seed << " loss " << loss << " burst " << burst << " ts " << ts
              << " delta " << delta_mode << ": " << oracle.ToString();
          EXPECT_EQ(summary->channel.frames_sent,
                    summary->channel.frames_dropped + summary->channel.frames_delivered);
        }
      }
    }
  }
  EXPECT_GE(seed - 1000, 20u);
}

// ---------------------------------------------------------------------------
// Concurrent engine under the channel
// ---------------------------------------------------------------------------

TEST(ConcurrentSimLossyTest, LosslessChannelMatchesDirectPathAcrossEngines) {
  SimConfig config = SmallChannelConfig();
  config.num_clients = 3;
  EXPECT_TRUE(CrossCheckEngines(config).ok());
}

TEST(ConcurrentSimLossyTest, LossyRunMatchesSequentialEngine) {
  for (const bool burst : {false, true}) {
    SimConfig config = SmallChannelConfig();
    config.num_clients = 3;
    config.channel_loss_rate = 0.1;
    config.channel_corrupt_rate = 0.05;
    config.channel_burst = burst;
    EXPECT_TRUE(CrossCheckEngines(config).ok()) << "burst " << burst;
  }
}

TEST(ConcurrentSimLossyTest, ChannelStatsMatchSequentialEngine) {
  SimConfig config = SmallChannelConfig();
  config.num_clients = 2;
  config.num_client_txns = 100000;
  config.channel_loss_rate = 0.15;
  config.channel_truncate_rate = 0.05;
  config.record_decisions = true;

  BroadcastSim des(config);
  const auto des_summary = des.Run();
  ASSERT_TRUE(des_summary.ok()) << des_summary.status().ToString();
  ConcurrentSim conc(config);
  const auto conc_summary = conc.Run();
  ASSERT_TRUE(conc_summary.ok()) << conc_summary.status().ToString();

  EXPECT_GT(conc_summary->channel.frames_dropped, 0u);
  EXPECT_TRUE(des_summary->channel == conc_summary->channel)
      << "per-client fault streams must be engine-independent";
}

TEST(ConcurrentSimLossyTest, ChannelWithDeltaBroadcastMatchesSequentialEngine) {
  // Each client thread feeds the control blocks it reassembles to its own
  // tracker, lossless or lossy, exactly as the DES's receivers do.
  for (const double loss : {0.0, 0.1}) {
    SimConfig config = SmallChannelConfig();
    config.num_clients = 3;
    config.delta_broadcast = true;
    config.delta_refresh_period = 4;
    config.channel_loss_rate = loss;
    const Status status = CrossCheckEngines(config);
    EXPECT_TRUE(status.ok()) << "loss " << loss << ": " << status.ToString();
  }
}

}  // namespace
}  // namespace bcc
