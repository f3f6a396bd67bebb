// Tests for the shared-memory concurrent broadcast engine: its cycle gate
// alone, seeded multi-thread stress runs (TSan-clean by construction of the
// epoch design) and commit/abort parity with the single-threaded
// BroadcastSim oracle.

#include "sim/concurrent_sim.h"

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "sim/broadcast_sim.h"
#include "sim/cycle_gate.h"

namespace bcc {
namespace {

// The gate driven the way ConcurrentSim drives it. The server writes plain
// ints only in its exclusive section; each client reads them, and writes its
// own slot, only in the phase. Every mismatch is counted, by the thread that
// sees it. Every 64th epoch one side is slow, so both the sleeping server
// and the clients that find the epoch already published are exercised.
void RunGate(uint32_t clients, uint64_t stop_epoch) {
  SCOPED_TRACE(testing::Message() << clients << " clients, stop at " << stop_epoch);
  CycleGate gate(clients);
  uint64_t published = 1;  // the epoch whose phase runs now
  bool stop = false;
  std::vector<uint64_t> slot(clients, 0);
  std::vector<uint64_t> client_mismatches(clients, 0);
  std::vector<uint64_t> phases_run(clients, 0);
  const auto slow = [] { std::this_thread::sleep_for(std::chrono::microseconds(50)); };

  std::vector<std::jthread> threads;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t phase = 1;; ++phase) {
        if (published != phase) ++client_mismatches[c];
        if (phase % 64 == 0 && phase / 64 % clients == c) slow();
        slot[c] = phase * clients + c;
        ++phases_run[c];
        gate.Arrive();
        gate.AwaitPublish(phase);
        if (stop) break;
      }
    });
  }
  uint64_t server_mismatches = 0;
  for (uint64_t phase = 1;; ++phase) {
    if (phase % 64 == 32) slow();  // clients arrive and sleep first
    gate.AwaitArrivals();
    for (uint32_t c = 0; c < clients; ++c) {
      if (slot[c] != phase * clients + c) ++server_mismatches;
    }
    stop = phase == stop_epoch;
    if (!stop) published = phase + 1;
    gate.Publish();
    if (stop) break;
  }
  threads.clear();  // join: a thread that missed the stop hangs here
  EXPECT_EQ(server_mismatches, 0u);
  for (uint32_t c = 0; c < clients; ++c) {
    EXPECT_EQ(client_mismatches[c], 0u) << "client " << c;
    EXPECT_EQ(phases_run[c], stop_epoch) << "client " << c;
  }
}

/// At least 10^4 epochs, stopping at a random one past that.
uint64_t RandomStopEpoch() {
  std::random_device seed;
  return 10'000 + std::uniform_int_distribution<uint64_t>(0, 2'000)(seed);
}

TEST(ConcurrentSimGateTest, OneClientSeesEveryEpochInOrder) { RunGate(1, RandomStopEpoch()); }

TEST(ConcurrentSimGateTest, TwoClientsSeeEveryEpochInOrder) { RunGate(2, RandomStopEpoch()); }

TEST(ConcurrentSimGateTest, EightClientsSeeEveryEpochInOrder) { RunGate(8, RandomStopEpoch()); }

TEST(ConcurrentSimGateTest, StopAtTheFirstEpochExitsEveryThread) {
  for (const uint32_t clients : {1u, 2u, 8u}) RunGate(clients, 1);
}

// A small, contended configuration: ~4 server commits per cycle over a
// 16-object database, several client threads reading concurrently.
SimConfig SmallConfig(uint64_t seed) {
  SimConfig config;
  config.algorithm = Algorithm::kFMatrix;
  config.num_objects = 16;
  config.object_size_bits = 256;
  config.client_txn_length = 3;
  config.server_txn_length = 4;
  config.server_txn_interval = 1500;
  config.mean_inter_op_delay = 512;
  config.mean_inter_txn_delay = 1024;
  config.num_clients = 4;
  config.seed = seed;
  config.stop_after_cycles = 40;
  config.num_client_txns = 100000;
  config.warmup_txns = 1;
  return config;
}

TEST(ConcurrentSimTest, RunsAndCompletesTransactions) {
  SimConfig config = SmallConfig(1);
  config.record_decisions = true;
  ConcurrentSim sim(config);
  const auto summary = sim.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->cycles, 40u);
  EXPECT_GT(summary->server_commits, 0u);
  EXPECT_GT(summary->completed_txns, 0u);
  EXPECT_EQ(summary->censored_txns, 0u);
  EXPECT_EQ(sim.decisions().size(), config.num_clients);
  uint64_t logged = 0;
  for (const auto& client_log : sim.decisions()) logged += client_log.size();
  EXPECT_EQ(logged, summary->completed_txns);
}

TEST(ConcurrentSimTest, MatchesSequentialOracleAcrossSeeds) {
  for (const uint64_t seed : {7ull, 1234ull, 987654321ull}) {
    EXPECT_EQ(CrossCheckEngines(SmallConfig(seed)), Status::OK()) << "seed " << seed;
  }
}

TEST(ConcurrentSimTest, MatchesSequentialOracleUnderContention) {
  // Heavier write traffic (a commit roughly every quarter cycle) forces
  // read-condition aborts; the engines must agree on every one of them.
  SimConfig config = SmallConfig(5);
  config.num_objects = 8;
  config.server_txn_interval = 400;
  config.client_txn_length = 4;
  config.num_clients = 6;
  config.stop_after_cycles = 60;
  ASSERT_EQ(CrossCheckEngines(config), Status::OK());

  config.record_decisions = true;
  ConcurrentSim sim(config);
  const auto summary = sim.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_GT(summary->total_restarts, 0u) << "config too mild to exercise aborts";
}

TEST(ConcurrentSimTest, MatchesSequentialOracleForRMatrix) {
  SimConfig config = SmallConfig(11);
  config.algorithm = Algorithm::kRMatrix;
  EXPECT_EQ(CrossCheckEngines(config), Status::OK());
}

TEST(ConcurrentSimTest, MatchesSequentialOracleOnMultiSpeedDisk) {
  // A multi-speed schedule exercises the slot-arithmetic mirror (several
  // appearances per cycle, next-cycle wraparound on the last slot).
  SimConfig config = SmallConfig(13);
  config.hot_set_size = 4;
  config.hot_broadcast_frequency = 3;
  config.client_hot_access_fraction = 0.75;
  config.server_hot_access_fraction = 0.75;
  EXPECT_EQ(CrossCheckEngines(config), Status::OK());
}

// One update client on a pooled scheme: both engines stage each cycle's
// server commits when it begins and fold its accepted uplinks first, so the
// DES and the concurrent engine make the same uplink decisions. (With two or
// more update clients the desk order within a phase is thread timing; see
// concurrent_sim.h.)
TEST(ConcurrentSimTest, MatchesSequentialOracleWithOneUplinkClient) {
  for (const uint64_t seed : {21ull, 4711ull, 90001ull}) {
    SimConfig config = SmallConfig(seed);
    config.num_clients = 1;
    config.server_txn_interval = 8000;  // milder contention: some uplinks pass
    config.stop_after_cycles = 80;
    config.client_update_fraction = 0.5;
    config.update_scheme = UpdateScheme::kOcc;
    config.update_workers = 1;
    EXPECT_EQ(CrossCheckEngines(config), Status::OK()) << "seed " << seed;

    config.record_decisions = true;
    ConcurrentSim sim(config);
    const auto summary = sim.Run();
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_GT(summary->client_update_commits, 0u) << "seed " << seed;
    EXPECT_GT(summary->client_update_rejects, 0u) << "seed " << seed;
  }
}

TEST(ConcurrentSimTest, UplinkRunStoppedOnTransactionCountCountsOnlyStagedCommits) {
  SimConfig config = SmallConfig(5);
  config.num_clients = 2;
  config.stop_after_cycles = 0;
  config.num_client_txns = 60;
  config.client_update_fraction = 0.5;
  config.update_scheme = UpdateScheme::kOcc;
  config.update_workers = 1;
  config.record_decisions = true;
  ConcurrentSim sim(config);
  const auto summary = sim.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_GE(summary->completed_txns, 60u);
  // The server drew the cycle after the last one while the clients ran the
  // last; those transactions were never staged, so they neither count nor
  // reach the log.
  const auto& staged = sim.server_decisions().server_commits;
  ASSERT_FALSE(staged.empty());
  EXPECT_LE(staged.back().cycle, summary->cycles);
  EXPECT_EQ(summary->server_commits, staged.size() + summary->client_update_commits);
}

TEST(ConcurrentSimTest, MatchesSequentialOracleWithDeltaBroadcast) {
  SimConfig config = SmallConfig(17);
  config.use_wire_codec = true;
  config.delta_broadcast = true;
  config.delta_refresh_period = 4;
  EXPECT_EQ(CrossCheckEngines(config), Status::OK());
}

TEST(ConcurrentSimTest, MatchesSequentialOracleWithChannelAndDelta) {
  SimConfig config = SmallConfig(19);
  config.use_wire_codec = true;
  config.delta_broadcast = true;
  config.delta_refresh_period = 4;
  config.channel_broadcast = true;
  config.channel_frame_bits = 256;
  config.channel_loss_rate = 0.05;
  EXPECT_EQ(CrossCheckEngines(config), Status::OK());
}

TEST(ConcurrentSimTest, MatchesSequentialOracleWithSparseCompaction) {
  // ts = 4 wraps every 16 cycles, so compaction every 4 cycles rewrites
  // stamps throughout the 40-cycle run.
  SimConfig config = SmallConfig(23);
  config.matrix_mode = MatrixMode::kSparse;
  config.use_wire_codec = true;
  config.timestamp_bits = 4;
  config.sparse_compaction_period = 4;
  EXPECT_EQ(CrossCheckEngines(config), Status::OK());

  config.record_decisions = true;
  BroadcastSim des(config);
  const auto summary = des.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_GT(summary->sparse_compaction_drops, 0u) << "compaction never dropped an entry";
}

TEST(ConcurrentSimTest, StressManyThreadsManyCycles) {
  SimConfig config = SmallConfig(99);
  config.num_clients = 8;
  config.stop_after_cycles = 150;
  config.server_txn_interval = 600;
  ConcurrentSim sim(config);
  const auto summary = sim.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->cycles, 150u);
  EXPECT_GT(summary->completed_txns, 100u);
}

TEST(ConcurrentSimTest, StopsOnTransactionCountWithoutCycleCutoff) {
  SimConfig config = SmallConfig(3);
  config.stop_after_cycles = 0;
  config.num_client_txns = 25;
  config.warmup_txns = 5;
  ConcurrentSim sim(config);
  const auto summary = sim.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  // The cutoff is evaluated at cycle boundaries, so the engine may finish a
  // handful of extra transactions but never an unbounded number.
  EXPECT_GE(summary->completed_txns, 25u);
}

TEST(ConcurrentSimTest, RejectsUnsupportedFeatures) {
  SimConfig cache_config = SmallConfig(1);
  cache_config.enable_cache = true;
  EXPECT_FALSE(ConcurrentSim(cache_config).Run().ok());

  SimConfig update_config = SmallConfig(1);
  update_config.client_update_fraction = 0.5;
  EXPECT_FALSE(ConcurrentSim(update_config).Run().ok()) << "uplinks need a pooled scheme";

  SimConfig no_cutoff = SmallConfig(1);
  no_cutoff.stop_after_cycles = 0;
  EXPECT_FALSE(CrossCheckEngines(no_cutoff).ok());
}

TEST(ConcurrentSimTest, RunIsSingleUse) {
  ConcurrentSim sim(SmallConfig(1));
  ASSERT_TRUE(sim.Run().ok());
  EXPECT_FALSE(sim.Run().ok());
}

}  // namespace
}  // namespace bcc
