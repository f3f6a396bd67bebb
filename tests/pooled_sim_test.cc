// End-to-end wiring of the parallel update engine into both simulation
// engines: with update_scheme = occ, each cycle's server transactions run
// on the thread-pooled TxnProcessor and their serialization order is folded
// at the cycle boundary. The oracle audit (record_history) then checks the
// same currency/consistency invariants as the sequential path.

#include <gtest/gtest.h>

#include <tuple>

#include "sim/broadcast_sim.h"
#include "sim/concurrent_sim.h"

namespace bcc {
namespace {

SimConfig PooledConfig(uint64_t seed = 42) {
  SimConfig c;
  c.algorithm = Algorithm::kFMatrix;
  c.num_objects = 20;
  c.object_size_bits = 512;
  c.client_txn_length = 3;
  c.server_txn_length = 4;
  c.server_txn_interval = 40000;
  c.mean_inter_op_delay = 2000;
  c.mean_inter_txn_delay = 4000;
  c.num_client_txns = 60;
  c.warmup_txns = 20;
  c.seed = seed;
  c.update_scheme = UpdateScheme::kOcc;
  c.update_workers = 2;
  return c;
}

TEST(PooledSimTest, DesRunsToCompletionUnderEveryScheme) {
  BroadcastSim sim(PooledConfig());
  auto s = sim.Run();
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(s->total_txns, 60u);
  EXPECT_GT(s->server_commits, 0u);
  // Every staged server transaction was folded into the manager.
  EXPECT_EQ(sim.manager().num_committed(), s->server_commits);
}

TEST(PooledSimTest, DesOracleAuditPassesUnderEveryScheme) {
  SimConfig config = PooledConfig();
  config.record_history = true;
  config.num_client_txns = 40;
  config.warmup_txns = 10;
  BroadcastSim sim(config);
  ASSERT_TRUE(sim.Run().ok());
  const Status audit = sim.VerifyOracle();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(PooledSimTest, PoolInterleavingNeverLosesOrDuplicatesCommits) {
  // The pool's interleavings (and hence the serialization order within a
  // batch) may vary between runs, but the *set* of committed transactions is
  // the deterministic DES commit stream: every staged transaction retries
  // until it commits, and the fold happens at the same cycle boundary.
  auto run = [&](uint64_t seed) {
    BroadcastSim sim(PooledConfig(seed));
    auto s = sim.Run();
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(sim.manager().num_committed(), s->server_commits);
    return s->server_commits;
  };
  EXPECT_EQ(run(7), run(7));
}

TEST(PooledSimTest, ConcurrentEngineRunsUnderEveryScheme) {
  SimConfig config = PooledConfig();
  config.stop_after_cycles = 30;
  ConcurrentSim sim(config);
  auto s = sim.Run();
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(s->cycles, 30u);
  EXPECT_GT(s->server_commits, 0u);
  EXPECT_EQ(sim.manager().num_committed(), s->server_commits);
}

TEST(PooledSimTest, ValidationAcceptsPooledClientUpdates) {
  SimConfig config = PooledConfig();
  config.client_update_fraction = 0.5;
  config.client_update_writes = 2;
  EXPECT_TRUE(config.Validate().ok());
  config.update_workers = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

SimConfig MixedClientConfig(uint64_t seed = 42) {
  SimConfig c = PooledConfig(seed);
  c.num_clients = 3;
  c.client_update_fraction = 0.4;
  c.client_update_writes = 2;
  return c;
}

TEST(PooledSimTest, DesMixedClientsRunToCompletionUnderEveryScheme) {
  BroadcastSim sim(MixedClientConfig());
  auto s = sim.Run();
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(s->total_txns, 60u);
  EXPECT_GT(s->client_update_commits + s->client_update_rejects, 0u);
  // Accepted uplinks fold into the manager alongside the server stream.
  EXPECT_EQ(sim.manager().num_committed(), s->server_commits);
}

TEST(PooledSimTest, DesMixedClientsOracleAuditPassesUnderEveryScheme) {
  SimConfig config = MixedClientConfig();
  config.record_history = true;
  config.num_client_txns = 40;
  config.warmup_txns = 10;
  BroadcastSim sim(config);
  ASSERT_TRUE(sim.Run().ok());
  const Status audit = sim.VerifyOracle();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(PooledSimTest, DesMixedClientsAreDeterministic) {
  // Uplink validation happens at event time against the overlay-merged MC
  // view; the decision stream must be a pure function of the config even
  // though the pooled batch's interleaving is not.
  auto run = [&](uint64_t seed) {
    BroadcastSim sim(MixedClientConfig(seed));
    auto s = sim.Run();
    EXPECT_TRUE(s.ok());
    return std::tuple(s->server_commits, s->client_update_commits,
                      s->client_update_rejects);
  };
  EXPECT_EQ(run(11), run(11));
}

TEST(PooledSimTest, ConcurrentEngineMixedClientsRunUnderEveryScheme) {
  SimConfig config = MixedClientConfig();
  config.stop_after_cycles = 30;
  ConcurrentSim sim(config);
  auto s = sim.Run();
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_EQ(s->cycles, 30u);
  EXPECT_GT(s->completed_txns, 0u);
  EXPECT_GT(s->client_update_commits + s->client_update_rejects, 0u);
  EXPECT_EQ(sim.manager().num_committed(), s->server_commits);
}

TEST(PooledSimTest, ConcurrentEngineRejectsSequentialUplinks) {
  SimConfig config = MixedClientConfig();
  config.update_scheme = UpdateScheme::kSequential;
  config.update_workers = 0;
  config.stop_after_cycles = 10;
  ConcurrentSim sim(config);
  EXPECT_EQ(sim.Run().status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace bcc
