// End-to-end integration audit: replay complete simulation runs through the
// paper's correctness oracles.
//
// Every committed client read-only transaction must have read exactly the
// committed values as of the beginning of the cycles it read in (currency),
// and the resulting global history must pass APPROX (mutual consistency);
// Datacycle runs must additionally be conflict serializable. This closes the
// loop between the protocol implementations (matrix read conditions driven
// by the simulator) and the abstract theory (Section 3.1 / Theorem 1).

#include <gtest/gtest.h>

#include <ostream>

#include "cc/approx.h"
#include "cc/conflict_serializability.h"
#include "sim/broadcast_sim.h"

namespace bcc {
namespace {

struct OracleCase {
  const char* name;
  Algorithm algorithm;
  uint32_t num_objects;
  uint32_t client_len;
  uint64_t server_interval;
  unsigned ts_bits;
  uint64_t seed;
};

// Print the case by name: gtest's default byte dump would embed the
// (address-randomised) `name` pointer in the discovered ctest test names.
void PrintTo(const OracleCase& oc, std::ostream* os) { *os << oc.name; }

SimConfig OracleConfig(const OracleCase& oc) {
  SimConfig c;
  c.algorithm = oc.algorithm;
  c.num_objects = oc.num_objects;
  c.object_size_bits = 256;
  c.client_txn_length = oc.client_len;
  c.server_txn_length = 4;
  c.server_txn_interval = oc.server_interval;
  c.mean_inter_op_delay = 1500;
  c.mean_inter_txn_delay = 3000;
  c.num_client_txns = 40;
  c.warmup_txns = 10;
  c.timestamp_bits = oc.ts_bits;
  c.seed = oc.seed;
  c.record_history = true;
  return c;
}

class SimOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(SimOracleTest, RunPassesConsistencyAudit) {
  BroadcastSim sim(OracleConfig(GetParam()));
  auto summary = sim.Run();
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ(sim.VerifyOracle(), Status::OK());
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, SimOracleTest,
    ::testing::Values(
        OracleCase{"fmatrix", Algorithm::kFMatrix, 12, 3, 20000, 8, 1},
        OracleCase{"fmatrix_hot", Algorithm::kFMatrix, 6, 4, 8000, 8, 2},
        OracleCase{"fmatrix_tiny_ts", Algorithm::kFMatrix, 10, 3, 15000, 2, 3},
        OracleCase{"fmatrix_no", Algorithm::kFMatrixNo, 12, 3, 20000, 8, 4},
        OracleCase{"rmatrix", Algorithm::kRMatrix, 12, 3, 20000, 8, 5},
        OracleCase{"rmatrix_hot", Algorithm::kRMatrix, 6, 4, 8000, 8, 6},
        OracleCase{"datacycle", Algorithm::kDatacycle, 12, 3, 20000, 8, 7},
        OracleCase{"datacycle_hot", Algorithm::kDatacycle, 8, 3, 10000, 8, 8}),
    [](const ::testing::TestParamInfo<OracleCase>& info) { return info.param.name; });

TEST(SimOracleTest, OracleHistoryStructure) {
  OracleCase oc{"x", Algorithm::kFMatrix, 10, 3, 20000, 8, 9};
  BroadcastSim sim(OracleConfig(oc));
  ASSERT_TRUE(sim.Run().ok());
  auto oracle = sim.BuildOracleHistory();
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_TRUE(oracle->Validate().ok());
  // All 40 client transactions committed and present.
  EXPECT_EQ(oracle->CommittedReadOnlyTxns().size(), 40u);
  // Server transactions appear and are all updates.
  EXPECT_FALSE(oracle->CommittedUpdateTxns().empty());
  for (TxnId t : oracle->CommittedUpdateTxns()) EXPECT_LT(t, kClientTxnIdBase);
  // Serial server execution: the update sub-history is trivially conflict
  // serializable.
  EXPECT_TRUE(IsConflictSerializable(oracle->UpdateSubHistory()));
}

TEST(SimOracleTest, GroupedSpectrumRunsStayConsistent) {
  // The n x g grouped read condition is strictly more conservative than
  // full F-Matrix, so grouped runs must pass the same audit.
  for (uint32_t groups : {2u, 4u, 6u}) {
    OracleCase oc{"grouped", Algorithm::kFMatrix, 12, 3, 15000, 8, 30 + groups};
    SimConfig config = OracleConfig(oc);
    config.num_groups = groups;
    BroadcastSim sim(config);
    ASSERT_TRUE(sim.Run().ok());
    EXPECT_EQ(sim.VerifyOracle(), Status::OK()) << "groups=" << groups;
  }
}

TEST(SimOracleTest, MultiSpeedCachedMixedRunStaysConsistent) {
  // Everything at once: multi-speed disk, skewed access, caching, client
  // updates, several clients — the audit must still hold.
  SimConfig c;
  c.algorithm = Algorithm::kFMatrix;
  c.num_objects = 16;
  c.object_size_bits = 256;
  c.client_txn_length = 3;
  c.server_txn_length = 4;
  c.server_txn_interval = 20000;
  c.mean_inter_op_delay = 1500;
  c.mean_inter_txn_delay = 3000;
  c.num_client_txns = 60;
  c.warmup_txns = 20;
  c.num_clients = 3;
  c.client_update_fraction = 0.2;
  c.hot_set_size = 5;
  c.hot_broadcast_frequency = 3;
  c.client_hot_access_fraction = 0.7;
  c.server_hot_access_fraction = 0.7;
  c.enable_cache = true;
  c.cache_currency_bound = 5'000'000;
  c.seed = 99;
  c.record_history = true;
  BroadcastSim sim(c);
  ASSERT_TRUE(sim.Run().ok());
  auto oracle = sim.BuildOracleHistory();
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  const ApproxResult approx = CheckApprox(*oracle);
  EXPECT_TRUE(approx.accepted) << approx.reason;
}

TEST(SimOracleTest, CachedRunsStayConsistent) {
  // The Section 3.3 extension must preserve mutual consistency even though
  // cached reads observe old cycles.
  for (Algorithm a : {Algorithm::kFMatrix, Algorithm::kRMatrix}) {
    OracleCase oc{"cache", a, 8, 3, 15000, 8, 10};
    SimConfig config = OracleConfig(oc);
    config.enable_cache = true;
    config.cache_currency_bound = 30'000'000;
    BroadcastSim sim(config);
    ASSERT_TRUE(sim.Run().ok());
    auto oracle = sim.BuildOracleHistory();
    ASSERT_TRUE(oracle.ok());
    const ApproxResult approx = CheckApprox(*oracle);
    EXPECT_TRUE(approx.accepted) << AlgorithmName(a) << ": " << approx.reason;
  }
}

}  // namespace
}  // namespace bcc
