// Property suite for the parallel update engine: across seeds, every
// concurrent OCC execution must be provably serializable by the exact src/cc
// checkers, and folding the commit order into the broadcast-side manager
// must be bit-identical to the sequential ServerTxnManager oracle executing
// the same order.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cc/conflict_serializability.h"
#include "cc/update_consistency.h"
#include "cc/view_serializability.h"
#include "common/rng.h"
#include "server/exec/txn_processor.h"
#include "server/mc_overlay.h"
#include "server/txn_manager.h"
#include "server/validator.h"

namespace bcc {
namespace {

constexpr uint64_t kNumSeeds = 25;

ServerTxn RandomTxn(Rng& rng, TxnId id, uint32_t num_objects) {
  ServerTxn t;
  t.id = id;
  const uint32_t num_reads = static_cast<uint32_t>(rng.NextInt(0, 3));
  const uint32_t num_writes = static_cast<uint32_t>(rng.NextInt(0, 2));
  t.read_set = rng.SampleWithoutReplacement(num_objects, num_reads);
  t.write_set = rng.SampleWithoutReplacement(num_objects, num_writes);
  return t;
}

TEST(TxnProcessorPropertyTest, AllSchemesSerializableAndBitIdenticalToOracle) {
  constexpr uint32_t kNumObjects = 12;
  constexpr uint32_t kBatches = 3;
  constexpr uint32_t kTxnsPerBatch = 8;

  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919);
    TxnProcessor proc(kNumObjects, UpdateScheme::kOcc, /*num_workers=*/4);
    ServerTxnManager folded(kNumObjects);  // cycle-fused ApplyCommitBatch path
    TxnManagerOptions oracle_options;
    oracle_options.batch_commit_maintenance = false;
    ServerTxnManager oracle(kNumObjects, oracle_options);

    std::vector<CommittedServerTxn> all;
    TxnId next_id = 1;
    for (uint32_t batch = 0; batch < kBatches; ++batch) {
      std::vector<ServerTxn> txns;
      for (uint32_t i = 0; i < kTxnsPerBatch; ++i) {
        txns.push_back(RandomTxn(rng, next_id++, kNumObjects));
      }
      const auto committed = proc.ExecuteBatch(txns);
      ASSERT_EQ(committed.size(), txns.size());
      const Cycle cycle = batch + 1;
      FoldIntoManager(committed, folded, cycle);
      for (const CommittedServerTxn& c : committed) oracle.ExecuteAndCommit(c.txn, cycle);
      all.insert(all.end(), committed.begin(), committed.end());
    }

    // Exact oracle: every read observation matches the serial replay of
    // the commit order (view equivalence to that serial execution).
    const Status verdict = VerifySerializable(kNumObjects, all);
    ASSERT_TRUE(verdict.ok()) << verdict.ToString();

    // The real interleaving (from per-operation sequence numbers) must be
    // conflict serializable.
    const History interleaved = BuildInterleavedHistory(all);
    ASSERT_TRUE(interleaved.Validate().ok());
    ASSERT_TRUE(IsConflictSerializable(interleaved));

    // F-Matrix and store (with its MC stamps) must be bit-identical to
    // the sequential manager fed the same committed order.
    ASSERT_TRUE(folded.f_matrix() == oracle.f_matrix());
    ASSERT_EQ(folded.store().committed(), oracle.store().committed());
    ASSERT_EQ(folded.num_committed(), kBatches * kTxnsPerBatch);
  }
}

// Small configurations stay under kMaxExactViewTxns committed updates, so
// the exponential checkers (view serializability + Theorem 3 legality) can
// vet the histories exactly.
TEST(TxnProcessorPropertyTest, SmallHistoriesPassExactViewAndLegalityCheckers) {
  constexpr uint32_t kNumObjects = 6;
  constexpr uint32_t kNumTxns = 7;

  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 104729);
    TxnProcessor proc(kNumObjects, UpdateScheme::kOcc, /*num_workers=*/4);
    std::vector<ServerTxn> txns;
    for (TxnId id = 1; id <= kNumTxns; ++id) {
      txns.push_back(RandomTxn(rng, id, kNumObjects));
    }
    const auto committed = proc.ExecuteBatch(txns);
    ASSERT_EQ(committed.size(), txns.size());

    const History history = BuildInterleavedHistory(committed);
    ASSERT_TRUE(history.Validate().ok());
    ASSERT_TRUE(history.ValidateAppendixAForm().ok());

    const auto view = IsViewSerializable(history);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    ASSERT_TRUE(*view);

    const auto legality = CheckLegality(history);
    ASSERT_TRUE(legality.ok()) << legality.status().ToString();
    ASSERT_TRUE(legality->legal) << legality->reason;
  }
}

// Mixed read/update clients through the mid-cycle MC-vector protocol: per
// cycle, server transactions and uplink requests arrive in a random event
// order. Server transactions stage their MC effects into the overlay; each
// uplink validates against the merged (manager + overlay) view and, if
// accepted, joins the serial prefix of the fold. Two oracles vet the run:
//
//  * Decision oracle: an eager sequential manager executes the same event
//    order directly (server commits apply immediately, uplinks validate
//    through a direct-mode validator). Every uplink's commit/abort decision
//    must match — the merged overlay view is exactly the eager MC vector.
//  * State oracle: a sequential manager fed the fold order (accepted uplinks
//    in acceptance order, then the pooled batch in serialization order) must
//    be bit-identical to the folded manager in F-Matrix, MC vector, store.
TEST(TxnProcessorPropertyTest, MixedClientsMatchDecisionAndStateOracles) {
  constexpr uint32_t kNumObjects = 10;
  constexpr uint32_t kCycles = 4;
  constexpr uint32_t kServerPerCycle = 5;
  constexpr uint32_t kUplinksPerCycle = 4;
  constexpr TxnId kUplinkIdBase = 1u << 21;

  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 6271);
    TxnProcessor proc(kNumObjects, UpdateScheme::kOcc, /*num_workers=*/4);
    ServerTxnManager folded(kNumObjects);
    TxnManagerOptions eager_options;
    eager_options.batch_commit_maintenance = false;
    ServerTxnManager eager(kNumObjects, eager_options);
    ServerTxnManager oracle(kNumObjects, eager_options);

    McOverlay overlay(kNumObjects);
    std::vector<ServerTxn> pending_uplinks;
    UpdateValidator staged_validator(&folded);
    staged_validator.AttachStagedMode(
        &overlay, [&pending_uplinks](ServerTxn&& txn) { pending_uplinks.push_back(std::move(txn)); });
    UpdateValidator direct_validator(&eager);

    std::vector<CommittedServerTxn> all;
    std::vector<ServerTxn> pending_server;
    TxnId next_server_id = 1;
    TxnId next_uplink_id = kUplinkIdBase;
    uint64_t accepts = 0, rejects = 0;

    for (Cycle cycle = 1; cycle <= kCycles; ++cycle) {
      uint32_t servers_left = kServerPerCycle;
      uint32_t uplinks_left = kUplinksPerCycle;
      while (servers_left + uplinks_left > 0) {
        const bool is_uplink =
            rng.NextInt(1, servers_left + uplinks_left) <= static_cast<int64_t>(uplinks_left);
        if (!is_uplink) {
          --servers_left;
          const ServerTxn txn = RandomTxn(rng, next_server_id++, kNumObjects);
          overlay.Stage(txn.write_set, cycle);
          pending_server.push_back(txn);
          eager.ExecuteAndCommit(txn, cycle);
          continue;
        }
        --uplinks_left;
        ClientUpdateRequest req;
        req.id = next_uplink_id++;
        // Reads observe the state at the beginning of the read cycle;
        // sometimes a cycle old, so overwrites force genuine rejections.
        const Cycle read_cycle =
            cycle > 1 ? cycle - static_cast<Cycle>(rng.NextInt(0, 1)) : cycle;
        for (ObjectId ob :
             rng.SampleWithoutReplacement(kNumObjects, static_cast<uint32_t>(rng.NextInt(1, 3)))) {
          req.reads.push_back({ob, read_cycle});
        }
        req.writes = rng.SampleWithoutReplacement(kNumObjects, 2);
        const bool staged_ok = staged_validator.ValidateAndCommit(req, cycle).ok();
        const bool oracle_ok = direct_validator.ValidateAndCommit(req, cycle).ok();
        ASSERT_EQ(staged_ok, oracle_ok)
            << "uplink " << req.id << " decision diverged at cycle " << cycle;
        staged_ok ? ++accepts : ++rejects;
      }

      // The fold: accepted uplinks first (serial, acceptance order), then
      // the pooled server batch; the state oracle replays the same order.
      const auto committed_uplinks = proc.ExecuteSerial(pending_uplinks);
      FoldIntoManager(committed_uplinks, folded, cycle);
      for (const CommittedServerTxn& c : committed_uplinks) oracle.ExecuteAndCommit(c.txn, cycle);
      all.insert(all.end(), committed_uplinks.begin(), committed_uplinks.end());
      pending_uplinks.clear();

      const auto committed_servers = proc.ExecuteBatch(pending_server);
      ASSERT_EQ(committed_servers.size(), pending_server.size());
      FoldIntoManager(committed_servers, folded, cycle);
      for (const CommittedServerTxn& c : committed_servers) oracle.ExecuteAndCommit(c.txn, cycle);
      all.insert(all.end(), committed_servers.begin(), committed_servers.end());
      pending_server.clear();
      overlay.Clear();
    }

    // The workload must exercise both outcomes across the seed sweep; any
    // individual seed needs at least one accept to make the fold real.
    ASSERT_GT(accepts, 0u);

    const Status verdict = VerifySerializable(kNumObjects, all);
    ASSERT_TRUE(verdict.ok()) << verdict.ToString();

    ASSERT_TRUE(folded.f_matrix() == oracle.f_matrix());
    ASSERT_EQ(folded.store().committed(), oracle.store().committed());
    ASSERT_EQ(folded.num_committed(), kCycles * kServerPerCycle + accepts);
    // The eager decision-oracle manager saw the same commits per cycle (in
    // event order), so its MC stamps agree even though its commit order
    // differs within a cycle.
    for (ObjectId i = 0; i < kNumObjects; ++i) {
      ASSERT_EQ(folded.store().Committed(i).cycle, eager.store().Committed(i).cycle) << i;
    }
    ASSERT_EQ(eager.num_committed(), folded.num_committed());
  }
}

// Pooled-apply fold: ApplyCommitBatch sharded across the pool's workers by
// column partition must be bit-identical to the serial fold for every batch.
TEST(TxnProcessorPropertyTest, ParallelFoldBitIdenticalToSerialFold) {
  constexpr uint32_t kNumObjects = 16;
  constexpr uint32_t kBatches = 6;
  constexpr uint32_t kTxnsPerBatch = 9;

  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 31337 + 17);
    TxnProcessor proc(kNumObjects, UpdateScheme::kOcc, /*num_workers=*/4);
    ServerTxnManager parallel_mgr(kNumObjects);
    ServerTxnManager serial_mgr(kNumObjects);
    parallel_mgr.SetParallelFold(
        [&proc](uint32_t shards, const std::function<void(uint32_t)>& body) {
          proc.RunShards(shards, body);
        },
        /*num_shards=*/4);

    TxnId next_id = 1;
    for (uint32_t batch = 0; batch < kBatches; ++batch) {
      std::vector<ServerTxn> txns;
      for (uint32_t i = 0; i < kTxnsPerBatch; ++i) {
        txns.push_back(RandomTxn(rng, next_id++, kNumObjects));
      }
      const auto committed = proc.ExecuteBatch(txns);
      const Cycle cycle = batch + 1;
      FoldIntoManager(committed, parallel_mgr, cycle);
      FoldIntoManager(committed, serial_mgr, cycle);
    }

    ASSERT_TRUE(parallel_mgr.f_matrix() == serial_mgr.f_matrix());
    ASSERT_EQ(parallel_mgr.store().committed(), serial_mgr.store().committed());
    ASSERT_EQ(parallel_mgr.num_committed(), serial_mgr.num_committed());
  }
}

}  // namespace
}  // namespace bcc
