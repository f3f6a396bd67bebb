#include "client/read_txn.h"

#include <gtest/gtest.h>

#include "client/cache.h"
#include "common/rng.h"
#include "server/broadcast_server.h"

namespace bcc {
namespace {

// Test fixture driving a tiny server and taking snapshots by hand.
class ReadTxnTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kObjects = 5;

  ReadTxnTest()
      : mgr_(kObjects),
        server_(kObjects, ComputeGeometry(Algorithm::kFMatrix, kObjects, 100, 8)) {}

  const CycleSnapshot& Snap(Cycle c) {
    server_.BeginCycle(c, c * 1000, mgr_);
    return server_.snapshot();
  }

  void Commit(TxnId id, std::vector<ObjectId> reads, std::vector<ObjectId> writes, Cycle c) {
    mgr_.ExecuteAndCommit(ServerTxn{id, std::move(reads), std::move(writes)}, c);
  }

  ServerTxnManager mgr_;
  BroadcastServer server_;
};

TEST_F(ReadTxnTest, FirstReadAlwaysSucceeds) {
  for (Algorithm a : kAllAlgorithms) {
    ReadOnlyTxnProtocol p(a);
    auto v = p.Read(Snap(1), 0);
    ASSERT_TRUE(v.ok()) << AlgorithmName(a);
    EXPECT_EQ(v->writer, kInitTxn);
    EXPECT_EQ(p.first_read_cycle(), 1u);
  }
}

TEST_F(ReadTxnTest, ReadsObserveBeginningOfCycleValues) {
  Commit(1, {}, {2}, /*cycle=*/1);
  ReadOnlyTxnProtocol p(Algorithm::kFMatrix);
  auto v = p.Read(Snap(2), 2);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->writer, 1u);
  EXPECT_EQ(v->cycle, 1u);
}

TEST_F(ReadTxnTest, DatacycleAbortsWhenAnyReadOverwritten) {
  ReadOnlyTxnProtocol p(Algorithm::kDatacycle);
  ASSERT_TRUE(p.Read(Snap(1), 0).ok());
  Commit(1, {}, {0}, 1);  // overwrites what we read
  // Any subsequent read aborts, even of an untouched object.
  EXPECT_TRUE(p.Read(Snap(2), 3).status().IsAborted());
}

TEST_F(ReadTxnTest, RMatrixSurvivesWhenTargetUnchangedSinceFirstRead) {
  ReadOnlyTxnProtocol r(Algorithm::kRMatrix);
  ReadOnlyTxnProtocol d(Algorithm::kDatacycle);
  ASSERT_TRUE(r.Read(Snap(1), 0).ok());
  ASSERT_TRUE(d.Read(Snap(1), 0).ok());
  Commit(1, {}, {0}, 1);
  // ob3 untouched since cycle 1 (the first read): R-Matrix proceeds,
  // Datacycle aborts.
  const CycleSnapshot& snap = Snap(2);
  EXPECT_TRUE(r.Read(snap, 3).ok());
  EXPECT_TRUE(d.Read(snap, 3).status().IsAborted());
}

TEST_F(ReadTxnTest, RMatrixAbortsWhenTargetAlsoChanged) {
  ReadOnlyTxnProtocol r(Algorithm::kRMatrix);
  ASSERT_TRUE(r.Read(Snap(1), 0).ok());
  Commit(1, {}, {0}, 1);
  Commit(2, {}, {3}, 1);
  EXPECT_TRUE(r.Read(Snap(2), 3).status().IsAborted());
}

TEST_F(ReadTxnTest, FMatrixIgnoresIndependentOverwrites) {
  // F-Matrix only aborts when the value being read *depends on* a
  // transaction that overwrote a previous read — an independent blind write
  // to the old object is harmless.
  ReadOnlyTxnProtocol f(Algorithm::kFMatrix);
  ASSERT_TRUE(f.Read(Snap(1), 0).ok());
  Commit(1, {}, {0}, 1);  // independent overwrite of ob0
  Commit(2, {}, {3}, 1);  // independent write to ob3
  EXPECT_TRUE(f.Read(Snap(2), 3).ok()) << "ob3's value does not depend on the ob0 writer";
}

TEST_F(ReadTxnTest, FMatrixAbortsOnDependentValue) {
  ReadOnlyTxnProtocol f(Algorithm::kFMatrix);
  ASSERT_TRUE(f.Read(Snap(1), 0).ok());
  // t1 overwrites ob0 and t2 reads ob0 then writes ob3: ob3's new value
  // depends on the overwriting transaction.
  Commit(1, {}, {0}, 1);
  Commit(2, {0}, {3}, 1);
  EXPECT_TRUE(f.Read(Snap(2), 3).status().IsAborted());
}

TEST_F(ReadTxnTest, TheoremOrderingDatacycleImpliesRMatrixImpliesFMatrix) {
  // Pointwise containment: on identical snapshots and read sequences, if
  // Datacycle's condition passes then R-Matrix's does, and if R-Matrix's
  // passes then F-Matrix's does (C(i,j) <= MC(i) and C(i,j) <= MC(j)).
  Rng rng(71);
  for (int trial = 0; trial < 300; ++trial) {
    ServerTxnManager mgr(kObjects);
    BroadcastServer server(kObjects, ComputeGeometry(Algorithm::kFMatrix, kObjects, 100, 8));
    ReadOnlyTxnProtocol f(Algorithm::kFMatrix);
    ReadOnlyTxnProtocol r(Algorithm::kRMatrix);
    ReadOnlyTxnProtocol d(Algorithm::kDatacycle);
    TxnId next_txn = 1;
    Cycle cycle = 1;
    bool r_alive = true, d_alive = true;
    for (int step = 0; step < 10; ++step) {
      // Random server activity.
      for (uint64_t k = rng.NextBounded(3); k > 0; --k) {
        const auto reads =
            rng.SampleWithoutReplacement(kObjects, static_cast<uint32_t>(rng.NextBounded(3)));
        const auto writes = rng.SampleWithoutReplacement(
            kObjects, 1 + static_cast<uint32_t>(rng.NextBounded(2)));
        mgr.ExecuteAndCommit(ServerTxn{next_txn++, reads, writes}, cycle);
      }
      ++cycle;
      server.BeginCycle(cycle, cycle * 1000, mgr);
      const ObjectId ob = static_cast<ObjectId>(rng.NextBounded(kObjects));
      const bool f_ok = f.Read(server.snapshot(), ob).ok();
      const bool r_ok = r_alive && r.Read(server.snapshot(), ob).ok();
      const bool d_ok = d_alive && d.Read(server.snapshot(), ob).ok();
      if (d_ok) {
        EXPECT_TRUE(r_ok) << "Datacycle passed but R-Matrix failed";
      }
      if (r_ok) {
        EXPECT_TRUE(f_ok) << "R-Matrix passed but F-Matrix failed";
      }
      if (!f_ok) break;  // keep the three read sets identical
      r_alive = r_ok;
      d_alive = d_ok;
      if (!r_ok || !d_ok) break;
    }
  }
}

TEST_F(ReadTxnTest, WireCodecSpuriousAbortsOnlyTightenConditions) {
  // With a tiny 2-bit codec, ancient entries alias forward; the protocol may
  // abort spuriously but must never accept a read the exact protocol would
  // reject.
  Rng rng(73);
  for (int trial = 0; trial < 200; ++trial) {
    ServerTxnManager mgr(kObjects);
    BroadcastServer server(kObjects, ComputeGeometry(Algorithm::kFMatrix, kObjects, 100, 2));
    ReadOnlyTxnProtocol exact(Algorithm::kFMatrix);
    ReadOnlyTxnProtocol coded(Algorithm::kFMatrix, CycleStampCodec(2));
    TxnId next_txn = 1;
    Cycle cycle = 1;
    for (int step = 0; step < 8; ++step) {
      if (rng.NextBernoulli(0.7)) {
        const auto writes = rng.SampleWithoutReplacement(
            kObjects, 1 + static_cast<uint32_t>(rng.NextBounded(2)));
        const auto reads =
            rng.SampleWithoutReplacement(kObjects, static_cast<uint32_t>(rng.NextBounded(3)));
        mgr.ExecuteAndCommit(ServerTxn{next_txn++, reads, writes}, cycle);
      }
      cycle += 1 + rng.NextBounded(5);  // jump cycles to force aliasing
      server.BeginCycle(cycle, cycle * 1000, mgr);
      const ObjectId ob = static_cast<ObjectId>(rng.NextBounded(kObjects));
      const bool exact_ok = exact.Read(server.snapshot(), ob).ok();
      const bool coded_ok = coded.Read(server.snapshot(), ob).ok();
      if (coded_ok) {
        EXPECT_TRUE(exact_ok) << "codec accepted a read the exact check rejects";
      }
      if (!exact_ok || !coded_ok) break;
    }
  }
}

TEST_F(ReadTxnTest, ResetClearsState) {
  ReadOnlyTxnProtocol p(Algorithm::kFMatrix);
  ASSERT_TRUE(p.Read(Snap(1), 0).ok());
  EXPECT_EQ(p.reads().size(), 1u);
  p.Reset();
  EXPECT_TRUE(p.reads().empty());
  EXPECT_EQ(p.first_read_cycle(), 0u);
  EXPECT_TRUE(p.values().empty());
}

TEST_F(ReadTxnTest, CommitReturnsReadCount) {
  ReadOnlyTxnProtocol p(Algorithm::kRMatrix);
  ASSERT_TRUE(p.Read(Snap(1), 0).ok());
  ASSERT_TRUE(p.Read(Snap(1), 1).ok());
  EXPECT_EQ(p.Commit(), 2u);
}

TEST_F(ReadTxnTest, FMatrixAbortReportsFirstFailingReadInRecordOrder) {
  // Early-exit regression for the vectorized read-condition scan: when
  // several recorded reads fail against the same column, the abort must be
  // attributed to the FIRST failing read in record order — the scan may not
  // run to the end and report a later conflict.
  ReadOnlyTxnProtocol p(Algorithm::kFMatrix);
  const CycleSnapshot& first = Snap(1);
  ASSERT_TRUE(p.Read(first, 0).ok());
  ASSERT_TRUE(p.Read(first, 1).ok());
  ASSERT_TRUE(p.Read(first, 2).ok());
  // Three same-cycle commits make ob4's value depend on overwrites of ob1
  // AND ob2 (reads 1 and 2 both fail); ob0 stays clean (read 0 passes).
  Commit(1, {}, {1}, 1);
  Commit(2, {}, {2}, 1);
  Commit(3, {1, 2}, {4}, 1);
  EXPECT_TRUE(p.Read(Snap(2), 4).status().IsAborted());
  EXPECT_EQ(p.last_abort().cause, AbortCause::kControlConflict);
  EXPECT_EQ(p.last_abort().ob_i, 1u) << "must be the first failing read, not a later one";
  EXPECT_EQ(p.last_abort().ob_j, 4u);
  EXPECT_EQ(p.last_abort().read_cycle, 1u);
  EXPECT_EQ(p.last_abort().c_ij, 1u);
}

TEST_F(ReadTxnTest, SameCycleReadsAlwaysConsistent) {
  // All reads within one cycle observe one atomic snapshot: no condition can
  // fail (matrix entries are < the current cycle).
  Commit(1, {}, {0, 1, 2, 3, 4}, 1);
  for (Algorithm a : kAllAlgorithms) {
    ReadOnlyTxnProtocol p(a);
    const CycleSnapshot& snap = Snap(2);
    for (ObjectId ob = 0; ob < kObjects; ++ob) {
      EXPECT_TRUE(p.Read(snap, ob).ok()) << AlgorithmName(a) << " ob" << ob;
    }
  }
}

// The reduced-vector conditions, driven through the protocol the clients run
// over hand-built on-air states: MC(i) is values[i].cycle.

/// The on-air state of broadcast cycle `cycle`, object i last written in
/// cycle stamps[i].
CycleSnapshot OnAir(Cycle cycle, const std::vector<Cycle>& stamps) {
  CycleSnapshot snap;
  snap.cycle = cycle;
  snap.values = ObjectValues(static_cast<uint32_t>(stamps.size()));
  for (ObjectId i = 0; i < stamps.size(); ++i) {
    snap.values.Set(i, ObjectVersion{i + 1u, kInitTxn, stamps[i]});
  }
  return snap;
}

TEST(DatacycleConditionTest, RejectsAnyOverwrittenRead) {
  // ob1 read in cycle 5, then written by a commit of cycle 5: stale.
  ReadOnlyTxnProtocol stale(Algorithm::kDatacycle);
  ASSERT_TRUE(stale.Read(OnAir(5, {0, 0, 0}), 1).ok());
  EXPECT_FALSE(stale.Read(OnAir(6, {0, 5, 0}), 2).ok());
  EXPECT_EQ(stale.last_abort().cause, AbortCause::kMcConflict);
  EXPECT_EQ(stale.last_abort().ob_i, 1u);
  EXPECT_EQ(stale.last_abort().c_ij, 5u);
  // ob1 read in cycle 6, after that write committed: fine.
  ReadOnlyTxnProtocol fresh(Algorithm::kDatacycle);
  ASSERT_TRUE(fresh.Read(OnAir(6, {0, 5, 0}), 1).ok());
  EXPECT_TRUE(fresh.Read(OnAir(7, {0, 5, 0}), 2).ok());
  // An overwrite of an object not read leaves the reads alone.
  ReadOnlyTxnProtocol unrelated(Algorithm::kDatacycle);
  ASSERT_TRUE(unrelated.Read(OnAir(1, {0, 0, 0}), 0).ok());
  EXPECT_TRUE(unrelated.Read(OnAir(6, {0, 5, 0}), 2).ok());
}

TEST(DatacycleConditionTest, VacuouslyTrueWithNoReads) {
  ReadOnlyTxnProtocol p(Algorithm::kDatacycle);
  EXPECT_TRUE(p.Read(OnAir(3, {2, 2}), 0).ok());
}

TEST(RMatrixConditionTest, FirstDisjunctMatchesDatacycle) {
  // Nothing read was overwritten: accept regardless of the target's state.
  ReadOnlyTxnProtocol p(Algorithm::kRMatrix);
  ASSERT_TRUE(p.Read(OnAir(4, {0, 0, 0}), 0).ok());
  ASSERT_TRUE(p.Read(OnAir(4, {0, 0, 0}), 1).ok());
  EXPECT_TRUE(p.Read(OnAir(10, {0, 0, 9}), 2).ok());
}

TEST(RMatrixConditionTest, SecondDisjunctSavesStaleReads) {
  // ob0 was overwritten after the client read it (cycle 9 >= 4), but ob1 is
  // unchanged since the transaction's first read (MC(1) = 0 < 4): R-Matrix
  // accepts where Datacycle aborts.
  const CycleSnapshot first = OnAir(4, {0, 0, 0});
  const CycleSnapshot later = OnAir(10, {9, 0, 0});
  ReadOnlyTxnProtocol datacycle(Algorithm::kDatacycle);
  ReadOnlyTxnProtocol rmatrix(Algorithm::kRMatrix);
  ASSERT_TRUE(datacycle.Read(first, 0).ok());
  ASSERT_TRUE(rmatrix.Read(first, 0).ok());
  EXPECT_FALSE(datacycle.Read(later, 1).ok());
  EXPECT_TRUE(rmatrix.Read(later, 1).ok());
}

TEST(RMatrixConditionTest, RejectsWhenBothDisjunctsFail) {
  // ob1 also changed (cycle 9 >= first read 4): reject.
  ReadOnlyTxnProtocol p(Algorithm::kRMatrix);
  ASSERT_TRUE(p.Read(OnAir(4, {0, 0, 0}), 0).ok());
  EXPECT_FALSE(p.Read(OnAir(10, {9, 9, 0}), 1).ok());
  EXPECT_EQ(p.last_abort().cause, AbortCause::kMcConflict);
  EXPECT_EQ(p.last_abort().ob_j, 1u);
  EXPECT_EQ(p.last_abort().read_cycle, 4u);
  EXPECT_EQ(p.last_abort().c_ij, 9u);
}

TEST(RMatrixConditionTest, WeakerThanDatacyclePointwise) {
  // Property: whenever Datacycle accepts a read, R-Matrix accepts it too
  // (same reads so far, same on-air state).
  Rng rng(13);
  const uint32_t n = 5;
  for (int trial = 0; trial < 2000; ++trial) {
    ReadOnlyTxnProtocol datacycle(Algorithm::kDatacycle);
    ReadOnlyTxnProtocol rmatrix(Algorithm::kRMatrix);
    Cycle cur = 1 + rng.NextBounded(8);
    const uint32_t num_reads = 1 + static_cast<uint32_t>(rng.NextBounded(3));
    for (uint32_t k = 0; k < num_reads; ++k) {
      // Nothing written yet: every read passes both conditions.
      const CycleSnapshot quiet = OnAir(cur, std::vector<Cycle>(n, 0));
      const auto ob = static_cast<ObjectId>(rng.NextBounded(n));
      ASSERT_TRUE(datacycle.Read(quiet, ob).ok());
      ASSERT_TRUE(rmatrix.Read(quiet, ob).ok());
      cur += rng.NextBounded(3);
    }
    std::vector<Cycle> stamps(n);
    for (Cycle& c : stamps) c = rng.NextBounded(10);
    const CycleSnapshot snap = OnAir(cur, stamps);
    const auto target = static_cast<ObjectId>(rng.NextBounded(n));
    if (datacycle.Read(snap, target).ok()) {
      EXPECT_TRUE(rmatrix.Read(snap, target).ok()) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace bcc
