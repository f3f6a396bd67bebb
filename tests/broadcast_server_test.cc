#include "server/broadcast_server.h"

#include <gtest/gtest.h>

namespace bcc {
namespace {

BroadcastGeometry SmallGeometry() {
  // 4 objects, 100-bit payloads, 8-bit stamps, R-Matrix layout.
  return ComputeGeometry(Algorithm::kRMatrix, 4, 100, 8);
}

TEST(BroadcastServerTest, SnapshotCapturesCommittedState) {
  ServerTxnManager mgr(4);
  BroadcastServer server(4, SmallGeometry());
  mgr.ExecuteAndCommit(ServerTxn{1, {}, {2}}, 1);
  server.BeginCycle(2, 1000, mgr);
  EXPECT_EQ(server.snapshot().cycle, 2u);
  EXPECT_EQ(server.snapshot().values[2].writer, 1u);
  EXPECT_EQ(server.snapshot().values[2].cycle, 1u);
}

TEST(BroadcastServerTest, SnapshotIsImmutableAgainstLaterCommits) {
  ServerTxnManager mgr(4);
  BroadcastServer server(4, SmallGeometry());
  server.BeginCycle(1, 0, mgr);
  mgr.ExecuteAndCommit(ServerTxn{1, {}, {0}}, 1);  // during cycle 1
  // The on-air snapshot still shows the beginning-of-cycle state.
  EXPECT_EQ(server.snapshot().values[0].writer, kInitTxn);
  EXPECT_EQ(server.snapshot().values[0].cycle, 0u);
  server.BeginCycle(2, server.CycleEndTime(), mgr);
  EXPECT_EQ(server.snapshot().values[0].writer, 1u);
}

TEST(BroadcastServerTest, ObjectSlotTimes) {
  ServerTxnManager mgr(4);
  const BroadcastGeometry g = SmallGeometry();
  BroadcastServer server(4, g);
  server.BeginCycle(1, 0, mgr);
  for (ObjectId ob = 0; ob < 4; ++ob) {
    EXPECT_EQ(server.ObjectAvailableTime(ob), static_cast<SimTime>(ob + 1) * g.slot_bits);
  }
  EXPECT_EQ(server.CycleEndTime(), g.cycle_bits);
  EXPECT_EQ(server.ObjectAvailableTime(3), server.CycleEndTime());
}

TEST(BroadcastServerTest, CycleAtMapsTimesToCycles) {
  ServerTxnManager mgr(4);
  const BroadcastGeometry g = SmallGeometry();
  BroadcastServer server(4, g);
  server.BeginCycle(1, 0, mgr);
  EXPECT_EQ(server.CycleAt(0), 1u);
  EXPECT_EQ(server.CycleAt(g.cycle_bits - 1), 1u);
  EXPECT_EQ(server.CycleAt(g.cycle_bits), 2u);
  EXPECT_EQ(server.CycleAt(5 * g.cycle_bits + 3), 6u);
}

TEST(BroadcastServerTest, FMatrixSnapshotOnlyWhenMaintained) {
  TxnManagerOptions options;
  options.maintain_f_matrix = false;
  ServerTxnManager mgr(4, options);
  BroadcastServer server(4, SmallGeometry());
  server.BeginCycle(1, 0, mgr);
  EXPECT_EQ(server.snapshot().f_matrix.num_objects(), 0u);
  EXPECT_EQ(server.snapshot().values.size(), 4u);
}

TEST(BroadcastServerTest, PartitionedSnapshotCarriesGroupMatrix) {
  ServerTxnManager mgr(4);
  BroadcastServer server(4, ComputeGeometry(Algorithm::kFMatrix, 4, 100, 8, 2));
  server.SetPartition(ObjectPartition::Blocks(4, 2));
  mgr.ExecuteAndCommit(ServerTxn{1, {}, {0}}, 1);
  server.BeginCycle(2, 100, mgr);
  ASSERT_TRUE(server.snapshot().group_matrix.has_value());
  EXPECT_EQ(server.snapshot().group_matrix->num_groups(), 2u);
  // ob0 written at cycle 1: group 0 row 0 reflects it.
  EXPECT_EQ(server.snapshot().group_matrix->At(0, 0), 1u);
}

}  // namespace
}  // namespace bcc
