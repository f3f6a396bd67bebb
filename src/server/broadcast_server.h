// The broadcast-disk front end (Section 2.1 / Section 4.1).
//
// At the beginning of each cycle the server snapshots the latest committed
// values and control information and "fills the disk": every object is
// assigned a completion time within the cycle (its payload plus its control
// share — the matrix column for F-Matrix, one stamp for R-Matrix/Datacycle).
// Clients read an object only after its slot has been fully broadcast and
// validate against the control snapshot of that same cycle.

#ifndef BCC_SERVER_BROADCAST_SERVER_H_
#define BCC_SERVER_BROADCAST_SERVER_H_

#include <memory>
#include <optional>
#include <vector>

#include "des/event_queue.h"
#include "matrix/group_matrix.h"
#include "matrix/wire.h"
#include "server/delta_broadcast.h"
#include "server/schedule.h"
#include "server/txn_manager.h"

namespace bcc {

/// Immutable beginning-of-cycle state, as seen "on the air".
struct CycleSnapshot {
  Cycle cycle = 0;
  SimTime start_time = 0;
  /// Committed values; shares every page no commit wrote since the
  /// previous cycle with that cycle's snapshot and the live store. Their
  /// commit cycles are the reduced vector MC(i) that R-Matrix and Datacycle
  /// broadcast with each object.
  ObjectValues values;
  /// Present when the serving algorithm needs the full matrix. A
  /// page-shared snapshot: columns untouched since the previous cycle are
  /// shared with that cycle's snapshot, so a cycle snapshot costs O(n)
  /// pointers plus O(n * touched) column copies instead of O(n^2).
  FMatrix f_matrix;
  /// Present when a grouped partition is configured (Section 3.2.2 spectrum).
  std::optional<GroupMatrix> group_matrix;
  /// Present when the manager maintains the sparse representation
  /// (MatrixMode::kSparse): the beginning-of-cycle control matrix as shared
  /// immutable columns. Value-identical to what f_matrix would hold; when
  /// set, f_matrix is left empty (n = 0) and consumers — read validation,
  /// delta diffing, frame packing — use this instead, producing bit-identical
  /// decisions and on-air bytes.
  std::shared_ptr<const SparseFMatrix> sparse_f_matrix;
  /// Present in snapshot+delta mode: the sparse control block this cycle
  /// puts on the air instead of (notionally) the full matrix. f_matrix is
  /// still populated — it is what a refresh broadcasts and what tests
  /// cross-check reconstruction against.
  std::optional<DeltaControl> delta;
};

/// The slot a client reading `ob` at time `t` (in the cycle that starts at
/// `cycle_start`) waits for: the object's next slot in this cycle, else its
/// first slot of the next cycle. A stalled read retries with `t` =
/// `cycle_start` = the next cycle's start.
SimTime NextReadSlotEnd(const BroadcastSchedule& schedule, const BroadcastGeometry& geometry,
                        ObjectId ob, SimTime t, SimTime cycle_start);

/// Broadcast scheduling and per-cycle snapshotting.
class BroadcastServer {
 public:
  /// `geometry` fixes the slot layout (object payload + control share).
  /// The default schedule is the paper's single-speed disk (each object
  /// once per cycle, in id order).
  BroadcastServer(uint32_t num_objects, BroadcastGeometry geometry);

  const BroadcastGeometry& geometry() const { return geometry_; }
  uint32_t num_objects() const { return num_objects_; }

  /// Installs a multi-speed slot schedule (hot objects several times per
  /// major cycle). Must be called before the first BeginCycle.
  void SetSchedule(BroadcastSchedule schedule);
  const BroadcastSchedule& schedule() const { return schedule_; }

  /// Length of one (major) cycle: num_slots x slot_bits.
  SimTime CycleLengthBits() const {
    return static_cast<SimTime>(schedule_.num_slots()) * geometry_.slot_bits;
  }

  /// Configures the grouped-control spectrum: snapshots will carry an n x g
  /// GroupMatrix derived from the full matrix. Must be called before the
  /// first BeginCycle — the paper's fixed-g protocol has no safe runtime
  /// g-change (clients validate against the partition the cycle was
  /// broadcast with; swapping it mid-run would mix two coarse views within
  /// one validation). The adaptive-g path is MatrixMode::kHier, whose
  /// HierMatrix regroups only at cycle boundaries, against its own exact
  /// matrix.
  void SetPartition(const ObjectPartition& partition) {
    assert(!started_ && "the fixed-g partition cannot change after the first cycle");
    partition_ = partition;
  }

  /// Switches control broadcasting to snapshot+delta mode: each BeginCycle
  /// must be followed by AttachDeltaControl with the dirty columns drained
  /// from the txn manager. Must be called before the first BeginCycle.
  void EnableDeltaBroadcast(const CycleStampCodec& codec, uint64_t refresh_period);
  bool delta_enabled() const { return delta_.has_value(); }

  /// Builds this cycle's DeltaControl from the current snapshot's matrix and
  /// the columns rewritten since the previous cycle, and attaches it to the
  /// snapshot. Call exactly once per BeginCycle, in cycle order.
  void AttachDeltaControl(std::span<const ObjectId> touched_columns);

  /// Starts broadcast cycle `cycle` at `start_time`, snapshotting committed
  /// values and the control information the configured algorithm
  /// broadcasts from `manager`.
  void BeginCycle(Cycle cycle, SimTime start_time, const ServerTxnManager& manager);

  const CycleSnapshot& snapshot() const { return *snapshot_; }

  /// Cumulative bytes the snapshots of paged state (values, sparse column
  /// table, dense columns) have cost: the page tables each BeginCycle copies
  /// plus the pages the manager's live containers copied on write.
  uint64_t snapshot_bytes_copied() const { return table_bytes_copied_ + live_page_bytes_copied_; }
  /// The current snapshot as a shared handle: a reader thread holding it
  /// keeps that cycle's state alive after the next BeginCycle replaces it.
  std::shared_ptr<const CycleSnapshot> shared_snapshot() const { return snapshot_; }

  /// Time at which object `ob`'s FIRST slot (payload + control) finishes
  /// broadcasting within the current cycle.
  SimTime ObjectAvailableTime(ObjectId ob) const;

  /// Completion time of the earliest slot of `ob` in the current cycle
  /// finishing at or after `at_or_after`; nullopt when no appearance of
  /// `ob` remains this cycle (wait for the next one).
  std::optional<SimTime> NextSlotEnd(ObjectId ob, SimTime at_or_after) const;

  /// End of the current cycle == start of the next.
  SimTime CycleEndTime() const;

  /// The cycle number whose broadcast covers `t` (assuming back-to-back
  /// cycles from the first BeginCycle onward). Requires t >= first start.
  Cycle CycleAt(SimTime t) const;

 private:
  CycleSnapshot BuildSnapshot(Cycle cycle, SimTime start_time,
                              const ServerTxnManager& manager) const;

  uint32_t num_objects_;
  BroadcastGeometry geometry_;
  BroadcastSchedule schedule_;
  std::shared_ptr<CycleSnapshot> snapshot_ = std::make_shared<CycleSnapshot>();
  std::optional<ObjectPartition> partition_;
  std::optional<DeltaBroadcaster> delta_;
  SimTime first_start_ = 0;
  bool started_ = false;
  uint64_t table_bytes_copied_ = 0;
  uint64_t live_page_bytes_copied_ = 0;
};

}  // namespace bcc

#endif  // BCC_SERVER_BROADCAST_SERVER_H_
