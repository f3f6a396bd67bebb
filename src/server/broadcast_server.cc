#include "server/broadcast_server.h"

#include <cassert>

namespace bcc {

BroadcastServer::BroadcastServer(uint32_t num_objects, BroadcastGeometry geometry)
    : num_objects_(num_objects),
      geometry_(geometry),
      schedule_(BroadcastSchedule::Flat(num_objects)) {}

void BroadcastServer::SetSchedule(BroadcastSchedule schedule) {
  assert(!started_ && "schedule must be installed before the first cycle");
  assert(schedule.num_objects() == num_objects_);
  schedule_ = std::move(schedule);
}

CycleSnapshot BroadcastServer::BuildSnapshot(Cycle cycle, SimTime start_time,
                                             const ServerTxnManager& manager) const {
  CycleSnapshot snap;
  snap.cycle = cycle;
  snap.start_time = start_time;
  snap.values = manager.store().committed();
  if (manager.sparse_f_matrix().num_objects() > 0) {
    // Sparse representation: the snapshot carries shared immutable columns;
    // the dense snapshot stays empty even if the manager also maintains it
    // (parity tests), so consumers exercise the sparse path.
    snap.sparse_f_matrix = manager.SnapshotSparseFMatrix();
  } else if (manager.f_matrix().num_objects() > 0) {
    snap.f_matrix = manager.SnapshotFMatrix();
  }
  if (partition_.has_value() && manager.f_matrix().num_objects() > 0) {
    snap.group_matrix.emplace(*partition_, manager.f_matrix());
  }
  return snap;
}

namespace {

template <typename T>
uint64_t PageBytesCopied(const CowPages<T>& live) {
  return live.pages_copied() * live.page_bytes();
}

}  // namespace

void BroadcastServer::BeginCycle(Cycle cycle, SimTime start_time,
                                 const ServerTxnManager& manager) {
  if (!started_) {
    first_start_ = start_time;
    started_ = true;
  }
  snapshot_ = std::make_shared<CycleSnapshot>(BuildSnapshot(cycle, start_time, manager));
  const CycleSnapshot& snap = *snapshot_;
  // A sparse snapshot's page table is the size of the live one's (0 when
  // the manager keeps no sparse matrix).
  table_bytes_copied_ += snap.values.table_bytes() + snap.f_matrix.column_pages().table_bytes() +
                         manager.sparse_f_matrix().column_pages().table_bytes();
  live_page_bytes_copied_ = PageBytesCopied(manager.store().committed()) +
                            PageBytesCopied(manager.f_matrix().column_pages()) +
                            PageBytesCopied(manager.sparse_f_matrix().column_pages());
}

void BroadcastServer::EnableDeltaBroadcast(const CycleStampCodec& codec,
                                           uint64_t refresh_period) {
  assert(!started_ && "delta mode must be enabled before the first cycle");
  delta_.emplace(num_objects_, codec, refresh_period);
}

void BroadcastServer::AttachDeltaControl(std::span<const ObjectId> touched_columns) {
  assert(started_ && delta_.has_value());
  assert(!snapshot_->delta.has_value() && "one AttachDeltaControl per BeginCycle");
  snapshot_->delta =
      delta_->BuildControl(snapshot_->control(), touched_columns, snapshot_->cycle);
}

SimTime BroadcastServer::ObjectAvailableTime(ObjectId ob) const {
  assert(started_ && ob < num_objects_);
  const uint32_t slot = schedule_.SlotsOf(ob).front();
  return snapshot_->start_time + static_cast<SimTime>(slot + 1) * geometry_.slot_bits;
}

namespace {

/// Completion time of the earliest slot of `ob` in the cycle that starts at
/// `cycle_start` finishing at or after `t`, or nullopt when no appearance of
/// `ob` remains in that cycle.
std::optional<SimTime> SlotEndInCycle(const BroadcastSchedule& schedule, SimTime slot_bits,
                                      ObjectId ob, SimTime t, SimTime cycle_start) {
  assert(t >= cycle_start);
  const SimTime offset = t - cycle_start;
  // Smallest slot index s with completion start + (s+1)*slot_bits >= t.
  const size_t min_slot =
      offset <= slot_bits ? 0 : static_cast<size_t>((offset - 1) / slot_bits);
  const int64_t slot = schedule.NextSlotOf(ob, min_slot);
  if (slot < 0) return std::nullopt;
  return cycle_start + static_cast<SimTime>(slot + 1) * slot_bits;
}

}  // namespace

SimTime NextReadSlotEnd(const BroadcastSchedule& schedule, const BroadcastGeometry& geometry,
                        ObjectId ob, SimTime t, SimTime cycle_start) {
  if (const std::optional<SimTime> end =
          SlotEndInCycle(schedule, geometry.slot_bits, ob, t, cycle_start)) {
    return *end;
  }
  const SimTime next_start =
      cycle_start + static_cast<SimTime>(schedule.num_slots()) * geometry.slot_bits;
  return next_start + static_cast<SimTime>(schedule.SlotsOf(ob).front() + 1) * geometry.slot_bits;
}

std::optional<SimTime> BroadcastServer::NextSlotEnd(ObjectId ob, SimTime at_or_after) const {
  assert(started_ && ob < num_objects_);
  return SlotEndInCycle(schedule_, geometry_.slot_bits, ob, at_or_after, snapshot_->start_time);
}

SimTime BroadcastServer::CycleEndTime() const {
  assert(started_);
  return snapshot_->start_time + CycleLengthBits();
}

Cycle BroadcastServer::CycleAt(SimTime t) const {
  assert(started_ && t >= first_start_);
  const SimTime len = CycleLengthBits();
  if (len == 0) return snapshot_->cycle;
  return (t - first_start_) / len + 1;
}

}  // namespace bcc
