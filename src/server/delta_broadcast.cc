#include "server/delta_broadcast.h"

#include <cassert>
#include <utility>

namespace bcc {

DeltaBroadcaster::DeltaBroadcaster(uint32_t num_objects, CycleStampCodec codec,
                                   uint64_t refresh_period)
    : n_(num_objects), codec_(codec), refresh_period_(refresh_period) {
  assert(refresh_period_ >= 1);
  assert(refresh_period_ <= codec_.max_cycles());
}

DeltaControl DeltaBroadcaster::BuildControl(const FMatrix& current,
                                            std::span<const ObjectId> touched_columns,
                                            Cycle cycle) {
  assert(!started_ || cycle == last_cycle_ + 1);
  assert(current.num_objects() == n_);

  DeltaControl ctl;
  ctl.cycle = cycle;
  ctl.full_bits = FullMatrixControlBits(n_, codec_.bits());

  const bool scheduled =
      !started_ || cycle - last_refresh_cycle_ >= refresh_period_;
  bool refresh = scheduled;
  if (!refresh) {
    ctl.base_cycle = last_cycle_;
    ctl.entries = DeltaCodec::DiffColumns(prev_, current, touched_columns, codec_);
    ctl.control_bits = DeltaCodec::EncodedBits(ctl.entries.size(), n_, codec_.bits());
    // Adaptive fallback: the delta would not beat the full matrix, so send
    // the matrix itself in the (fixed-size) control reservation.
    if (ctl.control_bits >= ctl.full_bits) {
      refresh = true;
      ctl.entries.clear();
    }
  }

  if (refresh) {
    ctl.full_refresh = true;
    ctl.scheduled = scheduled;
    ctl.base_cycle = cycle;
    ctl.control_bits = ctl.full_bits;
    last_refresh_cycle_ = cycle;
  }
  // The base becomes `current` by sharing its column pages: O(n) pointers
  // on every cycle, refresh or delta. (Folding just the touched columns
  // yields the same base, since they cover every column that changed.)
  prev_ = current.Snapshot();

  started_ = true;
  last_cycle_ = cycle;
  return ctl;
}

DeltaControl DeltaBroadcaster::BuildControl(const SparseFMatrix& current,
                                            std::span<const ObjectId> touched_columns,
                                            Cycle cycle) {
  assert(!started_ || cycle == last_cycle_ + 1);
  if (sparse_prev_.num_objects() != n_) sparse_prev_ = SparseFMatrix(n_);

  DeltaControl ctl;
  ctl.cycle = cycle;
  ctl.full_bits = FullMatrixControlBits(n_, codec_.bits());

  const bool scheduled = !started_ || cycle - last_refresh_cycle_ >= refresh_period_;
  bool refresh = scheduled;
  if (!refresh) {
    ctl.base_cycle = last_cycle_;
    ctl.entries = DeltaCodec::DiffColumns(sparse_prev_, current, touched_columns, codec_);
    ctl.control_bits = DeltaCodec::EncodedBits(ctl.entries.size(), n_, codec_.bits());
    if (ctl.control_bits >= ctl.full_bits) {
      refresh = true;
      ctl.entries.clear();
    }
  }

  if (refresh) {
    ctl.full_refresh = true;
    ctl.scheduled = scheduled;
    ctl.base_cycle = cycle;
    ctl.control_bits = ctl.full_bits;
    last_refresh_cycle_ = cycle;
    sparse_prev_ = current;  // O(n) shared-pointer copies; payloads shared
  } else {
    for (ObjectId j : touched_columns) {
      sparse_prev_.AssignColumn(j, current.ColumnData(j));
    }
  }

  started_ = true;
  last_cycle_ = cycle;
  return ctl;
}

}  // namespace bcc
