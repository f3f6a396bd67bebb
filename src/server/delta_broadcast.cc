#include "server/delta_broadcast.h"

#include <cassert>

namespace bcc {

DeltaBroadcaster::DeltaBroadcaster(uint32_t num_objects, CycleStampCodec codec,
                                   uint64_t refresh_period)
    : n_(num_objects), codec_(codec), refresh_period_(refresh_period) {
  assert(refresh_period_ >= 1);
  assert(refresh_period_ <= codec_.max_cycles());
}

DeltaControl DeltaBroadcaster::BuildControl(ControlView current,
                                            std::span<const ObjectId> touched_columns,
                                            Cycle cycle) {
  assert(!started_ || cycle == last_cycle_ + 1);
  assert(current.num_objects() == n_);

  DeltaControl ctl;
  ctl.cycle = cycle;
  ctl.full_bits = FullMatrixControlBits(n_, codec_.bits());

  const bool scheduled = !started_ || cycle - last_refresh_cycle_ >= refresh_period_;
  bool refresh = scheduled;
  if (!refresh) {
    ctl.base_cycle = last_cycle_;
    ctl.entries = DiffAgainstBase(current, touched_columns);
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
  Rebase(current);

  started_ = true;
  last_cycle_ = cycle;
  return ctl;
}

std::vector<DeltaCodec::Entry> DeltaBroadcaster::DiffAgainstBase(
    ControlView current, std::span<const ObjectId> touched_columns) const {
  if (const SparseFMatrix* sparse = current.sparse()) {
    return DeltaCodec::DiffColumns(sparse_prev_, *sparse, touched_columns, codec_);
  }
  return DeltaCodec::DiffColumns(prev_, *current.dense(), touched_columns, codec_);
}

void DeltaBroadcaster::Rebase(ControlView current) {
  // Sharing the pages costs one pointer per page (dense: per column) on
  // every cycle, refresh or delta. (Folding just the touched columns would
  // yield the same base, since they cover every column that changed.)
  if (const SparseFMatrix* sparse = current.sparse()) {
    sparse_prev_ = sparse->Snapshot();
  } else {
    prev_ = current.dense()->Snapshot();
  }
}

}  // namespace bcc
