#include "client/delta_tracker.h"

#include <cassert>
#include <type_traits>

namespace bcc {

DeltaMatrixTracker::DeltaMatrixTracker(uint32_t num_objects, CycleStampCodec codec, bool sparse)
    : codec_(codec),
      sparse_(sparse),
      matrix_(sparse ? 0 : num_objects),
      sparse_matrix_(sparse ? num_objects : 0) {}

template <typename OnAirMatrix>
void DeltaMatrixTracker::ObserveImpl(const DeltaControl& ctl, const OnAirMatrix& on_air_matrix) {
  constexpr bool kSparseOnAir = std::is_same_v<OnAirMatrix, SparseFMatrix>;
  assert(kSparseOnAir == sparse_ && "Observe overload must match the tracker's representation");
  if (ctl.full_refresh) {
    // A refresh OLDER than the sync point would regress entries below their
    // current values — and lower stamps can only ever accept more reads, so
    // applying it could fabricate false acceptance. Ignore it; the current
    // reconstruction is strictly fresher.
    if (synced_ && ctl.cycle < last_sync_) return;
    if (!synced_) EmitSyncEvent(TraceEventType::kResync, ctl.cycle);
    // Adopt the on-air matrix's pages (no entry is copied until a delta
    // writes its column).
    if constexpr (kSparseOnAir) {
      sparse_matrix_ = on_air_matrix.Snapshot();
    } else {
      matrix_ = on_air_matrix.Snapshot();
    }
    synced_ = true;
    last_sync_ = ctl.cycle;
    return;
  }
  // A duplicated or stale delta (at or before the sync point) is already
  // incorporated in the reconstruction: re-applying could regress entries
  // (deltas are not idempotent across cycles), so ignore it and stay synced.
  if (synced_ && ctl.cycle <= last_sync_) return;
  // A delta is only meaningful on top of exactly its base matrix: the
  // F-Matrix is not monotone, so skipping any block (or applying out of
  // order) could silently yield a matrix that accepts reads the true one
  // rejects. Anything but a contiguous continuation desyncs.
  if (!synced_ || ctl.base_cycle != last_sync_ || ctl.cycle != last_sync_ + 1) {
    if (synced_) EmitSyncEvent(TraceEventType::kDesync, ctl.cycle);
    synced_ = false;
    return;
  }
  if constexpr (kSparseOnAir) {
    DeltaCodec::Apply(&sparse_matrix_, ctl.entries, codec_, ctl.cycle);
  } else {
    DeltaCodec::Apply(&matrix_, ctl.entries, codec_, ctl.cycle);
  }
  last_sync_ = ctl.cycle;
}

void DeltaMatrixTracker::Observe(const DeltaControl& ctl, const FMatrix& on_air_matrix) {
  ObserveImpl(ctl, on_air_matrix);
}

void DeltaMatrixTracker::Observe(const DeltaControl& ctl, const SparseFMatrix& on_air_matrix) {
  ObserveImpl(ctl, on_air_matrix);
}

}  // namespace bcc
