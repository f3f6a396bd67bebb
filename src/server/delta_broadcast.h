// Server side of the snapshot+delta control broadcast (Section 3.2.1's
// delta-transmission sketch, made concrete).
//
// Instead of re-deriving the full n x n matrix on the air every cycle, the
// server ships, per cycle, the entries that changed since the previous
// cycle's broadcast — computed from the dirty-column list ApplyCommit
// already knows (FMatrix::EnableDirtyTracking) in O(n * touched), not
// O(n^2) — plus a periodic full-column refresh so late-joining or stale
// clients can resynchronize. The broadcast geometry is unchanged: the slot
// layout still reserves the full-matrix control share, so delta mode alters
// no timing; the savings show up in the bit accounting
// (DeltaControl::control_bits vs full_bits) that `bench_paper --figure=delta` and
// SimMetrics report.

#ifndef BCC_SERVER_DELTA_BROADCAST_H_
#define BCC_SERVER_DELTA_BROADCAST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/cycle_stamp.h"
#include "matrix/control_view.h"
#include "matrix/wire.h"

namespace bcc {

/// The control information one delta-mode cycle puts on the air.
struct DeltaControl {
  /// Cycle this control block belongs to (the matrix it reconstructs is the
  /// beginning-of-cycle snapshot of `cycle`).
  Cycle cycle = 0;
  /// True when this cycle carries the full matrix (scheduled refresh or
  /// adaptive fallback); clients may (re)synchronize from it regardless of
  /// their previous state. The full matrix itself travels as the snapshot's
  /// control() matrix — entries is empty in that case.
  bool full_refresh = false;
  /// True when the refresh was the periodic scheduled one (implicit from the
  /// cycle count); false for the adaptive fallback taken when the delta
  /// would not beat the full matrix.
  bool scheduled = false;
  /// For a delta block: the cycle whose reconstructed matrix the entries
  /// apply on top of (always the previous broadcast cycle).
  Cycle base_cycle = 0;
  /// Changed entries relative to base_cycle's matrix, ascending (col, row).
  std::vector<DeltaCodec::Entry> entries;
  /// Bits this control block costs on the air.
  uint64_t control_bits = 0;
  /// Bits the full-matrix broadcast would have cost (n^2 * ts) — the
  /// baseline the delta is accounted against.
  uint64_t full_bits = 0;
};

/// Builds per-cycle DeltaControl blocks from the server's matrix snapshots.
///
/// Refresh policy:
///  - the first cycle ever broadcast is a full refresh (clients have no base
///    to apply deltas to);
///  - every `refresh_period` cycles the full matrix is re-broadcast in place
///    of a delta (scheduled refresh), implicit from the cycle count;
///  - when a delta's EncodedBits would meet or exceed the full matrix, the
///    full matrix is sent instead (adaptive refresh), so a delta-mode cycle
///    never carries more control than a full-mode one.
///
/// Bit accounting: refresh cycles (either kind) are charged exactly
/// FullMatrixControlBits — delta mode keeps the full-mode slot geometry, so
/// the per-cycle control reservation is full_bits wide and a refresh fills
/// it bit-for-bit like a full-mode cycle; the delta/refresh discriminator
/// rides in the fixed slot framing. (A deployment with variable-size control
/// slots would spend up to 32 extra header bits to mark the unscheduled
/// adaptive refresh.) This makes control_bits <= full_bits an invariant of
/// every cycle, which `bench_paper --figure=delta` asserts.
class DeltaBroadcaster {
 public:
  /// `refresh_period` >= 1: a scheduled full refresh at least every that
  /// many cycles. Must not exceed codec.max_cycles(): past that the windowed
  /// stamps in the refresh itself would already be ambiguous for a client
  /// synchronizing from scratch.
  DeltaBroadcaster(uint32_t num_objects, CycleStampCodec codec, uint64_t refresh_period);

  const CycleStampCodec& codec() const { return codec_; }
  uint64_t refresh_period() const { return refresh_period_; }

  /// Produces the control block for cycle `cycle`, whose beginning-of-cycle
  /// matrix is `current` (dense or sparse, the same representation on every
  /// call of a run) and whose commits since the previous call rewrote (at
  /// most) `touched_columns`. Calls must be made for consecutive cycles
  /// (cycle = previous call's cycle + 1, except the first). The refresh
  /// policy and bit accounting do not depend on the representation; the
  /// diff does: O(n * touched) over dense columns, an O(nnz) merge walk over
  /// sparse ones. The next diff base is a snapshot of `current` in either
  /// representation: a copy of its page table (dense: n column pointers;
  /// sparse: n / page length page pointers, the payloads shared by pointer),
  /// which pins `current`'s pages and payloads for one cycle.
  DeltaControl BuildControl(ControlView current, std::span<const ObjectId> touched_columns,
                            Cycle cycle);

 private:
  uint32_t n_;
  CycleStampCodec codec_;
  uint64_t refresh_period_;
  bool started_ = false;
  Cycle last_cycle_ = 0;
  Cycle last_refresh_cycle_ = 0;
  /// The entries of `current` that differ from the diff base.
  std::vector<DeltaCodec::Entry> DiffAgainstBase(ControlView current,
                                                 std::span<const ObjectId> touched_columns) const;
  /// Makes `current` the next diff base.
  void Rebase(ControlView current);

  /// The matrix as of the previous cycle's broadcast — the diff base, in
  /// the representation BuildControl is fed: a page-shared snapshot of the
  /// previous matrix, so neither representation materializes the other's
  /// base.
  FMatrix prev_;
  SparseFMatrix sparse_prev_{0};
};

}  // namespace bcc

#endif  // BCC_SERVER_DELTA_BROADCAST_H_
