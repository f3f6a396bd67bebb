// Client side of the snapshot+delta control broadcast: reconstructs the
// F-Matrix from per-cycle delta blocks and periodic full refreshes.
//
// The tracker holds the client's local copy of the control matrix. Each
// broadcast cycle it observes that cycle's DeltaControl:
//   - a full refresh (re)synchronizes unconditionally — the tracker adopts
//     the on-air matrix's pages, and a later delta copies a column only when
//     it first writes it;
//   - a delta applies only when the tracker is synced to exactly the block's
//     base cycle; otherwise the tracker desyncs and waits for the next
//     refresh. Deltas are relative to the previous cycle, and the F-Matrix
//     is not monotone (ApplyCommit can lower entries), so applying a delta
//     over any gap could fabricate a matrix that accepts reads the true one
//     rejects. Desync-and-wait is the only safe recovery.
//   - duplicated or stale blocks (cycle at or before the sync point, as a
//     faulty or replayed channel can deliver) are ignored while synced: their
//     content is already incorporated, and re-applying old stamps could only
//     regress entries toward false acceptance. A FORWARD gap still desyncs.
//
// Staleness guard: even a synced tracker is only usable while
// current - last_sync <= codec.max_cycles(); past the window the TS-bit
// stamps decoded at observation time no longer mean what a fresh decode
// would, so the client must stall until a refresh (BeyondDecodeWindow).
// With the contiguity rule above, last_sync always equals the cycle being
// read, so the guard can fire only for a desynced tracker — it is the
// documented hard ceiling, not the common path.
//
// Congruence invariant (checked by BroadcastSim::VerifyDeltaTrackers): a
// synced tracker's matrix is entry-wise congruent to the server's matrix
// mod 2^ts. Entries are stored as Decode(residue, observation cycle), which
// can differ from the server's absolute value for out-of-window history,
// but validation re-encodes every entry (ReadOnlyTxnProtocol::Stamp), and
// Decode(Encode(x), c) depends on x only mod 2^ts — so read decisions are
// bit-identical to full-matrix broadcast.

#ifndef BCC_CLIENT_DELTA_TRACKER_H_
#define BCC_CLIENT_DELTA_TRACKER_H_

#include "matrix/f_matrix.h"
#include "matrix/sparse_f_matrix.h"
#include "obs/trace.h"
#include "server/delta_broadcast.h"

namespace bcc {

/// Per-client reconstruction state for delta-broadcast control information.
class DeltaMatrixTracker {
 public:
  /// `sparse` selects the sparse reconstruction (MatrixMode::kSparse direct
  /// delta mode): the tracker holds a SparseFMatrix instead of an O(n^2)
  /// dense one — refreshes adopt the snapshot's shared column payloads in
  /// O(n) pointer copies and deltas apply in O(columns touched). Sync-state
  /// policy (desync, staleness window, stale-block rejection) is identical;
  /// use sparse_matrix() / set_sparse_control_override on the protocol.
  DeltaMatrixTracker(uint32_t num_objects, CycleStampCodec codec, bool sparse = false);

  /// Ingests cycle `ctl.cycle`'s control block. `on_air_matrix` is the full
  /// matrix a refresh cycle broadcasts (the snapshot's f_matrix); it is only
  /// read when ctl.full_refresh. Cycles may be skipped (a client that tuned
  /// out misses blocks); any gap desyncs until the next refresh.
  void Observe(const DeltaControl& ctl, const FMatrix& on_air_matrix);
  /// Sparse-mode variant: a refresh adopts `on_air_matrix`'s shared column
  /// payloads (absolute values, exactly like the dense path); deltas decode
  /// residues at ctl.cycle via the sparse DeltaCodec::Apply. Requires the
  /// sparse constructor flag.
  void Observe(const DeltaControl& ctl, const SparseFMatrix& on_air_matrix);

  /// Tracker is reconstructing successfully (saw a refresh and every delta
  /// since).
  bool synced() const { return synced_; }

  /// Last cycle whose control block was applied (valid when synced).
  Cycle last_sync() const { return last_sync_; }

  /// The reconstructed matrix; meaningful only when synced (dense mode).
  const FMatrix& matrix() const { return matrix_; }

  /// The sparse reconstruction (sparse mode); meaningful only when synced.
  const SparseFMatrix& sparse_matrix() const { return sparse_matrix_; }
  bool sparse() const { return sparse_; }

  /// True when the reconstruction is unusable for validating a read in
  /// `current`: not synced, stale, or past the TS decode window.
  bool Unusable(Cycle current) const {
    return !synced_ || current != last_sync_ || BeyondDecodeWindow(current);
  }

  /// The ISSUE's hard staleness ceiling: current - last_sync beyond the
  /// codec window means windowed decode would silently corrupt the matrix.
  bool BeyondDecodeWindow(Cycle current) const {
    return current - last_sync_ > codec_.max_cycles();
  }

  /// Test hook: force a desync (models a client missing a cycle's block).
  void ForceDesync() {
    if (synced_) EmitSyncEvent(TraceEventType::kDesync, last_sync_);
    synced_ = false;
  }

  /// Optional trace sink (not owned; nullptr disables). Emits kDesync /
  /// kResync whenever the synced() flag transitions.
  void set_trace_ring(TraceRing* ring) { trace_ = ring; }
  /// Simulation time stamped onto trace events (set by the receiver before
  /// each Observe; purely observational).
  void set_trace_now(SimTime now) { trace_now_ = now; }

 private:
  template <typename OnAirMatrix>
  void ObserveImpl(const DeltaControl& ctl, const OnAirMatrix& on_air_matrix);

  void EmitSyncEvent(TraceEventType type, Cycle cycle) {
    if (trace_ == nullptr) return;
    TraceEvent e;
    e.type = type;
    e.time = trace_now_;
    e.cycle = cycle;
    trace_->Record(e);
  }

  CycleStampCodec codec_;
  bool sparse_;
  /// Exactly one of the two is sized n; the other stays size 0 — in sparse
  /// mode the dense matrix would be O(n^2) dead weight (8 TB at n = 10^6).
  FMatrix matrix_;
  SparseFMatrix sparse_matrix_;
  bool synced_ = false;
  Cycle last_sync_ = 0;
  TraceRing* trace_ = nullptr;
  SimTime trace_now_ = 0;
};

}  // namespace bcc

#endif  // BCC_CLIENT_DELTA_TRACKER_H_
