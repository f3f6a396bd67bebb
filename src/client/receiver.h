// Client-side receiver for the lossy broadcast channel.
//
// Consumes one Transmission per broadcast cycle, reassembles the per-(kind,
// stream) payloads from the frames that survived the channel, and maintains
// the client's local picture of the cycle:
//   - data pages: the latest ObjectVersion per object, with the cycle it
//     arrived in (DataUsable);
//   - full mode: a local F-Matrix whose column j holds the stamps received
//     for object j, with the cycle column j was last received in
//     (ControlUsable);
//   - snapshot+delta mode: the index segment names the control mode, and the
//     control block (delta or refresh) is fed to the client's
//     DeltaMatrixTracker — a lost control segment simply is not observed,
//     which leaves the tracker stale and (on the next delta) desynced, the
//     tracker's designed loss-recovery path.
//
// Resynchronization rule: a read may only validate against control info and
// data received in the EXACT cycle being read. Stale columns could carry
// lower stamps than the current matrix and accept a read the server-side
// matrix rejects, so the caller must treat a missing column/page as a missed
// cycle and stall until the next cycle (BroadcastSim::PerformBroadcastRead).
// Loss therefore only ever adds stalls and aborts — never false acceptance.

#ifndef BCC_CLIENT_RECEIVER_H_
#define BCC_CLIENT_RECEIVER_H_

#include <vector>

#include "channel/frame.h"
#include "channel/lossy_channel.h"
#include "client/delta_tracker.h"
#include "matrix/f_matrix.h"
#include "obs/trace.h"

namespace bcc {

/// Per-client frame reassembly and resynchronization state.
class ChannelReceiver {
 public:
  /// `tracker` selects the control mode: nullptr receives full-mode column
  /// streams into a local matrix; non-null feeds delta/refresh blocks to the
  /// tracker (owned by the caller, must outlive the receiver).
  ChannelReceiver(uint32_t num_objects, FrameCodec codec, DeltaMatrixTracker* tracker);

  /// Ingests everything the client received from cycle `cycle`'s broadcast.
  /// `now` is the simulation time of the broadcast, used only to timestamp
  /// trace events (harmless to omit when tracing is off).
  void IngestCycle(Cycle cycle, const Transmission& tx, SimTime now = 0);

  /// True when object `ob`'s control info is usable for a read in `cycle`:
  /// full mode only — column ob was received in exactly that cycle. (Delta
  /// mode gates on DeltaMatrixTracker::Unusable instead.)
  bool ControlUsable(ObjectId ob, Cycle cycle) const { return col_cycle_[ob] == cycle; }

  /// True when object `ob`'s data page from cycle `cycle` was received.
  bool DataUsable(ObjectId ob, Cycle cycle) const { return data_cycle_[ob] == cycle; }

  /// Full-mode reconstructed matrix (column j meaningful only while
  /// ControlUsable(j, current cycle)).
  const FMatrix& matrix() const { return matrix_; }

  /// Last received data page per object (entry ob meaningful only while
  /// DataUsable(ob, current cycle)).
  const std::vector<ObjectVersion>& values() const { return values_; }

  /// The caller reports protocol-level consequences of loss.
  void RecordStall() { ++stats_.stalls; }
  void RecordLossAttributedAbort() { ++stats_.loss_attributed_aborts; }

  const ChannelStats& stats() const { return stats_; }

  /// Optional trace sink (not owned; nullptr disables). Emits kFrameRx per
  /// ingested cycle and, in full mode, kDesync/kResync on control-continuity
  /// transitions. Delta-mode sync transitions are emitted by the tracker.
  void set_trace_ring(TraceRing* ring) { trace_ = ring; }

 private:
  /// Decodes a delta-mode control block and feeds it to the tracker; false
  /// when the payload fails wire validation (treated as a lost segment).
  bool ObserveControl(Cycle cycle, bool refresh, const Payload& payload);

  /// The reassembler for (kind, stream id), or nullptr when no such stream
  /// exists in this control mode (its frames are ignored).
  StreamReassembler* Stream(FrameKind kind, uint32_t stream_id);

  uint32_t n_;
  FrameCodec codec_;
  DeltaMatrixTracker* tracker_;  // null in full mode

  FMatrix matrix_;                   // full mode
  std::vector<Cycle> col_cycle_;     // cycle each column was last received in
  std::vector<ObjectVersion> values_;
  std::vector<Cycle> data_cycle_;    // cycle each data page was last received in

  // Per-(kind, stream) reassemblers, allocated once and cleared each cycle.
  std::vector<StreamReassembler> data_streams_;    // by object id
  std::vector<StreamReassembler> column_streams_;  // by column (full mode only)
  StreamReassembler index_stream_;
  StreamReassembler delta_stream_;
  StreamReassembler refresh_stream_;

  bool prev_control_ok_ = true;  // full mode: was last cycle's control complete?
  bool ever_synced_ = false;     // delta mode: has the tracker ever synced?
  ChannelStats stats_;
  TraceRing* trace_ = nullptr;
};

}  // namespace bcc

#endif  // BCC_CLIENT_RECEIVER_H_
