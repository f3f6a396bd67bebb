// The server's per-cycle loop (Section 3.2.1), written once for every
// engine.
//
// The broadcast cycle is the paper's unit of consistency: update
// transactions commit during cycle k, the F-Matrix is maintained at commit
// time (Theorem 2), and clients validate against the state broadcast at the
// start of the cycle. CycleServer owns what that loop touches — manager,
// broadcast front end, workload and commit clock, pooled update engine,
// uplink validator with its overlay and queues, delta and frame scratch,
// the end-of-cycle matrix step and the decision log — and the engines
// (BroadcastSim, ConcurrentSim, the socket daemon) drive it per cycle k:
//
//     BeginCycle(k)            the snapshot (+ delta, + frames) goes on the air
//     [DrawCycle(k)]           cycle k's server transactions are drawn
//     StageCycle(k)            every cycle-k server commit is staged
//     SubmitUplink(..., k)*    client update transactions are validated
//     EndCycle(k, conflicts)   cycle k folds and the matrix step runs
//
// One rule of each kind (DESIGN.md, "Cycle server"):
//   - Staging: all of cycle k's server commits are staged when cycle k
//     begins (executed under the sequential scheme, queued with their MC
//     effects in the overlay under a pooled one), so an uplink validated in
//     cycle k sees every cycle-k server write.
//   - Boundary: a commit landing exactly on a cycle boundary belongs to the
//     old cycle iff it fires before the flip (FiresBeforeFlip / PhaseOf).
//   - Fold: EndCycle(k) folds the uplinks accepted in cycle k (a serial
//     prefix, in acceptance order), then cycle k's server batch, under
//     stamp k, just before BeginCycle(k+1).
//
// Drawing is split from staging so a concurrent engine can draw cycle k+1
// while cycle k's uplinks validate: DrawCycle touches only the workload RNG,
// the commit clock and the drawn queue, none of which SubmitUplink reads.
// StageCycle draws the cycle itself when it was not drawn ahead.
//
// Not thread-safe: a concurrent engine serializes SubmitUplink itself and
// calls the other members, DrawCycle excepted, only while no SubmitUplink
// can run.

#ifndef BCC_SERVER_CYCLE_SERVER_H_
#define BCC_SERVER_CYCLE_SERVER_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "channel/frame.h"
#include "common/rng.h"
#include "common/statusor.h"
#include "obs/trace.h"
#include "server/broadcast_server.h"
#include "server/exec/txn_processor.h"
#include "server/mc_overlay.h"
#include "server/txn_manager.h"
#include "server/validator.h"
#include "sim/config.h"
#include "sim/workload.h"

namespace bcc {

class SimMetrics;

/// First TxnId used for client read-only transactions in recorded oracle
/// histories (server transactions count up from 1); client update
/// transactions use ids from 2 * kClientTxnIdBase.
inline constexpr TxnId kClientTxnIdBase = 1u << 20;

/// The boundary rule. Events fire in (time, insertion-order) order, which
/// matters in exactly one place: an event landing on a cycle boundary k*L
/// fires before the boundary's cycle flip iff it was inserted before the
/// flip was, and the flip at k*L is inserted at (k-1)*L by the previous
/// flip. An event is inserted when its parent fires, so the rule recurses
/// into the parent's own boundary side. Replaying it per event lets every
/// engine place an event in its cycle without a shared queue.
bool FiresBeforeFlip(SimTime at, SimTime parent_time, bool parent_pre_flip, SimTime cycle_bits);

/// The broadcast cycle an event at `at` belongs to: an event on a boundary
/// fires in the old cycle when it beats the flip, in the new one otherwise.
inline Cycle PhaseOf(SimTime at, bool pre_flip, SimTime cycle_bits) {
  return pre_flip ? at / cycle_bits : at / cycle_bits + 1;
}

/// One server workload commit, in semantic commit (fold) order.
struct ServerCommitRecord {
  TxnId id = kNoTxn;
  Cycle cycle = 0;    ///< broadcast cycle the commit belongs to
  uint64_t seq = 0;   ///< global commit-order sequence within the run
  std::vector<ObjectId> reads;
  std::vector<ObjectId> writes;
};

/// One per-uplink validation decision (txn id, cycle, cause), in validation
/// order. Accepted uplinks carry their commit-order `seq`; rejected ones
/// carry the structured conflict that fired.
struct UplinkDecision {
  TxnId id = kNoTxn;
  uint32_t client_index = 0;
  Cycle cycle = 0;    ///< broadcast cycle the uplink was validated in
  uint64_t seq = 0;   ///< commit-order sequence (accepted only)
  bool accepted = false;
  AbortInfo cause;    ///< meaningful when rejected
  std::vector<ReadRecord> reads;
  std::vector<ObjectId> writes;
};

/// The server's decision log: everything the offline history and
/// serializability checkers need to audit a run's update sub-history.
/// `seq` is the store's commit order: assigned at the commit call under the
/// sequential scheme, at the cycle fold under a pooled one.
struct DecisionLog {
  std::vector<ServerCommitRecord> server_commits;
  std::vector<UplinkDecision> uplinks;

  std::string ToJson() const;
};

/// The server's verdict on one uplink.
struct UplinkOutcome {
  bool accepted = false;
  AbortInfo cause;  ///< meaningful when rejected
};

/// What differs between the engines that drive a CycleServer.
struct CycleServerOptions {
  /// Id of the first uplink transaction (ids count up from here).
  TxnId first_uplink_id = 2 * kClientTxnIdBase;
  /// Server-side accounting (commits, uplink verdicts, delta and matrix
  /// cycles); not owned, null = none.
  SimMetrics* metrics = nullptr;
};

/// One run's server: the per-cycle loop above, driven by one engine.
class CycleServer {
 public:
  /// Builds the server for `config`: the manager maintains what the
  /// algorithm and matrix mode need, the broadcast front end gets the
  /// multi-speed schedule, the fixed-g partition and delta mode, and
  /// `workload_rng` (the root RNG's first split) drives the commit stream.
  static StatusOr<std::unique_ptr<CycleServer>> Create(const SimConfig& config, Rng workload_rng,
                                                       CycleServerOptions options = {});

  CycleServer(const CycleServer&) = delete;
  CycleServer& operator=(const CycleServer&) = delete;
  ~CycleServer();

  /// Traces cycle starts and server commits (virtual time) to `ring`; null
  /// turns tracing off.
  void set_trace_ring(TraceRing* ring) { trace_ = ring; }

  /// Puts cycle `cycle` on the air: snapshots the committed state, attaches
  /// the delta control block in delta mode and encodes the cycle's frames in
  /// channel mode. Cycles begin in order from 1.
  const CycleSnapshot& BeginCycle(Cycle cycle);

  /// Draws cycle `cycle`'s server transactions from the workload, each with
  /// its commit time, and advances the commit clock past the cycle. Stages
  /// nothing: the transactions count in server_commits() only once
  /// StageCycle(cycle) stages them. Cycles are drawn in order, each staged
  /// before the next is drawn.
  void DrawCycle(Cycle cycle);

  /// Stages every server commit of cycle `cycle` (the staging rule), drawing
  /// the cycle first unless DrawCycle(cycle) already did, and returns how
  /// many it staged.
  uint64_t StageCycle(Cycle cycle);

  /// Validates client `client`'s update transaction during cycle `cycle`.
  /// Under the sequential scheme an accepted one commits on the spot; under
  /// a pooled one it queues for cycle `cycle`'s fold.
  UplinkOutcome SubmitUplink(uint32_t client, std::vector<ReadRecord> reads,
                             std::vector<ObjectId> writes, Cycle cycle);

  /// Folds cycle `cycle`'s pooled commits into the manager (the fold rule).
  /// Idempotent; EndCycle calls it. A run cut mid-cycle calls it alone.
  void Fold(Cycle cycle);

  /// Closes cycle `cycle`: Fold, then the matrix step (sparse control-bit
  /// accounting and scheduled compaction, or the hierarchical policy driven
  /// by the run's cumulative `control_conflicts`).
  void EndCycle(Cycle cycle, uint64_t control_conflicts);

  const CycleSnapshot& snapshot() const { return server_->snapshot(); }
  /// Channel mode: the current cycle's frame sequence (empty otherwise).
  std::span<const Frame> frames() const { return frames_; }
  const BroadcastServer& broadcast() const { return *server_; }
  SimTime cycle_bits() const { return cycle_bits_; }
  const ServerTxnManager& manager() const { return *manager_; }
  /// Hier mode: the manager's hierarchical matrix, read without the
  /// flushing accessor so mid-cycle scans see the begin-of-cycle view.
  HierMatrix* hier() const { return hier_; }
  /// Workload commits staged so far (uplinks and drawn-only cycles not
  /// included).
  uint64_t server_commits() const { return server_commits_; }
  /// Empty unless config.record_decisions.
  const DecisionLog& decisions() const { return log_; }

 private:
  CycleServer(const SimConfig& config, Rng workload_rng, CycleServerOptions options);

  const SimConfig config_;
  const CycleServerOptions options_;
  std::unique_ptr<ServerTxnManager> manager_;
  std::unique_ptr<BroadcastServer> server_;
  HierMatrix* hier_ = nullptr;
  ServerWorkload workload_;
  std::unique_ptr<TxnProcessor> processor_;  // null under the sequential scheme
  std::unique_ptr<McOverlay> overlay_;       // pooled (OCC) scheme only
  std::unique_ptr<UpdateValidator> validator_;
  std::vector<ServerTxn> pending_uplinks_;
  std::vector<ServerTxn> pending_server_;
  /// A drawn server transaction and its commit time.
  struct DrawnTxn {
    ServerTxn txn;
    SimTime time = 0;
  };
  std::vector<DrawnTxn> drawn_;
  Cycle drawn_cycle_ = 0;  ///< the cycle drawn_ holds, 0 when none awaits staging
  std::optional<FrameCodec> frame_codec_;  // channel mode
  // Per-cycle scratch reused across cycles so steady-state cycles allocate
  // nothing: drained dirty columns (delta mode) and the encoded frames.
  std::vector<ObjectId> touched_;
  std::vector<Frame> frames_;
  TraceRing* trace_ = nullptr;
  SimTime cycle_bits_ = 0;

  // The commit clock: virtual time of the next server commit and whether it
  // fires before the flip when it lands on a boundary.
  SimTime next_commit_time_ = 0;
  bool next_commit_pre_flip_ = false;
  uint64_t server_commits_ = 0;
  TxnId next_uplink_id_;

  DecisionLog log_;  // config_.record_decisions
  uint64_t next_seq_ = 1;
  std::vector<size_t> unsequenced_uplinks_;  ///< log indices awaiting the fold
  std::vector<size_t> unsequenced_server_;
};

}  // namespace bcc

#endif  // BCC_SERVER_CYCLE_SERVER_H_
