// The closed-loop broadcast-disk simulation of Section 4.
//
// One server (update transactions completing at a fixed rate, executed
// serially) and one or more clients (read-only transactions reading "off
// the air", optionally update transactions committing over the uplink)
// share a simulated broadcast channel clocked in bit-units. Each cycle the
// server broadcasts every object followed by its control-information share;
// a client waits for an object's slot, validates the read against the
// cycle's control snapshot using the configured algorithm, and aborts/
// restarts on a failed read condition.
//
// The paper simulates exactly one client because read-only transactions
// never feed back into the server; with the client-update extension
// (client_update_fraction > 0) multiple clients do interact through the
// server's validator, so num_clients becomes meaningful.

#ifndef BCC_SIM_BROADCAST_SIM_H_
#define BCC_SIM_BROADCAST_SIM_H_

#include <memory>
#include <optional>
#include <vector>

#include "channel/lossy_channel.h"
#include "client/session.h"
#include "common/statusor.h"
#include "des/event_queue.h"
#include "history/history.h"
#include "matrix/group_matrix.h"
#include "obs/trace.h"
#include "server/broadcast_server.h"
#include "server/exec/txn_processor.h"
#include "server/mc_overlay.h"
#include "server/validator.h"
#include "sim/config.h"
#include "sim/metrics.h"
#include "sim/workload.h"

namespace bcc {

/// First TxnId used for client read-only transactions in recorded oracle
/// histories (server transactions count up from 1); client update
/// transactions use ids from 2 * kClientTxnIdBase.
inline constexpr TxnId kClientTxnIdBase = 1u << 20;

/// One simulation run. Construct, Run() once, then inspect.
class BroadcastSim {
 public:
  explicit BroadcastSim(SimConfig config);
  ~BroadcastSim();

  /// Executes the run to completion (num_client_txns transactions committed
  /// across all clients).
  StatusOr<SimSummary> Run();

  const SimConfig& config() const { return config_; }
  const ServerTxnManager& manager() const { return *manager_; }
  /// Per-client transaction decision logs, in completion order (empty
  /// unless config.record_decisions).
  const std::vector<std::vector<TxnDecision>>& decisions() const { return decisions_; }
  /// Aggregate cache counters across clients (0s when caching is off).
  uint64_t TotalCacheHits() const;
  uint64_t TotalCacheMisses() const;

  /// Reconstructs the paper-semantics global history of the run: per cycle,
  /// client reads (which observe the state at the beginning of the cycle)
  /// precede the server transactions committed during that cycle. Requires
  /// config.record_history.
  StatusOr<History> BuildOracleHistory() const;

  /// End-to-end consistency audit (requires config.record_history):
  ///   1. every value a committed client transaction read matches the
  ///      reads-from relation of the oracle history (currency + atomicity);
  ///   2. the oracle history passes APPROX (mutual consistency);
  ///   3. under Datacycle, the oracle history is conflict serializable.
  Status VerifyOracle() const;

  /// Delta-mode audit (requires config.delta_broadcast, after Run): every
  /// synced client tracker's reconstructed matrix must be entry-wise
  /// congruent mod 2^ts to the server's unbounded-cycle matrix of the final
  /// broadcast cycle — the invariant that makes delta-mode read decisions
  /// bit-identical to full-matrix broadcast. Desynced trackers (possible
  /// only via the delta_desync_at_cycle knob, or through real loss in
  /// channel mode) are skipped, as are channel-mode trackers whose final
  /// cycle's control block was lost.
  Status VerifyDeltaTrackers() const;

  /// The final broadcast cycle's snapshot (valid after Run). The networked
  /// tier's loopback test digests this as the in-process oracle for the
  /// daemon's end state.
  const CycleSnapshot& final_snapshot() const { return server_->snapshot(); }

  /// Attaches an event tracer (not owned; must outlive the sim). Call before
  /// Run: tracks — "server" plus one per client — are registered during
  /// setup. Tracing is purely observational: it consumes no RNG draws and
  /// schedules no events, so enabling it never changes any decision.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  struct ClientTxnLog {
    TxnId id;
    std::vector<ReadRecord> reads;
    std::vector<ObjectVersion> values;
  };

  // Delta-mode per-cycle plumbing: drains the dirty columns into this
  // cycle's DeltaControl and feeds it to every client's tracker (directly,
  // or through the receivers in channel mode).
  void AttachAndObserveDelta();

  // Sparse/hier end-of-cycle control-plane step, run when cycle `ending`
  // closes: accounts the cycle's control footprint (matrix.nnz, control
  // bits), runs scheduled sparse compaction, and drives the hierarchical
  // refinement/regroup policy (HierMatrix::EndOfCycle) with the run's
  // cumulative control-conflict abort count. No-op in dense mode.
  void EndOfCycleMatrixStep(Cycle ending);

  // Channel-mode per-cycle plumbing: packetizes the cycle's broadcast and
  // delivers each client its independently-faulted copy.
  void TransmitCycle();

  // Event handlers (`c` = client index).
  void StartNextCycle();
  void ServerCommitEvent();
  void SubmitClientTxn(size_t c);
  void BeginReadOp(size_t c);          // after think time: cache or broadcast
  void PerformBroadcastRead(size_t c);
  /// Schedules client `c`'s next event after a session step.
  void OnStep(size_t c, TxnStep step);
  void SendUplinkCommit(size_t c);     // client update txn: ship reads+writes
  void CompleteTxn(size_t c, bool censored);

  SimConfig config_;
  BroadcastGeometry geometry_;
  EventQueue queue_;

  std::unique_ptr<ServerTxnManager> manager_;
  std::unique_ptr<BroadcastServer> server_;
  /// Hier mode: raw pointer into the manager's HierMatrix, grabbed once at
  /// setup. Protocol scans go through this pointer WITHOUT the flushing
  /// accessor, so mid-cycle validation always sees the frozen
  /// begin-of-cycle view; the batch flush happens at cycle boundaries
  /// (BuildSnapshot / EndOfCycleMatrixStep).
  HierMatrix* hier_ = nullptr;
  std::unique_ptr<ServerWorkload> server_workload_;
  std::unique_ptr<UpdateValidator> validator_;
  /// Pooled update engine and its per-cycle staging queue (null/unused in
  /// sequential mode).
  std::unique_ptr<TxnProcessor> txn_processor_;
  std::vector<ServerTxn> pending_server_txns_;
  /// Pooled mode + client updates: the cycle-epoch MC overlay the validator
  /// merges read-only (staged at ServerCommitEvent/acceptance time, cleared
  /// at the fold), and the accepted uplink transactions awaiting the serial
  /// prefix of the fold (acceptance order = fold order).
  std::unique_ptr<McOverlay> mc_overlay_;
  std::vector<ServerTxn> pending_uplink_txns_;
  /// One session and one in-flight transaction per client.
  std::vector<std::unique_ptr<ClientSession>> sessions_;
  std::vector<ReadTxn> txns_;
  std::optional<FrameCodec> frame_codec_;   // channel mode
  std::unique_ptr<LossyChannel> channel_;   // channel mode
  // Per-cycle scratch reused across cycles so steady-state cycles allocate
  // nothing: drained dirty columns (delta mode) and the encoded frame vector
  // with its per-frame byte buffers (channel mode).
  std::vector<ObjectId> touched_scratch_;
  std::vector<Frame> frame_scratch_;
  SimMetrics metrics_;
  Tracer* tracer_ = nullptr;        // not owned; null = tracing off
  TraceRing* server_trace_ = nullptr;

  uint32_t completed_txns_ = 0;
  TxnId next_client_update_id_ = 2 * kClientTxnIdBase;  // disjoint id range
  bool done_ = false;
  bool ran_ = false;

  // Oracle logs (committed read-only client transactions, all clients).
  std::vector<ClientTxnLog> oracle_client_txns_;

  // Cross-check decision logs (config_.record_decisions only).
  std::vector<std::vector<TxnDecision>> decisions_;
};

/// Convenience: run one configuration and return its summary.
StatusOr<SimSummary> RunSimulation(const SimConfig& config);

// Server set-up shared by BroadcastSim and ConcurrentSim.

/// The structures the server's manager maintains under `config`.
TxnManagerOptions ManagerOptionsFor(const SimConfig& config);

/// Installs `config`'s multi-speed schedule and fixed-g partition on
/// `server` (before its first cycle).
Status ConfigureBroadcastServer(const SimConfig& config, BroadcastServer& server);

/// The pooled update engine for a non-sequential update_scheme, lending its
/// worker pool to `manager`'s cycle-batch fold; null for kSequential.
std::unique_ptr<TxnProcessor> MakePooledProcessor(const SimConfig& config,
                                                  ServerTxnManager& manager);

/// The pooled engine's cycle-boundary fold: the accepted `uplinks` commit
/// first as a serial prefix in acceptance order, then the cycle's pooled
/// `server_txns`; both fold into `manager` under `cycle` and are cleared,
/// and `overlay` (uplink mode) retires its epoch. No-op without a
/// `processor` (sequential update scheme).
void FoldPooledCycle(TxnProcessor* processor, ServerTxnManager& manager, Cycle cycle,
                     std::vector<ServerTxn>& uplinks, std::vector<ServerTxn>& server_txns,
                     McOverlay* overlay);

/// Emits a server commit of transaction `id` at `time` in `cycle`; no-op on
/// a null ring.
void TraceServerCommit(TraceRing* ring, SimTime time, Cycle cycle, TxnId id);

/// Emits the cycle-start slice and broadcast-tx instant of the cycle
/// `server` just began; no-op on a null ring.
void TraceCycleStart(TraceRing* ring, const BroadcastServer& server);

/// Runs `config` twice — once with full-matrix control broadcast, once in
/// snapshot+delta mode — and verifies identical per-client commit/abort
/// decisions, identical server state, and the delta run's reconstruction
/// invariant (VerifyDeltaTrackers). Also checks the delta run never shipped
/// more control bits than the full-matrix baseline. `config` is taken as the
/// delta-mode run (delta_broadcast is forced on, record_decisions forced on);
/// requires stop_after_cycles > 0 for a timing-independent cutoff. Returns
/// Internal with a description of the first divergence.
Status CrossCheckDeltaBroadcast(SimConfig config);

/// Runs `config` twice — once with the direct in-process handoff, once with
/// the broadcast channel at all fault rates forced to 0 — and verifies that
/// the channel path is bit-exact with the direct path: identical per-client
/// decision logs, identical server state, and an identical summary in every
/// non-channel field. Works for both full and delta control modes (set
/// config.delta_broadcast accordingly). record_decisions is forced on;
/// requires stop_after_cycles > 0 for a timing-independent cutoff. Returns
/// Internal with a description of the first divergence.
Status CrossCheckLossless(SimConfig config);

/// Runs `config` twice — once with the dense control matrix, once with
/// matrix_mode=sparse — and verifies the sparse representation is
/// bit-exact: identical per-client decision logs, identical server stores,
/// value-identical control matrices (sparse vs dense oracle), and an
/// identical summary in every decision-relevant field. Works with delta
/// broadcast and the lossy channel enabled (the sparse run reuses the same
/// seeded loss pattern because frames are byte-identical). Rejects
/// sparse_compaction_period > 0: compaction aliases stale entries upward and
/// the server's dependency fold mixes them with in-window values, so a
/// compacted run is conservative-safe (audited by VerifyOracle), not
/// bit-identical. record_decisions is forced on; requires
/// stop_after_cycles > 0. `config` is taken as the sparse run.
Status CrossCheckSparseMode(SimConfig config);

}  // namespace bcc

#endif  // BCC_SIM_BROADCAST_SIM_H_
