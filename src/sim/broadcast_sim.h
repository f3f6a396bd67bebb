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
#include <vector>

#include "channel/lossy_channel.h"
#include "client/session.h"
#include "common/statusor.h"
#include "des/event_queue.h"
#include "history/history.h"
#include "obs/trace.h"
#include "server/cycle_server.h"
#include "sim/config.h"
#include "sim/metrics.h"

namespace bcc {

/// One simulation run. Construct, Run() once, then inspect.
class BroadcastSim {
 public:
  explicit BroadcastSim(SimConfig config);
  ~BroadcastSim();

  /// Executes the run to completion (num_client_txns transactions committed
  /// across all clients).
  StatusOr<SimSummary> Run();

  const SimConfig& config() const { return config_; }
  const ServerTxnManager& manager() const { return server_->manager(); }
  /// Per-client transaction decision logs, in completion order (empty
  /// unless config.record_decisions).
  const std::vector<std::vector<TxnDecision>>& decisions() const { return decisions_; }

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
  /// The server's decision log (empty unless config.record_decisions).
  const DecisionLog& server_decisions() const { return server_->decisions(); }

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

  // Puts cycle `cycle` on the air: every client takes in its control
  // broadcast, the cycle's server commits are staged, and the flip that
  // ends it is scheduled.
  void BeginCycle(Cycle cycle);

  // Event handlers (`c` = client index).
  void StartNextCycle();
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

  std::unique_ptr<CycleServer> server_;
  /// One session and one in-flight transaction per client.
  std::vector<std::unique_ptr<ClientSession>> sessions_;
  std::vector<ReadTxn> txns_;
  std::unique_ptr<LossyChannel> channel_;   // channel mode
  SimMetrics metrics_;
  Tracer* tracer_ = nullptr;        // not owned; null = tracing off

  uint32_t completed_txns_ = 0;
  bool done_ = false;
  bool ran_ = false;

  // Oracle logs (committed read-only client transactions, all clients).
  std::vector<ClientTxnLog> oracle_client_txns_;

  // Cross-check decision logs (config_.record_decisions only).
  std::vector<std::vector<TxnDecision>> decisions_;
};

/// Convenience: run one configuration and return its summary.
StatusOr<SimSummary> RunSimulation(const SimConfig& config);

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
