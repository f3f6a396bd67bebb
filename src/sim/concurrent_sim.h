// Shared-memory concurrent broadcast engine.
//
// The DES in sim/broadcast_sim.h interleaves one server and N clients on a
// single thread. This engine runs them on real threads, with a broadcast
// cycle as the epoch: client threads execute read-only transactions against
// the immutable snapshot of cycle k while the server thread stages and
// folds cycle k's commits into its private state, and at the cycle boundary
// — one CycleGate hand-off: each client arrives without waiting and sleeps
// once — the server publishes the snapshot of cycle k+1. Readers never
// observe a half-updated matrix, so Theorem 1's equivalence holds for every
// transaction exactly as in the sequential engine; see DESIGN.md,
// "Concurrent engine".
//
// Determinism: each client's event timeline is private and seeded and
// replays the DES's event semantics, including its tie-breaking at cycle
// boundaries (PhaseOf in server/cycle_server.h). With read-only clients, or
// one update client, a run's decisions are therefore a pure function of the
// SimConfig, and CrossCheckEngines demands that they equal the DES's. With
// two or more update clients they are not: the order in which client
// threads reach the validator desk within a phase is thread timing, so of
// two conflicting uplinks in one phase either can be the one rejected. Such
// runs are serializable, but outside the cross-check.

#ifndef BCC_SIM_CONCURRENT_SIM_H_
#define BCC_SIM_CONCURRENT_SIM_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "channel/lossy_channel.h"
#include "client/read_txn.h"
#include "common/statusor.h"
#include "obs/trace.h"
#include "server/cycle_server.h"
#include "sim/config.h"

namespace bcc {

/// Aggregate results of one concurrent run.
struct ConcurrentSummary {
  uint64_t cycles = 0;            ///< broadcast cycles fully executed
  uint64_t server_commits = 0;    ///< update transactions committed (incl. uplink commits)
  uint64_t completed_txns = 0;    ///< client transactions completed
  uint64_t censored_txns = 0;     ///< force-completed by the restart guard
  uint64_t total_restarts = 0;    ///< aborts across all completed txns
  uint64_t client_update_commits = 0;  ///< uplink transactions accepted at validation
  uint64_t client_update_rejects = 0;  ///< uplink transactions rejected at validation
  /// Channel counters summed over all clients (channel_broadcast mode).
  ChannelStats channel;
  /// Per-cause abort breakdown, accumulated per client thread and merged
  /// after join. Bit-identical to the sequential engine's on cross-check
  /// configurations (counts commute, so merge order is irrelevant).
  AbortBreakdown abort_causes;
};

/// One concurrent run. Construct, Run() once, then inspect. Run() spawns
/// config.num_clients client threads plus uses the calling thread as the
/// server; it returns after all threads joined.
///
/// The server thread drives the same CycleServer as the DES. Without client
/// updates it stages and folds cycle k during phase k. With them it stages
/// cycle k in the exclusive section before phase k and folds it in the one
/// after, so the manager and overlay stay fixed for the whole phase while
/// uplinks validate one at a time at a "desk" mutex (DESIGN.md, "Cycle
/// server"); during phase k it draws cycle k+1's transactions. Each client
/// thread feeds the published delta block or frames to its own tracker or
/// receiver at phase start.
///
/// Config restrictions (InvalidArgument otherwise):
///   - client caching: the timelines have no cache-hit path;
///   - matrix_mode = hier: client reads scan the server's live hierarchical
///     matrix, which the server thread mutates during the phase;
///   - client updates under the sequential scheme: an accepted uplink would
///     commit into the manager mid-phase.
class ConcurrentSim {
 public:
  explicit ConcurrentSim(SimConfig config);
  ~ConcurrentSim();

  StatusOr<ConcurrentSummary> Run();

  const SimConfig& config() const { return config_; }
  /// Final server state (valid after Run).
  const ServerTxnManager& manager() const { return server_->manager(); }
  /// Per-client transaction decision logs, in completion order (empty
  /// unless config.record_decisions).
  const std::vector<std::vector<TxnDecision>>& decisions() const { return decisions_; }
  /// The server's decision log (empty unless config.record_decisions).
  const DecisionLog& server_decisions() const { return server_->decisions(); }

  /// Attaches an event tracer (not owned; must outlive the sim). Call before
  /// Run. Tracks — "server" plus one per client — are registered before any
  /// thread spawns, and each ring is written by exactly one thread for the
  /// whole run (single-writer, lock-free, TSan-clean). Purely observational.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  struct ClientTimeline;

  /// Executes every event of client `cl` belonging to broadcast cycle
  /// `phase`, reading from the immutable `snap` (= cycle `phase`'s state).
  void ProcessClientPhase(ClientTimeline& cl, Cycle phase, const CycleSnapshot& snap);

  SimConfig config_;
  BroadcastGeometry geometry_;
  SimTime cycle_bits_ = 0;

  /// The server. Its snapshot and frames are the on-air state of the
  /// current cycle: written by the server thread only in the gate's
  /// exclusive section (after every client arrived, before the publish),
  /// read by client threads only during the work phase. During the phase
  /// the server thread touches only what no client reads (with uplinks, the
  /// next cycle's draw).
  std::unique_ptr<CycleServer> server_;
  /// Uplink mode: the validator desk. Desk order is acceptance order is fold
  /// order.
  std::mutex uplink_mu_;
  std::vector<std::unique_ptr<ClientTimeline>> clients_;
  std::unique_ptr<LossyChannel> channel_;  // channel mode

  /// Completed client transactions across all threads; drives the
  /// transaction-count cutoff when stop_after_cycles is 0.
  std::atomic<uint64_t> completions_{0};

  std::vector<std::vector<TxnDecision>> decisions_;
  Tracer* tracer_ = nullptr;         // not owned; null = tracing off
  bool ran_ = false;
};

/// Runs `config` through both the single-threaded BroadcastSim and the
/// ConcurrentSim and verifies that they made identical commit/abort
/// decisions and reached identical server state (store, F-Matrix, MC
/// vector, commit count). Requires config.stop_after_cycles > 0 so both
/// engines observe the same timing-independent cutoff; record_decisions is
/// forced on and the transaction-count cutoff is disabled internally.
/// Returns Internal with a description of the first divergence.
Status CrossCheckEngines(SimConfig config);

}  // namespace bcc

#endif  // BCC_SIM_CONCURRENT_SIM_H_
