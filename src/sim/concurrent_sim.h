// Shared-memory concurrent broadcast engine.
//
// The DES in sim/broadcast_sim.h interleaves one server and N clients on a
// single thread. This engine runs them on real threads using the epoch
// structure the broadcast model already implies: a broadcast cycle is an
// epoch. While client threads concurrently execute read-only transactions
// against an immutable snapshot of cycle k (values + F-Matrix column per
// read, validated with the paper's C(i, j) < cycle read condition), the
// server thread applies cycle k's update commits to its private staging
// state (two-version store + Theorem 2 incremental F-Matrix). At the cycle
// boundary — a pair of std::barrier rendezvous — the server materializes
// the staging state as the immutable snapshot of cycle k+1 and publishes
// it. Readers never observe a half-updated matrix, so Theorem 1's
// equivalence (read conditions pass iff the serialization graph is acyclic)
// holds for every transaction exactly as in the sequential engine; see
// DESIGN.md, "Concurrent engine".
//
// Determinism: client reads touch only the published snapshot and the
// server touches only its staging state, so within an epoch no ordering
// between threads is observable. Each client's event timeline (think
// times, slot waits, restarts) is private and seeded, and the engine
// reproduces the DES's event semantics per client — including its
// (time, insertion-order) tie-breaking at cycle boundaries — so a run's
// commit/abort decisions are a pure function of the SimConfig. The
// cross-check below replays the same seeded workload through the
// single-threaded BroadcastSim and demands identical per-client decision
// logs and identical final server state.

#ifndef BCC_SIM_CONCURRENT_SIM_H_
#define BCC_SIM_CONCURRENT_SIM_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "channel/frame.h"
#include "channel/lossy_channel.h"
#include "client/read_txn.h"
#include "common/statusor.h"
#include "obs/trace.h"
#include "server/broadcast_server.h"
#include "server/exec/txn_processor.h"
#include "server/mc_overlay.h"
#include "server/txn_manager.h"
#include "server/validator.h"
#include "sim/config.h"
#include "sim/metrics.h"
#include "sim/workload.h"

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
/// Config restrictions (InvalidArgument otherwise): client caching is not
/// supported yet (quasi-cache currency is wall-clock based). Client update
/// transactions are supported with a pooled update scheme only: uplink
/// validation serializes through a per-run "desk" mutex over the validator,
/// the cycle-epoch McOverlay, and the pending-uplink list, while the manager
/// itself is mutated only inside the cycle-boundary exclusive section (the
/// fold), so mid-phase MC reads are race-free. The engine stages a phase's
/// server transactions — and their overlay MC effects — in the *previous*
/// exclusive section, so an uplink validated mid-phase sees every server
/// write of its cycle (conservative relative to the DES, which only sees the
/// commits whose events already fired; pooled configurations are outside the
/// bit-parity cross-check either way). Under the sequential scheme uplink
/// commits would mutate the manager mid-phase, so that combination stays
/// rejected. channel_broadcast is supported in full control mode: the server thread
/// packetizes each cycle's broadcast in the exclusive section and every
/// client thread runs its own fault channel + receiver (thread-local state,
/// independent per-client RNG streams, so the lossy run is as deterministic
/// — and as TSan-clean — as the lossless one). channel + delta is rejected
/// along with delta itself.
class ConcurrentSim {
 public:
  explicit ConcurrentSim(SimConfig config);
  ~ConcurrentSim();

  StatusOr<ConcurrentSummary> Run();

  const SimConfig& config() const { return config_; }
  /// Final server state (valid after Run).
  const ServerTxnManager& manager() const { return *manager_; }
  /// Per-client transaction decision logs, in completion order (empty
  /// unless config.record_decisions).
  const std::vector<std::vector<TxnDecision>>& decisions() const { return decisions_; }

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

  /// Executes every server commit belonging to broadcast cycle `phase`
  /// into the staging manager. In pooled mode (update_scheme !=
  /// kSequential) the phase's transactions run concurrently on the
  /// TxnProcessor and their serialization order is folded before returning,
  /// so the snapshot published at the next barrier sees them all. In uplink
  /// mode it only generates the phase's transactions and stages their MC
  /// effects into the overlay, without touching the manager; it then runs
  /// inside the exclusive section *before* the phase's client work, so the
  /// overlay is immutable to the server for the whole phase and every
  /// mid-phase uplink validation sees the cycle's server writes (conservative
  /// relative to the DES's event-time staging).
  void ProcessServerPhase(Cycle phase);

  SimConfig config_;
  BroadcastGeometry geometry_;
  SimTime cycle_bits_ = 0;

  std::unique_ptr<ServerTxnManager> manager_;
  std::unique_ptr<BroadcastServer> server_;
  std::unique_ptr<ServerWorkload> server_workload_;
  /// Pooled update engine and its per-phase staging queue (null/unused in
  /// sequential mode). Touched only by the server thread.
  std::unique_ptr<TxnProcessor> txn_processor_;
  std::vector<ServerTxn> pending_server_txns_;
  /// Uplink mode (client_update_fraction > 0, pooled scheme). The desk
  /// mutex serializes every mid-phase uplink validation: it guards the
  /// validator, the overlay, the pending-uplink list, and the id counter.
  /// Desk order is acceptance order is fold order. The server thread reads
  /// this state only inside the exclusive section (the barriers order it
  /// against the phase's desk traffic).
  std::unique_ptr<UpdateValidator> validator_;
  std::unique_ptr<McOverlay> mc_overlay_;
  std::vector<ServerTxn> pending_uplink_txns_;
  std::mutex uplink_mu_;
  TxnId next_client_update_id_ = 0;
  std::vector<std::unique_ptr<ClientTimeline>> clients_;

  /// The on-air snapshot of the current cycle. Written by the server thread
  /// only between the phase-end and publish barriers (while every client
  /// thread is blocked); read by client threads only during the work phase.
  std::shared_ptr<const CycleSnapshot> published_;
  /// Channel mode: the current cycle's frame sequence, published alongside
  /// the snapshot under the same barrier discipline. Clients transmit it
  /// through their own fault links (disjoint LossyChannel per-client state).
  std::shared_ptr<const std::vector<Frame>> published_frames_;
  std::optional<FrameCodec> frame_codec_;  // channel mode
  std::unique_ptr<LossyChannel> channel_;  // channel mode

  // Server-side commit event state (mirrors the DES commit stream).
  SimTime next_commit_time_ = 0;
  bool next_commit_pre_flip_ = false;
  uint64_t server_commits_ = 0;

  /// Completed client transactions across all threads; drives the
  /// transaction-count cutoff when stop_after_cycles is 0.
  std::atomic<uint64_t> completions_{0};

  std::vector<std::vector<TxnDecision>> decisions_;
  Tracer* tracer_ = nullptr;         // not owned; null = tracing off
  TraceRing* server_trace_ = nullptr;
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
