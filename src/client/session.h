// The paper's read-only client (Section 3.2.1), written once for every
// engine.
//
// A read-only client never contacts the server. Before each read it checks
// its algorithm's read condition against the control information broadcast
// in that cycle, stalls rather than validate against stale control (the
// missed-cycle rule), and restarts on failure. ClientSession owns what that
// loop needs for one client: the workload stream, the optional cache, delta
// tracker and channel receiver, the protocol's override wiring, abort
// attribution and the completion counters. ReadTxn is one in-flight
// transaction. The engines (BroadcastSim, ConcurrentSim, the socket client)
// keep only time, threads, sockets and event scheduling: when a read's slot
// arrives they ask Gate, then Stall or Read, and schedule the TxnStep.

#ifndef BCC_CLIENT_SESSION_H_
#define BCC_CLIENT_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "client/cache.h"
#include "client/delta_tracker.h"
#include "client/read_txn.h"
#include "client/receiver.h"
#include "obs/trace.h"
#include "sim/config.h"
#include "sim/workload.h"

namespace bcc {

/// Whether this cycle's broadcast can validate a read of one object.
enum class ReadGate : uint8_t {
  kReady,
  kStallLoss,    ///< the object's page or control column was lost this cycle
  kStallDesync,  ///< the delta tracker cannot validate anything this cycle
};

/// What the engine schedules after a read or an abort.
enum class TxnStep : uint8_t {
  kNextRead,   ///< the read passed and more remain
  kReadsDone,  ///< the last read passed: ship the uplink (update) or Complete
  kRestart,    ///< aborted: rerun the transaction from its first read
  kCensor,     ///< aborted at max_restarts_per_txn: Complete(censored = true)
};

/// One in-flight transaction, reused across restarts and for the client's
/// next transaction. ClientSession::NewTxn builds it wired to the session.
struct ReadTxn {
  ReadTxn(Algorithm algorithm, std::optional<CycleStampCodec> codec)
      : protocol(algorithm, codec) {}

  ObjectId next_object() const { return read_set[read_idx]; }

  ReadOnlyTxnProtocol protocol;
  std::vector<ObjectId> read_set;
  std::vector<ObjectId> write_set;  ///< nonempty iff is_update; kept across restarts
  size_t read_idx = 0;
  uint32_t restarts = 0;
  bool is_update = false;
  /// The attempt stalled with a receiver attached (any stall in channel
  /// mode): its abort is attributed to kChannelLoss.
  bool loss_stalled = false;
  /// The attempt stalled on an unusable delta tracker.
  bool desync_stalled = false;
  SimTime begin_time = 0;  ///< when Begin drew the transaction
};

/// One client. Neither copyable nor movable: its transactions point into
/// its tracker and receiver.
class ClientSession {
 public:
  /// Builds a QuasiCache when config.enable_cache, a DeltaMatrixTracker when
  /// delta_broadcast (sparse in sparse direct mode), and a ChannelReceiver
  /// when channel_broadcast. `rng` is the client's split of the root RNG;
  /// `hier` is the server's matrix in matrix_mode = hier.
  ClientSession(const SimConfig& config, Rng rng, HierMatrix* hier = nullptr);
  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  /// A transaction validating against the session's control sources: the
  /// tracker's matrix in delta mode, the receiver's values (and, without a
  /// tracker, its matrix) in channel mode, or `hier`.
  ReadTxn NewTxn() const;

  /// Traces the session's events, and its receiver's and tracker's, to
  /// `ring` (null: off).
  void set_trace_ring(TraceRing* ring);

  /// Draws the next transaction: read set, then — with client updates on —
  /// the update coin and write set.
  void Begin(ReadTxn& txn, SimTime now);

  /// The missed-cycle rule: a read of `ob` in `cycle` validates only against
  /// control information and data received in that cycle. A stale column
  /// could carry lower stamps than the current matrix and falsely accept a
  /// read, so loss means stalling, never substituting older state.
  ReadGate Gate(ObjectId ob, Cycle cycle) const;

  /// Accounts a stalled read (`gate` != kReady); the engine retries it at
  /// the object's slot in a later cycle.
  void Stall(ReadTxn& txn, ReadGate gate, SimTime now, Cycle cycle);

  /// Serves the next read from the cache; nullopt when there is no cache
  /// or no valid entry (read off the air instead).
  std::optional<TxnStep> ReadCached(ReadTxn& txn, const CycleSnapshot& snap, SimTime now);

  /// Reads and validates the next object off the air (gated kReady),
  /// caching it on success and aborting on failure.
  TxnStep Read(ReadTxn& txn, const CycleSnapshot& snap, SimTime now);

  /// Think time before the next read event after `step`: one inter-op
  /// delay after kNextRead; restart_delay plus one after kRestart.
  SimTime ThinkTime(TxnStep step);

  /// Accounts the server's verdict on an update transaction's uplink.
  void UplinkVerdict(bool accepted, SimTime now, Cycle cycle);

  /// Aborts the attempt. Attribution precedence: an attempt that stalled on
  /// loss spanned extra cycles because of it, so the loss outranks the
  /// protocol's cause; a desync stall likewise. An uplink rejection keeps
  /// its cause: it is the server's verdict on the whole attempt. Returns
  /// kCensor at max_restarts_per_txn, else resets `txn` for its restart.
  TxnStep Abort(ReadTxn& txn, AbortInfo info, SimTime now, Cycle cycle);

  /// Completes the transaction, committed or censored (counted as a
  /// kCensored abort on top of the final attempt's cause).
  void Complete(const ReadTxn& txn, bool censored, SimTime now, Cycle cycle);

  ClientWorkload& workload() { return workload_; }
  QuasiCache* cache() const { return cache_.get(); }
  DeltaMatrixTracker* tracker() const { return tracker_.get(); }
  ChannelReceiver* receiver() const { return receiver_.get(); }

  const AbortBreakdown& abort_causes() const { return abort_causes_; }
  /// In completion order; empty unless config.record_decisions.
  std::vector<TxnDecision>& decisions() { return decisions_; }
  uint64_t completed() const { return completed_; }
  uint64_t censored() const { return censored_; }
  uint64_t restarts() const { return restarts_; }  ///< over completed transactions
  uint64_t update_commits() const { return update_commits_; }
  uint64_t update_rejects() const { return update_rejects_; }

 private:
  void Trace(TraceEventType type, SimTime now, Cycle cycle, ObjectId object, uint64_t value,
             const AbortInfo& abort = {}) const;

  const SimConfig config_;
  ClientWorkload workload_;
  std::unique_ptr<QuasiCache> cache_;
  std::unique_ptr<DeltaMatrixTracker> tracker_;
  std::unique_ptr<ChannelReceiver> receiver_;
  HierMatrix* hier_;
  TraceRing* trace_ = nullptr;

  AbortBreakdown abort_causes_;
  std::vector<TxnDecision> decisions_;
  uint64_t completed_ = 0;
  uint64_t censored_ = 0;
  uint64_t restarts_ = 0;
  uint64_t update_commits_ = 0;
  uint64_t update_rejects_ = 0;
};

}  // namespace bcc

#endif  // BCC_CLIENT_SESSION_H_
