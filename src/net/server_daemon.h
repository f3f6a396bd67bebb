// bcc_serverd's engine: the broadcast-disk server cycle loop (snapshot ->
// frame-encode -> fan out) over a real UDP socket, plus the client uplink
// (HELLO registration, UPDATE validation through the staged-MC overlay
// path, final STATS collection). Shared by the daemon binary, the net
// bench, and sim_cli --listen.
//
// Determinism contract: with read-only clients the server's end state is a
// pure function of (seed, SimConfig) — the commit stream is replayed from
// ServerWorkload on the DES virtual-time grid (a commit at virtual time t
// belongs to cycle floor(t / cycle_bits); a tie at a cycle boundary belongs
// to the next cycle, matching the event queue's insertion order), entirely
// decoupled from wall-clock pacing and fan-out timing. The loopback test
// relies on this to compare the daemon's digest against the in-process DES
// oracle bit for bit.

#ifndef BCC_NET_SERVER_DAEMON_H_
#define BCC_NET_SERVER_DAEMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/datagram.h"
#include "net/net_config.h"
#include "obs/trace.h"

namespace bcc {

/// One server workload commit, in semantic commit (fold) order. Part of the
/// exported decision log (NetConfig::decisions_out).
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

/// The daemon's exported decision log: everything the offline
/// history/serializability checkers need to audit the run's update
/// sub-history (tests/net_decision_log_test.cc).
struct DecisionLog {
  std::vector<ServerCommitRecord> server_commits;
  std::vector<UplinkDecision> uplinks;

  std::string ToJson() const;
};

/// End-of-run summary the daemon prints as JSON.
struct ServerReport {
  uint64_t cycles = 0;
  uint64_t frames_per_cycle = 0;
  uint64_t server_commits = 0;
  uint64_t uplink_accepts = 0;
  uint64_t uplink_rejects = 0;
  uint64_t datagrams_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t slow_cycles = 0;     ///< paced cycles that overran the watchdog factor
  double max_slip_ms = 0;       ///< worst observed pacing slip
  uint64_t digest = 0;  ///< final-snapshot state digest (net/state_digest.h)
  /// Wall time of the broadcast loop (first cycle's pacing wait through
  /// the last cycle's fan-out and fold) and the cycle rate over it. Set-up,
  /// the HELLO barrier and STATS collection are left out.
  double wall_sec = 0;
  double cycles_per_sec = 0;
  std::vector<StatsMsg> clients;  ///< final report of every registered client
  /// Metrics-registry snapshot (strict JSON), empty when telemetry is off.
  std::string metrics_json;
  /// Populated when NetConfig::decisions_out is set (also written there).
  DecisionLog decisions;

  std::string ToJson() const;
};

/// Runs the daemon to completion: bind + endpoint file, HELLO barrier,
/// `sim.stop_after_cycles` broadcast cycles, STATS collection. Blocking.
Status RunServerDaemon(const NetConfig& net, const SimConfig& sim, ServerReport* report);

}  // namespace bcc

#endif  // BCC_NET_SERVER_DAEMON_H_
