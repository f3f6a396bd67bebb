// bcc_serverd's engine: the broadcast-disk server cycle loop (snapshot ->
// frame-encode -> fan out) over a real UDP socket, plus the client uplink
// (HELLO registration, UPDATE validation through the staged-MC overlay
// path, final STATS collection). Shared by the daemon binary, the net
// bench, and sim_cli --listen.
//
// Determinism contract: with read-only clients the server's end state is a
// pure function of (seed, SimConfig) — the daemon drives the same
// CycleServer as the in-process engines, whose commit stream runs on the
// DES virtual-time grid (the boundary rule places a commit that lands
// exactly on a cycle boundary), entirely decoupled from wall-clock pacing
// and fan-out timing. The loopback test relies on this to compare the
// daemon's digest against the in-process DES oracle bit for bit.

#ifndef BCC_NET_SERVER_DAEMON_H_
#define BCC_NET_SERVER_DAEMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/datagram.h"
#include "net/net_config.h"
#include "obs/trace.h"
#include "server/cycle_server.h"  // DecisionLog

namespace bcc {

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
