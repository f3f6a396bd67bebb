// bcc_client's engine: a socket-fed broadcast client. Registers with the
// daemon (HELLO), reassembles each cycle's frames from CYCLE_DATA datagrams
// through the same ChannelReceiver / DeltaMatrixTracker stack the DES
// clients use — real datagram loss and reordering exercise the exact
// stall/desync/resync paths the simulator models — runs a local read
// workload against each ingested cycle, optionally ships update
// transactions over the uplink, and reports ChannelStats + response-time
// quantiles + a state digest when the daemon asks (STATS_REQ).
//
// Workload shape: `txns_per_cycle` transaction slots progress in lockstep
// with the broadcast — each ingested cycle advances every slot by one read
// through the same ClientSession the in-process engines use
// (client/session.h), so a lost page or control column stalls the slot, and
// an abort is attributed and censored, exactly as for a DES client. A
// transaction therefore spans client_txn_length cycles, which is what makes
// multi-cycle F-Matrix validation — and real conflict aborts against the
// server's commit stream — reachable.

#ifndef BCC_NET_CLIENT_RUNTIME_H_
#define BCC_NET_CLIENT_RUNTIME_H_

#include <cstdint>
#include <string>

#include "channel/lossy_channel.h"
#include "net/net_config.h"
#include "obs/trace.h"

namespace bcc {

/// End-of-run summary the client binary prints as JSON.
struct ClientReport {
  uint32_t client_index = 0;
  uint64_t cycles_ingested = 0;
  uint64_t txns = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t update_commits = 0;
  uint64_t update_rejects = 0;
  /// Per-cause abort attribution (the session's breakdown): the causes
  /// other than kCensored sum to `aborts`.
  AbortBreakdown abort_causes;
  uint64_t digest = 0;
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
  ChannelStats channel;
  /// Metrics-registry snapshot (strict JSON), empty when telemetry is off.
  std::string metrics_json;

  std::string ToJson() const;
};

/// Runs the client to completion: HELLO handshake, ingest + local workload
/// until the daemon's STATS_REQ, final STATS report. Blocking.
Status RunClientRuntime(const NetConfig& net, const SimConfig& sim, ClientReport* report);

}  // namespace bcc

#endif  // BCC_NET_CLIENT_RUNTIME_H_
