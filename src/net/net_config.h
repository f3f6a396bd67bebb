// Shared configuration for the real-transport broadcast tier (DESIGN.md
// §4j): everything `bcc_serverd`, `bcc_client`, and `sim_cli --listen/
// --connect` need to agree on, parsed in exactly one place so the
// in-process and networked tiers take identical configuration.

#ifndef BCC_NET_NET_CONFIG_H_
#define BCC_NET_NET_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/statusor.h"
#include "sim/config.h"

namespace bcc {

/// A parsed "ip:port" endpoint (IPv4 dotted quad).
struct Endpoint {
  std::string ip = "127.0.0.1";
  uint16_t port = 0;

  std::string ToString() const;
};

/// Parses "ip:port" (port required; ip may be empty meaning 0.0.0.0).
StatusOr<Endpoint> ParseEndpoint(const std::string& text);

/// Transport-tier knobs shared by the daemon and the client runtime.
struct NetConfig {
  /// Server: uplink bind address; port 0 picks an ephemeral port (written to
  /// `endpoint_file` so test harnesses can discover it).
  std::string listen;
  /// Client: the server's resolved uplink endpoint.
  std::string connect;
  /// Optional UDP multicast group ("ip:port", 224.0.0.0/4). When set the
  /// server pushes cycle datagrams to the group (clients join it); when empty
  /// the server falls back to sendmmsg-batched unicast fan-out over the
  /// addresses learned from client HELLOs.
  std::string multicast;
  /// Server: file to write the resolved "ip:port" uplink endpoint to.
  std::string endpoint_file;
  /// Server: HELLO registrations to wait for before broadcasting cycle 1.
  uint32_t expected_clients = 1;
  /// Max UDP payload bytes per cycle datagram (frames are packed to fit).
  uint32_t dgram_bytes = 1400;
  /// Wall-clock pacing: cycle k may not start before (k-1)/rate seconds
  /// after cycle 1. 0 broadcasts as fast as the fan-out completes.
  double pace_cycles_per_sec = 0.0;
  /// Client: read transactions attempted per ingested cycle.
  uint32_t txns_per_cycle = 4;
  /// SO_RCVBUF sizing for the client's broadcast socket: at loss rate 0 on
  /// loopback every datagram the kernel can buffer is eventually delivered,
  /// so a buffer covering the whole run makes the tier bit-deterministic.
  uint32_t rcvbuf_bytes = 1u << 22;
  /// Client id reported in HELLO (defaults to the OS pid when 0).
  uint32_t client_id = 0;
  /// Server: ms to wait for HELLOs / final STATS before giving up.
  uint64_t hello_timeout_ms = 15000;
  uint64_t stats_timeout_ms = 10000;
  /// Hard wall-clock ceiling for either binary (watchdog; 0 = none).
  uint64_t max_wall_ms = 0;
  /// Path to write the run summary JSON to ("" = stdout only).
  std::string json_out;

  // --- live telemetry (DESIGN.md §4k) ---
  /// Master switch for the metrics registry. Off by default so the
  /// branch-on-null zero-observer-effect contract holds for plain runs; any
  /// of the telemetry outputs below implies it (see TelemetryEnabled).
  bool metrics = false;
  /// Periodic JSON-lines metrics snapshots: path and period. Both must be
  /// set for the logger to run.
  std::string metrics_out;
  uint64_t metrics_interval_ms = 0;
  /// Chrome trace_event output (Perfetto-loadable): one track per client
  /// plus the server cycle track, wall-clock microsecond timestamps.
  std::string trace_out;
  uint32_t trace_capacity = 4096;
  /// Daemon: log a structured slow_cycle warning (and count it) when a
  /// paced cycle overruns its period by this factor. 0 disables; has no
  /// effect when pace_cycles_per_sec is 0 (no deadline to miss).
  double slow_cycle_factor = 0.0;
  /// Daemon: path to write the per-uplink accept/reject decision log (plus
  /// the server commit stream) as JSON, for offline replay through the
  /// history/serializability checkers.
  std::string decisions_out;

  /// True when any telemetry sink needs the metrics registry.
  bool TelemetryEnabled() const {
    return metrics || !metrics_out.empty() || metrics_interval_ms > 0 || !trace_out.empty();
  }

  Status Validate() const;
};

/// Parses one `--flag=value` argument into the net/sim configuration pair.
/// Returns true when the flag was recognized: net flags (--listen,
/// --connect, --mcast, --pace, ...) plus the sim knobs the networked tier
/// shares, under sim_cli's names (--objects, --object-kb, --timestamp-bits,
/// --frame-bits, --cycles, --seed, --delta, --delta-refresh, --clients,
/// --update-scheme, --update-fraction,
/// --client-txn-length, ...). Unrecognized flags are left for the caller, so
/// sim_cli can layer this under its own flag set.
bool ParseNetFlag(const std::string& arg, NetConfig* net, SimConfig* sim);

/// One-line usage text for the shared flags (embedded in each binary's
/// --help output).
std::string NetFlagsHelp();

/// Normalizes a SimConfig for the networked tier: channel mode on, wire
/// codec, F-Matrix, read-only-compatible validation knobs. Returns an error
/// when the combination cannot run over the transport (mirrors
/// SimConfig::Validate's channel-mode requirements).
Status NormalizeNetSimConfig(SimConfig* sim);

}  // namespace bcc

#endif  // BCC_NET_NET_CONFIG_H_
