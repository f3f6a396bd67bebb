#include "net/net_config.h"

#include <cstdlib>

#include "common/format.h"

namespace bcc {

namespace {

/// `--name=value` matcher shared by every flag kind.
bool FlagValue(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

bool ParseU64(const std::string& arg, const char* name, uint64_t* out) {
  std::string v;
  if (!FlagValue(arg, name, &v)) return false;
  *out = std::strtoull(v.c_str(), nullptr, 10);
  return true;
}

bool ParseU32(const std::string& arg, const char* name, uint32_t* out) {
  uint64_t v = 0;
  if (!ParseU64(arg, name, &v)) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

bool ParseDouble(const std::string& arg, const char* name, double* out) {
  std::string v;
  if (!FlagValue(arg, name, &v)) return false;
  *out = std::strtod(v.c_str(), nullptr);
  return true;
}

bool ParseString(const std::string& arg, const char* name, std::string* out) {
  return FlagValue(arg, name, out);
}

}  // namespace

std::string Endpoint::ToString() const { return StrFormat("%s:%u", ip.c_str(), port); }

StatusOr<Endpoint> ParseEndpoint(const std::string& text) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(StrFormat("endpoint '%s' is not ip:port", text.c_str()));
  }
  Endpoint ep;
  if (colon > 0) ep.ip = text.substr(0, colon);
  char* end = nullptr;
  const std::string port_text = text.substr(colon + 1);
  const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  if (port_text.empty() || (end != nullptr && *end != '\0') || port > 0xFFFF) {
    return Status::InvalidArgument(StrFormat("endpoint '%s' has a bad port", text.c_str()));
  }
  ep.port = static_cast<uint16_t>(port);
  return ep;
}

Status NetConfig::Validate() const {
  if (dgram_bytes < 128 || dgram_bytes > 65000) {
    return Status::InvalidArgument("dgram_bytes must be in [128, 65000]");
  }
  if (pace_cycles_per_sec < 0.0) {
    return Status::InvalidArgument("pace_cycles_per_sec must be >= 0");
  }
  if (expected_clients == 0) {
    return Status::InvalidArgument("expected_clients must be >= 1");
  }
  if (slow_cycle_factor < 0.0) {
    return Status::InvalidArgument("slow_cycle_factor must be >= 0");
  }
  if (!metrics_out.empty() && metrics_interval_ms == 0) {
    return Status::InvalidArgument("--metrics-out requires --metrics-interval-ms > 0");
  }
  if (!listen.empty()) BCC_RETURN_IF_ERROR(ParseEndpoint(listen).status());
  if (!connect.empty()) BCC_RETURN_IF_ERROR(ParseEndpoint(connect).status());
  if (!multicast.empty()) BCC_RETURN_IF_ERROR(ParseEndpoint(multicast).status());
  return Status::OK();
}

bool ParseNetFlag(const std::string& arg, NetConfig* net, SimConfig* sim) {
  uint32_t u32 = 0;
  double d = 0;
  std::string s;
  // Transport knobs.
  if (ParseString(arg, "--listen", &net->listen)) return true;
  if (ParseString(arg, "--connect", &net->connect)) return true;
  if (ParseString(arg, "--mcast", &net->multicast)) return true;
  if (ParseString(arg, "--endpoint-file", &net->endpoint_file)) return true;
  if (ParseU32(arg, "--dgram-bytes", &net->dgram_bytes)) return true;
  if (ParseDouble(arg, "--pace", &net->pace_cycles_per_sec)) return true;
  if (ParseU32(arg, "--txns-per-cycle", &net->txns_per_cycle)) return true;
  if (ParseU32(arg, "--rcvbuf", &net->rcvbuf_bytes)) return true;
  if (ParseU32(arg, "--client-id", &net->client_id)) return true;
  if (ParseU64(arg, "--hello-timeout-ms", &net->hello_timeout_ms)) return true;
  if (ParseU64(arg, "--stats-timeout-ms", &net->stats_timeout_ms)) return true;
  if (ParseU64(arg, "--max-wall-ms", &net->max_wall_ms)) return true;
  if (ParseString(arg, "--json-out", &net->json_out)) return true;
  // Telemetry knobs.
  if (arg == "--metrics") {
    net->metrics = true;
    return true;
  }
  if (ParseString(arg, "--metrics-out", &net->metrics_out)) return true;
  if (ParseU64(arg, "--metrics-interval-ms", &net->metrics_interval_ms)) return true;
  if (ParseString(arg, "--trace-out", &net->trace_out)) return true;
  if (ParseU32(arg, "--trace-capacity", &net->trace_capacity)) return true;
  if (ParseDouble(arg, "--slow-cycle-factor", &net->slow_cycle_factor)) return true;
  if (ParseString(arg, "--decisions-out", &net->decisions_out)) return true;
  // Sim knobs the two tiers must agree on, under sim_cli's flag names so the
  // in-process and networked front ends share one vocabulary.
  if (ParseU32(arg, "--objects", &sim->num_objects)) return true;
  if (ParseU64(arg, "--frame-bits", &sim->channel_frame_bits)) return true;
  if (ParseU64(arg, "--cycles", &sim->stop_after_cycles)) return true;
  if (ParseU64(arg, "--seed", &sim->seed)) return true;
  if (ParseU64(arg, "--delta-refresh", &sim->delta_refresh_period)) return true;
  if (ParseU64(arg, "--server-interval", &sim->server_txn_interval)) return true;
  if (ParseU32(arg, "--server-txn-length", &sim->server_txn_length)) return true;
  if (ParseU32(arg, "--client-txn-length", &sim->client_txn_length)) return true;
  if (ParseU32(arg, "--update-workers", &sim->update_workers)) return true;
  if (ParseDouble(arg, "--update-fraction", &sim->client_update_fraction)) return true;
  if (arg == "--delta") {
    sim->delta_broadcast = true;
    return true;
  }
  if (ParseDouble(arg, "--object-kb", &d)) {
    sim->object_size_bits = static_cast<uint64_t>(d * 8 * 1024);
    return true;
  }
  if (ParseU32(arg, "--timestamp-bits", &u32)) {
    sim->timestamp_bits = u32;
    return true;
  }
  if (ParseU32(arg, "--clients", &u32)) {
    net->expected_clients = u32;
    sim->num_clients = u32;
    return true;
  }
  if (ParseString(arg, "--update-scheme", &s)) {
    const StatusOr<UpdateScheme> scheme = ParseUpdateScheme(s);
    if (!scheme.ok()) return false;  // caller reports the full bad argument
    sim->update_scheme = *scheme;
    return true;
  }
  return false;
}

std::string NetFlagsHelp() {
  return "  transport: --listen=ip:port --connect=ip:port --mcast=ip:port\n"
         "             --endpoint-file=PATH --clients=N --dgram-bytes=N\n"
         "             --pace=CYCLES_PER_SEC --txns-per-cycle=N --rcvbuf=BYTES\n"
         "             --client-id=N --hello-timeout-ms=N --stats-timeout-ms=N\n"
         "             --max-wall-ms=N --json-out=PATH\n"
         "  telemetry: --metrics --metrics-out=PATH --metrics-interval-ms=N\n"
         "             --trace-out=PATH --trace-capacity=N\n"
         "             --slow-cycle-factor=F --decisions-out=PATH\n"
         "  shared sim: --objects=N --object-kb=F --frame-bits=N --cycles=N\n"
         "             --seed=N --timestamp-bits=N --delta --delta-refresh=N\n"
         "             --server-interval=N --server-txn-length=N\n"
         "             --client-txn-length=N --update-fraction=F\n"
         "             --update-scheme=seq|occ --update-workers=N\n";
}

Status NormalizeNetSimConfig(SimConfig* sim) {
  sim->algorithm = Algorithm::kFMatrix;
  sim->channel_broadcast = true;
  sim->use_wire_codec = true;
  sim->enable_cache = false;
  sim->num_groups = 0;
  if (sim->stop_after_cycles == 0) {
    return Status::InvalidArgument("the networked tier requires --cycles > 0");
  }
  // The DES validator forbids update clients in channel mode because its
  // in-process clients cannot reach the uplink; the networked tier has a real
  // uplink, so validate against a read-only copy and keep the fraction as the
  // client runtime's update mix.
  SimConfig check = *sim;
  check.client_update_fraction = 0.0;
  return check.Validate();
}

}  // namespace bcc
