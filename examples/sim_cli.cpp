// sim_cli: run any simulator configuration from the command line.
//
//   $ ./examples/sim_cli --algorithm=fmatrix --client-txn-length=8
//   $ ./examples/sim_cli --algorithm=datacycle --objects=500 --csv
//   $ ./examples/sim_cli --help
//
// Every Table 1 parameter and every extension knob is a flag; unset flags
// keep the paper's defaults. Prints the steady-state summary (and a CSV row
// with --csv for scripting).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "net/client_runtime.h"
#include "net/net_config.h"
#include "net/server_daemon.h"
#include "obs/trace_export.h"
#include "sim/broadcast_sim.h"

namespace {

using namespace bcc;

void PrintHelp() {
  std::printf(
      "sim_cli — broadcast-disk concurrency-control simulator (SIGMOD '99)\n\n"
      "  --algorithm=datacycle|rmatrix|fmatrix|fmatrix-no   (default fmatrix)\n"
      "  --client-txn-length=N     reads per client txn        (4)\n"
      "  --server-txn-length=N     ops per server txn          (8)\n"
      "  --server-interval=N       bit-units between commits   (250000)\n"
      "  --objects=N               database size               (300)\n"
      "  --object-kb=F             object size in KB           (1)\n"
      "  --timestamp-bits=N        stamp width                 (8)\n"
      "  --txns=N                  client txns, total          (1000)\n"
      "  --warmup=N                excluded from stats         (500)\n"
      "  --clients=N               concurrent clients          (1)\n"
      "  --update-fraction=F       client update txn share     (0)\n"
      "  --cache-cycles=F          currency bound T in cycles  (0 = off)\n"
      "  --groups=N                grouped-control columns     (0 = native)\n"
      "  --hot-set=N --hot-freq=N  multi-speed disk            (off)\n"
      "  --hot-access=F            client+server hot-set skew  (uniform)\n"
      "  --matrix=dense|sparse|group:G|hier  control-matrix representation\n"
      "                            (dense; sparse = CSC O(nnz), hier =\n"
      "                            adaptive group hierarchy; DESIGN.md §4l)\n"
      "  --compaction-period=N     sparse wraparound compaction every N\n"
      "                            cycles (0 = off; needs wire codec)\n"
      "  --hier-groups=N           hier initial group count    (64)\n"
      "  --hier-refine-limit=N     max refined columns         (1024)\n"
      "  --delta                   snapshot+delta control mode (off)\n"
      "  --delta-refresh=N         full refresh every N cycles (8)\n"
      "  --channel                 frame-level broadcast channel (off;\n"
      "                            implied by any fault flag below)\n"
      "  --frame-bits=N            channel frame size          (512)\n"
      "  --loss=F                  per-frame loss rate         (0)\n"
      "  --corrupt=F               per-frame bit-flip rate     (0)\n"
      "  --truncate=F              per-frame truncation rate   (0)\n"
      "  --burst                   Gilbert-Elliott burst loss  (off)\n"
      "  --burst-loss=F            Bad-state loss rate         (0.9)\n"
      "  --burst-in=F --burst-out=F  Good->Bad / Bad->Good     (0.02 / 0.25)\n"
      "  --update-scheme=seq|occ   server update engine (seq;\n"
      "                            occ = thread-pooled TxnProcessor)\n"
      "  --update-workers=N        pooled engine executors, caller included (4)\n"
      "  --seed=N                  RNG seed                    (42)\n"
      "  --csv                     emit a machine-readable row\n"
      "  --trace-out=FILE          write a Chrome trace_event JSON trace\n"
      "                            (load in ui.perfetto.dev or chrome://tracing)\n"
      "  --trace-capacity=N        events kept per track       (4096)\n"
      "  --metrics-json=FILE       dump the full summary as JSON\n"
      "\nNetworked tier (real UDP transport; --listen runs the broadcast\n"
      "daemon, --connect the socket client — see DESIGN.md §4j):\n%s",
      NetFlagsHelp().c_str());
}

bool ParseFlag(const char* arg, const char* name, const char** value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  SimConfig config;
  NetConfig net;
  bool csv = false;
  double cache_cycles = 0;
  double hot_access = -1;
  std::string trace_out;
  std::string metrics_json;

  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--help") == 0) {
      PrintHelp();
      return 0;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (ParseFlag(argv[i], "--algorithm", &v)) {
      const std::string a = v;
      if (a == "datacycle") {
        config.algorithm = Algorithm::kDatacycle;
      } else if (a == "rmatrix") {
        config.algorithm = Algorithm::kRMatrix;
      } else if (a == "fmatrix") {
        config.algorithm = Algorithm::kFMatrix;
      } else if (a == "fmatrix-no") {
        config.algorithm = Algorithm::kFMatrixNo;
      } else {
        std::fprintf(stderr, "unknown algorithm '%s'\n", v);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--client-txn-length", &v)) {
      config.client_txn_length = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (ParseFlag(argv[i], "--server-txn-length", &v)) {
      config.server_txn_length = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (ParseFlag(argv[i], "--server-interval", &v)) {
      config.server_txn_interval = std::strtoull(v, nullptr, 10);
    } else if (ParseFlag(argv[i], "--objects", &v)) {
      config.num_objects = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (ParseFlag(argv[i], "--object-kb", &v)) {
      config.object_size_bits = static_cast<uint64_t>(std::strtod(v, nullptr) * 8 * 1024);
    } else if (ParseFlag(argv[i], "--timestamp-bits", &v)) {
      config.timestamp_bits = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (ParseFlag(argv[i], "--txns", &v)) {
      config.num_client_txns = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (ParseFlag(argv[i], "--warmup", &v)) {
      config.warmup_txns = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (ParseFlag(argv[i], "--clients", &v)) {
      config.num_clients = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (ParseFlag(argv[i], "--update-fraction", &v)) {
      config.client_update_fraction = std::strtod(v, nullptr);
    } else if (ParseFlag(argv[i], "--cache-cycles", &v)) {
      cache_cycles = std::strtod(v, nullptr);
    } else if (ParseFlag(argv[i], "--groups", &v)) {
      config.num_groups = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (ParseFlag(argv[i], "--hot-set", &v)) {
      config.hot_set_size = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (ParseFlag(argv[i], "--hot-freq", &v)) {
      config.hot_broadcast_frequency = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (ParseFlag(argv[i], "--matrix", &v)) {
      const Status parsed = ParseMatrixOption(v, &config);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
        return 2;
      }
    } else if (ParseFlag(argv[i], "--compaction-period", &v)) {
      config.sparse_compaction_period = std::strtoull(v, nullptr, 10);
    } else if (ParseFlag(argv[i], "--hier-groups", &v)) {
      config.hier_initial_groups = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (ParseFlag(argv[i], "--hier-refine-limit", &v)) {
      config.hier_refine_limit = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (std::strcmp(argv[i], "--delta") == 0) {
      config.delta_broadcast = true;
    } else if (ParseFlag(argv[i], "--delta-refresh", &v)) {
      config.delta_refresh_period = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--channel") == 0) {
      config.channel_broadcast = true;
    } else if (ParseFlag(argv[i], "--frame-bits", &v)) {
      config.channel_frame_bits = std::strtoull(v, nullptr, 10);
      config.channel_broadcast = true;
    } else if (ParseFlag(argv[i], "--loss", &v)) {
      config.channel_loss_rate = std::strtod(v, nullptr);
      config.channel_broadcast = true;
    } else if (ParseFlag(argv[i], "--corrupt", &v)) {
      config.channel_corrupt_rate = std::strtod(v, nullptr);
      config.channel_broadcast = true;
    } else if (ParseFlag(argv[i], "--truncate", &v)) {
      config.channel_truncate_rate = std::strtod(v, nullptr);
      config.channel_broadcast = true;
    } else if (std::strcmp(argv[i], "--burst") == 0) {
      config.channel_burst = true;
      config.channel_broadcast = true;
    } else if (ParseFlag(argv[i], "--burst-loss", &v)) {
      config.channel_burst_loss_rate = std::strtod(v, nullptr);
      config.channel_broadcast = true;
    } else if (ParseFlag(argv[i], "--burst-in", &v)) {
      config.channel_burst_enter_rate = std::strtod(v, nullptr);
      config.channel_broadcast = true;
    } else if (ParseFlag(argv[i], "--burst-out", &v)) {
      config.channel_burst_exit_rate = std::strtod(v, nullptr);
      config.channel_broadcast = true;
    } else if (ParseFlag(argv[i], "--hot-access", &v)) {
      hot_access = std::strtod(v, nullptr);
    } else if (ParseFlag(argv[i], "--update-scheme", &v)) {
      const StatusOr<UpdateScheme> scheme = ParseUpdateScheme(v);
      if (!scheme.ok()) {
        std::fprintf(stderr, "%s\n", scheme.status().ToString().c_str());
        return 2;
      }
      config.update_scheme = *scheme;
    } else if (ParseFlag(argv[i], "--update-workers", &v)) {
      config.update_workers = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (ParseFlag(argv[i], "--trace-out", &v)) {
      trace_out = v;
    } else if (ParseFlag(argv[i], "--trace-capacity", &v)) {
      config.trace_capacity = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (ParseFlag(argv[i], "--metrics-json", &v)) {
      metrics_json = v;
    } else if (ParseNetFlag(argv[i], &net, &config)) {
      // Networked-tier flag (--listen, --connect, --mcast, --cycles, ...):
      // parsed by the shared vocabulary in net/net_config.h. Shared sim
      // knobs are matched by the chain above first, so both tiers read them
      // with identical conversions.
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", argv[i]);
      return 2;
    }
  }
  // The hierarchical matrix validates raw absolute stamps (Validate rejects
  // the wire codec in hier mode), so make --matrix=hier usable directly.
  if (config.matrix_mode == MatrixMode::kHier) config.use_wire_codec = false;
  if (cache_cycles > 0) {
    config.enable_cache = true;
    config.cache_currency_bound = static_cast<SimTime>(
        cache_cycles * static_cast<double>(config.Geometry().cycle_bits));
  }
  if (hot_access >= 0) {
    config.client_hot_access_fraction = hot_access;
    config.server_hot_access_fraction = hot_access;
  }

  // Networked tier: hand the fully parsed SimConfig to the daemon or the
  // client runtime instead of the in-process DES. Same flags, same
  // conversions, real UDP sockets.
  if (!net.listen.empty() || !net.connect.empty()) {
    if (!net.listen.empty() && !net.connect.empty()) {
      std::fprintf(stderr, "--listen and --connect are mutually exclusive\n");
      return 2;
    }
    // sim_cli's own --trace-out/--trace-capacity were matched before
    // ParseNetFlag saw them; in net mode they mean the runtime's live
    // tracer, so forward them into the net config.
    if (!trace_out.empty()) net.trace_out = trace_out;
    if (config.trace_capacity > 0) {
      net.trace_capacity = static_cast<uint32_t>(config.trace_capacity);
    }
    Status status;
    std::string json;
    if (!net.listen.empty()) {
      net.expected_clients = config.num_clients;
      ServerReport report;
      status = RunServerDaemon(net, config, &report);
      if (status.ok()) json = report.ToJson();
    } else {
      ClientReport report;
      status = RunClientRuntime(net, config, &report);
      if (status.ok()) json = report.ToJson();
    }
    if (!status.ok()) {
      std::fprintf(stderr, "sim_cli: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("%s\n", json.c_str());
    if (!net.json_out.empty()) {
      const Status written = WriteTextFile(net.json_out, json + "\n");
      if (!written.ok()) {
        std::fprintf(stderr, "sim_cli: %s\n", written.ToString().c_str());
        return 1;
      }
    }
    return 0;
  }

  std::printf("config: %s\n", config.ToString().c_str());
  std::unique_ptr<Tracer> tracer;
  if (!trace_out.empty()) tracer = std::make_unique<Tracer>(config.trace_capacity);
  BroadcastSim sim(config);
  if (tracer) sim.set_tracer(tracer.get());
  auto summary = sim.Run();
  if (!summary.ok()) {
    std::fprintf(stderr, "error: %s\n", summary.status().ToString().c_str());
    return 1;
  }
  if (tracer) {
    const Status written = WriteTextFile(trace_out, ExportChromeTrace(*tracer));
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("trace: %s (%llu events recorded, %llu dropped)\n", trace_out.c_str(),
                static_cast<unsigned long long>(tracer->TotalRecorded()),
                static_cast<unsigned long long>(tracer->TotalDropped()));
  }
  if (!metrics_json.empty()) {
    const Status written = WriteTextFile(metrics_json, summary->ToJson() + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("metrics: %s\n", metrics_json.c_str());
  }
  std::printf("%s\n", summary->ToString().c_str());
  if (summary->client_update_commits + summary->client_update_rejects > 0) {
    std::printf("client updates: %llu committed, %llu rejected at validation\n",
                static_cast<unsigned long long>(summary->client_update_commits),
                static_cast<unsigned long long>(summary->client_update_rejects));
  }
  if (summary->cache_hits + summary->cache_misses > 0) {
    std::printf("cache: %llu hits / %llu lookups\n",
                static_cast<unsigned long long>(summary->cache_hits),
                static_cast<unsigned long long>(summary->cache_hits + summary->cache_misses));
  }
  if (summary->channel.frames_sent > 0) {
    const ChannelStats& ch = summary->channel;
    std::printf(
        "channel: %llu/%llu frames delivered (%llu dropped, %llu damaged, %llu rejected), "
        "%llu stalls, %llu loss-attributed aborts, %llu desyncs / %llu resyncs\n",
        static_cast<unsigned long long>(ch.frames_delivered),
        static_cast<unsigned long long>(ch.frames_sent),
        static_cast<unsigned long long>(ch.frames_dropped),
        static_cast<unsigned long long>(ch.frames_corrupted + ch.frames_truncated),
        static_cast<unsigned long long>(ch.frames_rejected),
        static_cast<unsigned long long>(ch.stalls),
        static_cast<unsigned long long>(ch.loss_attributed_aborts),
        static_cast<unsigned long long>(ch.tracker_desyncs),
        static_cast<unsigned long long>(ch.resyncs));
  }
  if (csv) {
    std::printf("csv,%s,%.6e,%.6e,%.4f,%llu,%llu\n",
                std::string(AlgorithmName(config.algorithm)).c_str(),
                summary->mean_response_time, summary->response_ci_half_width,
                summary->restart_ratio,
                static_cast<unsigned long long>(summary->measured_txns),
                static_cast<unsigned long long>(summary->cycles_elapsed));
  }
  return 0;
}
