// Throughput of the real-transport broadcast tier (PR 8), swept over the
// number of socket clients AND over telemetry on/off (PR 9), emitted as
// BENCH_9.json in the bcc.perf_trajectory.v1 schema so CI can track the
// numbers across PRs. Each sweep point runs twice: once with the metrics
// registry + in-memory tracer live on daemon and clients ("on") and once
// with telemetry fully disabled ("off") — the branch-on-null contract says
// the two cycles/sec columns must be indistinguishable.
//
// Each sweep point runs the actual daemon engine (RunServerDaemon) in one
// thread and N client runtimes (RunClientRuntime) in N threads, all talking
// over real UDP sockets on 127.0.0.1 with sendmmsg-batched unicast fan-out.
// The broadcast is unpaced, so cycles/sec (ServerReport::cycles_per_sec,
// timed over the daemon's broadcast loop only — the HELLO barrier and STATS
// collection are left out) is the wall-clock rate at which the tier can
// snapshot, frame-encode, and fan a cycle out — and the client
// p99 is the end-to-end response time of a read transaction whose reads ride
// the broadcast (a transaction spans client_txn_length cycles by design, so
// latency is dominated by cycle rate, not socket hops).
//
// Objects are kept small (256 B) so a full cycle fits the kernel's capped
// receive buffer many times over; residual drops under scheduler stalls are
// reported per row (frames_dropped, digest_match) rather than hidden.
//
// Rows (section "net_tier"): one per client count with broadcast-loop
// cycles/sec, aggregate client commits/aborts, the worst client p50/p99
// response time, fan-out bytes, and whether every client's state digest
// matched the server's (always true when frames_dropped == 0).
//
// Flags: --out=F (default BENCH_9.json), --quick (CI smoke: fewer clients,
// fewer cycles), --seed=N.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client_runtime.h"
#include "net/net_config.h"
#include "net/server_daemon.h"
#include "obs/json.h"
#include "obs/trace_export.h"

namespace bcc {
namespace {

struct Flags {
  uint64_t seed = 42;
  bool quick = false;
  std::string out = "BENCH_9.json";
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      flags.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      flags.out = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      flags.quick = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s (known: --seed=N --out=F --quick)\n", argv[i]);
      std::exit(2);
    }
  }
  return flags;
}

struct Cell {
  uint32_t clients = 0;
  bool telemetry = false;  ///< metrics registry + tracer live during the run
  uint64_t cycles = 0;
  uint64_t server_commits = 0;
  uint64_t uplink_accepts = 0;
  uint64_t bytes_sent = 0;
  double wall_sec = 0;
  double cycles_per_sec = 0;
  uint64_t client_commits = 0;
  uint64_t client_aborts = 0;
  uint64_t frames_dropped = 0;
  uint64_t p50_us = 0;  ///< worst client's median response time
  uint64_t p99_us = 0;  ///< worst client's p99 response time
  bool digest_match = true;
};

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// One sweep point: daemon thread + `clients` client threads over loopback.
/// With `telemetry` the full recording stack (registry histograms + trace
/// rings) is live on every node, but nothing is written to disk mid-run —
/// the cell measures pure recording overhead, not file I/O.
Cell RunCell(uint32_t clients, uint64_t cycles, uint64_t seed, bool telemetry) {
  const std::string endpoint_file = "bench_net_tier_" + std::to_string(clients) +
                                    (telemetry ? "_tel" : "") + ".ep";
  std::remove(endpoint_file.c_str());

  SimConfig sim;
  sim.num_objects = 64;
  sim.object_size_bits = 2048;  // 256 B pages: a cycle is ~16 KB on the wire
  sim.seed = seed;
  sim.num_clients = clients;
  sim.stop_after_cycles = cycles;

  NetConfig server_net;
  server_net.listen = "127.0.0.1:0";
  server_net.endpoint_file = endpoint_file;
  server_net.expected_clients = clients;
  server_net.max_wall_ms = 120000;
  server_net.metrics = telemetry;

  ServerReport server_report;
  Status server_status;
  std::thread server([&] { server_status = RunServerDaemon(server_net, sim, &server_report); });

  // Discover the daemon's ephemeral uplink port.
  std::string endpoint;
  for (int i = 0; i < 400 && endpoint.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    endpoint = ReadWholeFile(endpoint_file);
  }
  while (!endpoint.empty() && (endpoint.back() == '\n' || endpoint.back() == '\r')) {
    endpoint.pop_back();
  }
  if (endpoint.empty()) {
    std::fprintf(stderr, "FATAL: daemon never wrote %s\n", endpoint_file.c_str());
    std::exit(1);
  }

  std::vector<ClientReport> reports(clients);
  std::vector<Status> statuses(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      NetConfig client_net;
      client_net.connect = endpoint;
      client_net.client_id = c + 1;
      client_net.max_wall_ms = 120000;
      client_net.metrics = telemetry;
      statuses[c] = RunClientRuntime(client_net, sim, &reports[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  server.join();
  std::remove(endpoint_file.c_str());

  if (!server_status.ok()) {
    std::fprintf(stderr, "FATAL: daemon (%u clients): %s\n", clients,
                 server_status.ToString().c_str());
    std::exit(1);
  }
  for (uint32_t c = 0; c < clients; ++c) {
    if (!statuses[c].ok()) {
      std::fprintf(stderr, "FATAL: client %u/%u: %s\n", c, clients,
                   statuses[c].ToString().c_str());
      std::exit(1);
    }
  }

  Cell cell;
  cell.clients = clients;
  cell.telemetry = telemetry;
  cell.cycles = server_report.cycles;
  cell.server_commits = server_report.server_commits;
  cell.uplink_accepts = server_report.uplink_accepts;
  cell.bytes_sent = server_report.bytes_sent;
  cell.wall_sec = server_report.wall_sec;
  cell.cycles_per_sec = server_report.cycles_per_sec;
  for (const ClientReport& r : reports) {
    cell.client_commits += r.commits;
    cell.client_aborts += r.aborts;
    cell.frames_dropped += r.channel.frames_dropped;
    cell.p50_us = std::max(cell.p50_us, r.p50_us);
    cell.p99_us = std::max(cell.p99_us, r.p99_us);
    if (r.digest != server_report.digest) cell.digest_match = false;
  }
  return cell;
}

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);

  const std::vector<uint32_t> client_counts =
      flags.quick ? std::vector<uint32_t>{1, 2} : std::vector<uint32_t>{1, 2, 4, 8};
  const uint64_t cycles = flags.quick ? 16 : 48;

  JsonWriter w;
  w.BeginObject()
      .Key("schema")
      .Value("bcc.perf_trajectory.v1")
      .Key("bench")
      .Value("BENCH_9")
      .Key("seed")
      .Value(flags.seed)
      .Key("quick")
      .Value(flags.quick)
      .Key("rows")
      .BeginArray();

  for (const uint32_t clients : client_counts) {
    for (const bool telemetry : {false, true}) {
      const Cell cell = RunCell(clients, cycles, flags.seed, telemetry);
      std::printf("net_tier x%u [telemetry %s]: %6.1f cycles/sec, p99 %llu us, "
                  "%llu client commits, %llu dropped, digest %s\n",
                  cell.clients, cell.telemetry ? "on " : "off", cell.cycles_per_sec,
                  static_cast<unsigned long long>(cell.p99_us),
                  static_cast<unsigned long long>(cell.client_commits),
                  static_cast<unsigned long long>(cell.frames_dropped),
                  cell.digest_match ? "match" : "MISMATCH");
      w.BeginObject()
          .Key("section")
          .Value("net_tier")
          .Key("telemetry")
          .Value(cell.telemetry ? "on" : "off")
          .Key("clients")
          .Value(cell.clients)
          .Key("cycles")
          .Value(cell.cycles)
          .Key("num_objects")
          .Value(static_cast<uint64_t>(64))
          .Key("object_bytes")
          .Value(static_cast<uint64_t>(256))
          .Key("server_commits")
          .Value(cell.server_commits)
          .Key("uplink_accepts")
          .Value(cell.uplink_accepts)
          .Key("bytes_sent")
          .Value(cell.bytes_sent)
          .Key("wall_sec")
          .Value(cell.wall_sec)
          .Key("cycles_per_sec")
          .Value(cell.cycles_per_sec)
          .Key("client_commits")
          .Value(cell.client_commits)
          .Key("client_aborts")
          .Value(cell.client_aborts)
          .Key("frames_dropped")
          .Value(cell.frames_dropped)
          .Key("p50_us")
          .Value(cell.p50_us)
          .Key("p99_us")
          .Value(cell.p99_us)
          .Key("digest_match")
          .Value(cell.digest_match)
          .EndObject();
    }
  }

  w.EndArray().EndObject();
  const std::string json = std::move(w).Take() + "\n";
  const Status valid = ValidateJson(json);
  if (!valid.ok()) {
    std::fprintf(stderr, "FATAL: emitted JSON fails validation: %s\n", valid.ToString().c_str());
    return 1;
  }
  const Status written = WriteTextFile(flags.out, json);
  if (!written.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("trajectory: %s\n", flags.out.c_str());
  return 0;
}

}  // namespace
}  // namespace bcc

int main(int argc, char** argv) { return bcc::Main(argc, argv); }
