// End-to-end test of the real-transport tier (label: net): spawns a
// bcc_serverd OS process and several bcc_client OS processes on 127.0.0.1,
// runs a full broadcast to completion over real UDP sockets, and checks
// that at loss 0 the daemon's final state digest is bit-identical to the
// in-process DES oracle's — and that every client independently reconstructed
// that same digest from the datagrams it received. One test runs the daemon
// and a client in-process instead, to set a SimConfig field no flag reaches.
//
// Binary paths are injected by CMake (BCC_SERVERD_PATH / BCC_CLIENT_PATH).

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client_runtime.h"
#include "net/datagram.h"
#include "net/server_daemon.h"
#include "net/socket.h"
#include "net/state_digest.h"
#include "obs/json.h"
#include "sim/broadcast_sim.h"

namespace bcc {
namespace {

constexpr uint32_t kObjects = 32;
constexpr uint64_t kCycles = 24;
constexpr uint32_t kClients = 4;
constexpr uint64_t kSeed = 42;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Extracts the first `"key":<u64>` occurrence; 0 when absent.
uint64_t ExtractU64(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

pid_t Spawn(const std::vector<std::string>& args, const std::string& log_path) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Child: route stdout/stderr to the log so a failure is diagnosable.
  FILE* log = std::freopen(log_path.c_str(), "w", stdout);
  if (log != nullptr) dup2(fileno(stdout), STDERR_FILENO);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  execv(argv[0], argv.data());
  _exit(127);
}

int WaitFor(pid_t pid) {
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

/// Receives on `sock` until `want` datagrams arrived or ~2 s elapse.
std::vector<std::vector<uint8_t>> ReceiveInPlace(UdpSocket& sock, size_t want) {
  std::vector<std::vector<uint8_t>> got;
  for (int attempt = 0; attempt < 200 && got.size() < want; ++attempt) {
    const StatusOr<std::span<const InDatagramView>> batch = sock.RecvBatchInPlace(4, 2048);
    EXPECT_TRUE(batch.ok());
    if (!batch.ok()) break;
    for (const InDatagramView& d : *batch) got.emplace_back(d.bytes.begin(), d.bytes.end());
    if (batch->empty()) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return got;
}

TEST(UdpSocketTest, InPlaceReceiveReusesItsAreaAndMovesWithTheSocket) {
  UdpSocket sender, receiver;
  ASSERT_TRUE(sender.Open().ok());
  ASSERT_TRUE(receiver.Open().ok());
  ASSERT_TRUE(receiver.Bind(Endpoint{"127.0.0.1", 0}).ok());
  const StatusOr<Endpoint> local = receiver.local_endpoint();
  ASSERT_TRUE(local.ok());
  const StatusOr<SockAddr> to = ResolveEndpoint(*local);
  ASSERT_TRUE(to.ok());

  // More datagrams than one call takes: the area is refilled per call.
  std::vector<std::vector<uint8_t>> sent;
  for (uint8_t i = 0; i < 6; ++i) {
    sent.push_back(std::vector<uint8_t>(10u + i, static_cast<uint8_t>(0xA0 + i)));
    ASSERT_TRUE(sender.SendTo(sent.back(), *to).ok());
  }
  EXPECT_EQ(ReceiveInPlace(receiver, sent.size()), sent);

  // The moved-to socket keeps receiving through the transferred area.
  UdpSocket moved(std::move(receiver));
  EXPECT_FALSE(receiver.valid());
  const std::vector<uint8_t> after = {1, 2, 3};
  ASSERT_TRUE(sender.SendTo(after, *to).ok());
  EXPECT_EQ(ReceiveInPlace(moved, 1), std::vector<std::vector<uint8_t>>{after});

  UdpSocket assigned;
  assigned = std::move(moved);
  ASSERT_TRUE(sender.SendTo(after, *to).ok());
  const StatusOr<std::vector<InDatagram>> owned = [&] {
    for (int attempt = 0; attempt < 200; ++attempt) {
      StatusOr<std::vector<InDatagram>> batch = assigned.RecvBatch(4, 2048);
      if (!batch.ok() || !batch->empty()) return batch;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return StatusOr<std::vector<InDatagram>>(std::vector<InDatagram>{});
  }();
  ASSERT_TRUE(owned.ok());
  ASSERT_EQ(owned->size(), 1u);
  EXPECT_EQ((*owned)[0].bytes, after);
}

TEST(NetLoopbackTest, FourClientsReachBitIdenticalStateWithDesOracle) {
  const std::string dir = ::testing::TempDir();
  const std::string endpoint_file = dir + "/bcc_loopback.ep";
  const std::string server_json = dir + "/bcc_loopback_server.json";
  ::unlink(endpoint_file.c_str());

  const std::string common_flags[] = {
      "--objects=" + std::to_string(kObjects),
      "--object-kb=1",
      "--cycles=" + std::to_string(kCycles),
      "--seed=" + std::to_string(kSeed),
      "--max-wall-ms=60000",
  };

  std::vector<std::string> server_args = {
      BCC_SERVERD_PATH,
      "--listen=127.0.0.1:0",
      "--endpoint-file=" + endpoint_file,
      "--clients=" + std::to_string(kClients),
      "--json-out=" + server_json,
      // Pace the broadcast so no client's kernel receive buffer overruns
      // even when the OS deschedules it briefly (SO_RCVBUF is silently
      // capped by net.core.rmem_max): loss 0 must mean loss 0.
      "--pace=50",
  };
  for (const std::string& f : common_flags) server_args.push_back(f);
  const pid_t server_pid = Spawn(server_args, dir + "/bcc_loopback_server.log");
  ASSERT_GT(server_pid, 0);

  // Discover the daemon's ephemeral uplink port.
  std::string endpoint;
  for (int i = 0; i < 400 && endpoint.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    endpoint = ReadFile(endpoint_file);
  }
  ASSERT_FALSE(endpoint.empty()) << "daemon never wrote its endpoint file";
  while (!endpoint.empty() && (endpoint.back() == '\n' || endpoint.back() == '\r')) {
    endpoint.pop_back();
  }

  std::vector<pid_t> client_pids;
  std::vector<std::string> client_jsons;
  for (uint32_t c = 0; c < kClients; ++c) {
    const std::string json = dir + "/bcc_loopback_client" + std::to_string(c) + ".json";
    client_jsons.push_back(json);
    std::vector<std::string> client_args = {
        BCC_CLIENT_PATH,
        "--connect=" + endpoint,
        "--client-id=" + std::to_string(c + 1),
        "--json-out=" + json,
    };
    for (const std::string& f : common_flags) client_args.push_back(f);
    client_pids.push_back(
        Spawn(client_args, dir + "/bcc_loopback_client" + std::to_string(c) + ".log"));
    ASSERT_GT(client_pids.back(), 0);
  }

  EXPECT_EQ(WaitFor(server_pid), 0) << ReadFile(dir + "/bcc_loopback_server.log");
  for (uint32_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(WaitFor(client_pids[c]), 0)
        << ReadFile(dir + "/bcc_loopback_client" + std::to_string(c) + ".log");
  }

  // In-process DES oracle: same seed, same geometry, loss 0. The server's
  // end state is a pure function of (seed, config), so the networked daemon
  // must land on exactly this snapshot.
  SimConfig sim;
  sim.num_objects = kObjects;
  sim.object_size_bits = 8 * 1024;
  sim.seed = kSeed;
  sim.num_clients = kClients;
  sim.stop_after_cycles = kCycles;
  sim.channel_broadcast = true;
  sim.use_wire_codec = true;
  sim.algorithm = Algorithm::kFMatrix;
  BroadcastSim oracle(sim);
  ASSERT_TRUE(oracle.Run().ok());
  const CycleSnapshot& snap = oracle.final_snapshot();
  ASSERT_EQ(snap.cycle, kCycles);
  uint64_t oracle_digest = DigestValues(snap.values);
  oracle_digest =
      DigestMatrixResidues(snap.f_matrix, CycleStampCodec(sim.timestamp_bits), oracle_digest);

  const std::string server_report = ReadFile(server_json);
  ASSERT_FALSE(server_report.empty());
  EXPECT_EQ(ExtractU64(server_report, "digest"), oracle_digest)
      << "daemon diverged from the DES oracle: " << server_report;
  EXPECT_EQ(server_report.find("\"digest_match\":false"), std::string::npos) << server_report;
  EXPECT_GT(ExtractU64(server_report, "server_commits"), 0u);

  for (const std::string& json_path : client_jsons) {
    const std::string report = ReadFile(json_path);
    ASSERT_FALSE(report.empty()) << json_path;
    EXPECT_EQ(ExtractU64(report, "digest"), oracle_digest)
        << json_path << " diverged: " << report;
    EXPECT_EQ(ExtractU64(report, "cycles_ingested"), kCycles) << report;
    EXPECT_GT(ExtractU64(report, "commits"), 0u) << report;
    // Every abort is attributed to exactly one cause.
    ASSERT_NE(report.find("\"abort_causes\":{"), std::string::npos) << report;
    uint64_t attributed = 0;
    for (const char* cause :
         {"control_conflict", "mc_conflict", "channel_loss", "desync_stall", "uplink_reject"}) {
      attributed += ExtractU64(report, cause);
    }
    EXPECT_EQ(attributed, ExtractU64(report, "aborts")) << report;
    // Loss 0 on loopback with a large SO_RCVBUF: nothing may be dropped.
    EXPECT_EQ(ExtractU64(report, "frames_dropped"), 0u) << report;
  }
}

/// Splits a file into newline-terminated lines (the JSONL contract).
std::vector<std::string> ReadLines(const std::string& path) {
  const std::string content = ReadFile(path);
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < content.size()) {
    const size_t nl = content.find('\n', start);
    if (nl == std::string::npos) break;
    lines.push_back(content.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Polls a live node with METRICS_REQ until a token-matched METRICS reply
/// arrives or ~5 s elapse; returns the reply's JSON payload ("" on timeout).
std::string PollMetrics(const std::string& endpoint, uint32_t token) {
  UdpSocket sock;
  if (!sock.Open().ok() || !sock.Bind(Endpoint{"0.0.0.0", 0}).ok()) return "";
  const StatusOr<Endpoint> target = ParseEndpoint(endpoint);
  if (!target.ok()) return "";
  const StatusOr<SockAddr> addr = ResolveEndpoint(*target);
  if (!addr.ok()) return "";
  MetricsReqMsg req;
  req.token = token;
  const std::vector<uint8_t> wire = EncodeMetricsReq(req);
  for (int attempt = 0; attempt < 250; ++attempt) {
    if (attempt % 10 == 0 && !sock.SendTo(wire, *addr).ok()) return "";
    const StatusOr<std::vector<InDatagram>> batch = sock.RecvBatch(8, 65536);
    if (batch.ok()) {
      for (const InDatagram& d : *batch) {
        const StatusOr<MetricsMsg> reply = DecodeMetrics(d.bytes);
        if (reply.ok() && reply->token == token && !reply->truncated) return reply->json;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return "";
}

// Same loopback run with the full telemetry stack on — JSONL snapshot
// loggers, Perfetto traces, the slow-cycle watchdog, the decision log, and a
// mid-run METRICS_REQ poll — and the digest must STILL be bit-identical to
// the DES oracle: telemetry must have zero observer effect on the protocol.
TEST(NetLoopbackTest, TelemetryRunStaysBitIdenticalAndAnswersMetricsReq) {
  const std::string dir = ::testing::TempDir();
  const std::string endpoint_file = dir + "/bcc_telemetry.ep";
  const std::string server_json = dir + "/bcc_telemetry_server.json";
  const std::string server_metrics = dir + "/bcc_telemetry_server.jsonl";
  const std::string server_trace = dir + "/bcc_telemetry_server.trace.json";
  const std::string decisions_json = dir + "/bcc_telemetry_decisions.json";
  ::unlink(endpoint_file.c_str());

  const std::string common_flags[] = {
      "--objects=" + std::to_string(kObjects),
      "--object-kb=1",
      "--cycles=" + std::to_string(kCycles),
      "--seed=" + std::to_string(kSeed),
      "--max-wall-ms=60000",
      "--metrics",
      "--metrics-interval-ms=100",
  };

  std::vector<std::string> server_args = {
      BCC_SERVERD_PATH,
      "--listen=127.0.0.1:0",
      "--endpoint-file=" + endpoint_file,
      "--clients=" + std::to_string(kClients),
      "--json-out=" + server_json,
      "--metrics-out=" + server_metrics,
      "--trace-out=" + server_trace,
      "--decisions-out=" + decisions_json,
      // An absurdly generous budget: the watchdog must stay silent on a
      // healthy run (its firing path is covered by unit tests).
      "--slow-cycle-factor=100",
      "--pace=50",
  };
  for (const std::string& f : common_flags) server_args.push_back(f);
  const pid_t server_pid = Spawn(server_args, dir + "/bcc_telemetry_server.log");
  ASSERT_GT(server_pid, 0);

  std::string endpoint;
  for (int i = 0; i < 400 && endpoint.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    endpoint = ReadFile(endpoint_file);
  }
  ASSERT_FALSE(endpoint.empty()) << "daemon never wrote its endpoint file";
  while (!endpoint.empty() && (endpoint.back() == '\n' || endpoint.back() == '\r')) {
    endpoint.pop_back();
  }

  std::vector<pid_t> client_pids;
  std::vector<std::string> client_jsons;
  std::vector<std::string> client_metrics;
  std::vector<std::string> client_traces;
  for (uint32_t c = 0; c < kClients; ++c) {
    const std::string tag = dir + "/bcc_telemetry_client" + std::to_string(c);
    client_jsons.push_back(tag + ".json");
    client_metrics.push_back(tag + ".jsonl");
    client_traces.push_back(tag + ".trace.json");
    std::vector<std::string> client_args = {
        BCC_CLIENT_PATH,
        "--connect=" + endpoint,
        "--client-id=" + std::to_string(c + 1),
        "--json-out=" + client_jsons.back(),
        "--metrics-out=" + client_metrics.back(),
        "--trace-out=" + client_traces.back(),
    };
    for (const std::string& f : common_flags) client_args.push_back(f);
    client_pids.push_back(Spawn(client_args, tag + ".log"));
    ASSERT_GT(client_pids.back(), 0);
  }

  // Live introspection MID-RUN: the daemon must answer METRICS_REQ on its
  // uplink port while the broadcast is in flight, and the payload must be
  // strict JSON naming the node.
  const std::string live = PollMetrics(endpoint, /*token=*/0xBCC9);
  ASSERT_FALSE(live.empty()) << "daemon never answered METRICS_REQ mid-run";
  EXPECT_TRUE(ValidateJson(live).ok()) << live;
  EXPECT_NE(live.find("\"node\":\"server\""), std::string::npos) << live;
  EXPECT_NE(live.find("\"enabled\":true"), std::string::npos) << live;
  EXPECT_NE(live.find("\"metrics\":"), std::string::npos) << live;

  EXPECT_EQ(WaitFor(server_pid), 0) << ReadFile(dir + "/bcc_telemetry_server.log");
  for (uint32_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(WaitFor(client_pids[c]), 0)
        << ReadFile(dir + "/bcc_telemetry_client" + std::to_string(c) + ".log");
  }

  // Zero observer effect, system level: digests bit-identical to the oracle.
  SimConfig sim;
  sim.num_objects = kObjects;
  sim.object_size_bits = 8 * 1024;
  sim.seed = kSeed;
  sim.num_clients = kClients;
  sim.stop_after_cycles = kCycles;
  sim.channel_broadcast = true;
  sim.use_wire_codec = true;
  sim.algorithm = Algorithm::kFMatrix;
  BroadcastSim oracle(sim);
  ASSERT_TRUE(oracle.Run().ok());
  const CycleSnapshot& snap = oracle.final_snapshot();
  uint64_t oracle_digest = DigestValues(snap.values);
  oracle_digest =
      DigestMatrixResidues(snap.f_matrix, CycleStampCodec(sim.timestamp_bits), oracle_digest);

  const std::string server_report = ReadFile(server_json);
  ASSERT_FALSE(server_report.empty());
  EXPECT_EQ(ExtractU64(server_report, "digest"), oracle_digest)
      << "telemetry perturbed the daemon: " << server_report;
  // The final report splices the metrics snapshot and stays strict JSON.
  EXPECT_TRUE(ValidateJson(server_report).ok());
  EXPECT_NE(server_report.find("\"metrics\":"), std::string::npos) << server_report;
  EXPECT_EQ(ExtractU64(server_report, "slow_cycles"), 0u) << server_report;
  // Per-cycle wall time is recorded in µs: sub-ms cycles keep a nonzero sum
  // instead of all truncating into bucket 0.
  const size_t cycle_hist = server_report.find("\"server.cycle_us\":");
  ASSERT_NE(cycle_hist, std::string::npos) << server_report;
  EXPECT_GT(ExtractU64(server_report.substr(cycle_hist), "count"), 0u) << server_report;
  EXPECT_GT(ExtractU64(server_report.substr(cycle_hist), "sum"), 0u) << server_report;
  for (uint32_t c = 0; c < kClients; ++c) {
    const std::string report = ReadFile(client_jsons[c]);
    ASSERT_FALSE(report.empty()) << client_jsons[c];
    EXPECT_EQ(ExtractU64(report, "digest"), oracle_digest) << report;
    EXPECT_TRUE(ValidateJson(report).ok());
    EXPECT_NE(report.find("\"metrics\":"), std::string::npos) << report;
  }

  // Snapshot files are strict JSON lines carrying the node identity.
  const std::vector<std::string> server_lines = ReadLines(server_metrics);
  ASSERT_FALSE(server_lines.empty()) << "daemon wrote no metrics snapshots";
  for (const std::string& line : server_lines) {
    ASSERT_TRUE(ValidateJson(line).ok()) << line;
    EXPECT_NE(line.find("\"node\":\"server\""), std::string::npos) << line;
  }
  for (uint32_t c = 0; c < kClients; ++c) {
    const std::vector<std::string> lines = ReadLines(client_metrics[c]);
    ASSERT_FALSE(lines.empty()) << client_metrics[c];
    for (const std::string& line : lines) {
      ASSERT_TRUE(ValidateJson(line).ok()) << line;
      EXPECT_NE(line.find("\"node\":\"client"), std::string::npos) << line;
    }
  }

  // Perfetto traces: valid Chrome trace_event JSON with the expected tracks.
  const std::string server_trace_json = ReadFile(server_trace);
  ASSERT_FALSE(server_trace_json.empty());
  EXPECT_TRUE(ValidateJson(server_trace_json).ok());
  EXPECT_NE(server_trace_json.find("\"server\""), std::string::npos);
  EXPECT_NE(server_trace_json.find("\"client0\""), std::string::npos);
  for (uint32_t c = 0; c < kClients; ++c) {
    const std::string trace = ReadFile(client_traces[c]);
    ASSERT_FALSE(trace.empty()) << client_traces[c];
    EXPECT_TRUE(ValidateJson(trace).ok()) << client_traces[c];
  }

  // The decision log exports as one strict-JSON document.
  const std::string decisions = ReadFile(decisions_json);
  ASSERT_FALSE(decisions.empty());
  EXPECT_TRUE(ValidateJson(decisions).ok());
  EXPECT_NE(decisions.find("\"server_commits\""), std::string::npos);
  EXPECT_NE(decisions.find("\"uplinks\""), std::string::npos);
}

/// Runs the daemon and `num_clients` client runtimes in-process over
/// loopback (for SimConfig fields no flag reaches). Fails the test on any
/// error.
void RunInProcessTier(const SimConfig& sim, const std::string& tag, uint32_t num_clients,
                      ServerReport* server_report, std::vector<ClientReport>* reports) {
  const std::string endpoint_file = ::testing::TempDir() + "/bcc_" + tag + ".ep";
  ::unlink(endpoint_file.c_str());
  NetConfig server_net;
  server_net.listen = "127.0.0.1:0";
  server_net.endpoint_file = endpoint_file;
  server_net.expected_clients = num_clients;
  server_net.pace_cycles_per_sec = 200;
  server_net.max_wall_ms = 60000;
  Status server_status;
  std::thread server([&] { server_status = RunServerDaemon(server_net, sim, server_report); });

  std::string endpoint;
  for (int i = 0; i < 400 && endpoint.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    endpoint = ReadFile(endpoint_file);
  }
  while (!endpoint.empty() && (endpoint.back() == '\n' || endpoint.back() == '\r')) {
    endpoint.pop_back();
  }
  reports->assign(num_clients, ClientReport());
  std::vector<Status> statuses(num_clients);
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      NetConfig client_net;
      client_net.connect = endpoint;
      client_net.client_id = c + 1;
      client_net.max_wall_ms = 60000;
      statuses[c] = endpoint.empty() ? Status::Internal("daemon never wrote its endpoint file")
                                     : RunClientRuntime(client_net, sim, &(*reports)[c]);
    });
  }
  for (std::thread& t : clients) t.join();
  server.join();
  ASSERT_TRUE(server_status.ok()) << server_status.ToString();
  for (uint32_t c = 0; c < num_clients; ++c) {
    ASSERT_TRUE(statuses[c].ok()) << "client " << c << ": " << statuses[c].ToString();
  }
}

// The socket client runs the same ClientSession as the DES clients, so it
// censors at max_restarts_per_txn. The daemon and the client run in-process
// here because no flag sets the restart guard.
TEST(NetLoopbackTest, SocketClientCensorsAtTheRestartGuard) {
  SimConfig sim;
  sim.num_objects = kObjects;
  sim.object_size_bits = 8 * 1024;
  sim.seed = kSeed;
  sim.stop_after_cycles = 48;
  // Four-read transactions against ~4 commits per cycle: some commit, some abort.
  sim.client_txn_length = 4;
  sim.server_txn_interval = 60000;
  sim.max_restarts_per_txn = 1;

  ServerReport server_report;
  std::vector<ClientReport> reports;
  RunInProcessTier(sim, "censor", 1, &server_report, &reports);
  if (HasFatalFailure()) return;
  const ClientReport& report = reports[0];

  const uint64_t censored = report.abort_causes.Count(AbortCause::kCensored);
  EXPECT_GT(censored, 0u) << report.ToJson();
  EXPECT_EQ(censored, report.aborts) << "with max_restarts_per_txn = 1 every abort censors";
  EXPECT_EQ(report.abort_causes.TotalAborts(), report.aborts);
  EXPECT_GT(report.commits, 0u) << report.ToJson();
}

// Server commits spaced exactly two cycles apart all land on cycle
// boundaries. Each fires before the flip it ties with (the flip was
// scheduled after the commit's parent), so it belongs to the cycle that
// ends there. The daemon must place every one of them where the DES does.
TEST(NetLoopbackTest, BoundaryTiedCommitsMatchTheDesOracle) {
  SimConfig sim;
  sim.num_objects = kObjects;
  sim.object_size_bits = 8 * 1024;
  sim.seed = kSeed;
  sim.stop_after_cycles = kCycles;
  ASSERT_TRUE(NormalizeNetSimConfig(&sim).ok());
  sim.server_txn_interval = 2 * sim.Geometry().cycle_bits;
  sim.server_interval_exponential = false;

  ServerReport server_report;
  std::vector<ClientReport> reports;
  RunInProcessTier(sim, "boundary", 2, &server_report, &reports);
  if (HasFatalFailure()) return;

  SimConfig oracle_config = sim;
  oracle_config.channel_broadcast = false;  // bit-identical at loss 0, and faster
  BroadcastSim oracle(oracle_config);
  ASSERT_TRUE(oracle.Run().ok());
  const CycleSnapshot& snap = oracle.final_snapshot();
  ASSERT_EQ(snap.cycle, kCycles);
  const uint64_t oracle_digest = DigestMatrixResidues(
      snap.f_matrix, CycleStampCodec(sim.timestamp_bits), DigestValues(snap.values));

  EXPECT_EQ(server_report.server_commits, kCycles / 2);
  EXPECT_EQ(server_report.digest, oracle_digest) << "daemon diverged from the DES oracle";
  for (const ClientReport& report : reports) EXPECT_EQ(report.digest, server_report.digest);
}

}  // namespace
}  // namespace bcc
