// Decision-log audit (labels: net, obs): runs the real daemon engine and
// several client runtimes in-process over loopback UDP with client updates
// enabled, then replays the daemon's exported per-uplink accept/reject
// decision log through the paper's offline machinery — the History class and
// the conflict-serializability checker — to prove the live tier's validation
// decisions describe a serializable execution.
//
// Replay ordering (mirrors the daemon's fold discipline): the snapshot of
// cycle c is broadcast BEFORE the commits labeled cycle c fold, and an
// uplink read recorded at cycle c observed exactly the commits labeled
// <= c-1 (the validator rejects when last_write >= read cycle). So reads
// recorded at cycle c sort before the cycle-c fold, and folded operations
// sort by their global commit seq — the store's actual commit order.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cc/conflict_serializability.h"
#include "history/history.h"
#include "net/client_runtime.h"
#include "net/net_config.h"
#include "net/server_daemon.h"
#include "obs/json.h"

namespace bcc {
namespace {

constexpr uint32_t kObjects = 48;
constexpr uint64_t kCycles = 32;
constexpr uint32_t kClients = 3;
constexpr uint64_t kSeed = 7;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// One operation tagged with its position in the tier's global order.
struct KeyedOp {
  Cycle cycle = 0;
  int phase = 0;  ///< 0 = snapshot reads, 1 = cycle fold, 2 = terminal aborts
  uint64_t seq = 0;
  Operation op = Operation::Commit(kNoTxn);
};

bool KeyLess(const KeyedOp& a, const KeyedOp& b) {
  if (a.cycle != b.cycle) return a.cycle < b.cycle;
  if (a.phase != b.phase) return a.phase < b.phase;
  return a.seq < b.seq;
}

/// Rebuilds the run's totally ordered history from the exported decision
/// log. Rejected uplinks contribute their reads and an abort; their writes
/// were never applied and are omitted.
History ReplayHistory(const DecisionLog& log) {
  std::vector<KeyedOp> ops;
  for (const ServerCommitRecord& s : log.server_commits) {
    // Server transactions execute sequentially inside the fold: reads,
    // writes, and commit all live at the fold point in commit-seq order.
    for (const ObjectId ob : s.reads) ops.push_back({s.cycle, 1, s.seq, Operation::Read(s.id, ob)});
    for (const ObjectId ob : s.writes) {
      ops.push_back({s.cycle, 1, s.seq, Operation::Write(s.id, ob)});
    }
    ops.push_back({s.cycle, 1, s.seq, Operation::Commit(s.id)});
  }
  for (const UplinkDecision& d : log.uplinks) {
    if (d.accepted) {
      for (const ReadRecord& r : d.reads) {
        ops.push_back({r.cycle, 0, d.seq, Operation::Read(d.id, r.object)});
      }
      for (const ObjectId ob : d.writes) {
        ops.push_back({d.cycle, 1, d.seq, Operation::Write(d.id, ob)});
      }
      ops.push_back({d.cycle, 1, d.seq, Operation::Commit(d.id)});
    } else {
      for (const ReadRecord& r : d.reads) {
        ops.push_back({r.cycle, 0, UINT64_MAX, Operation::Read(d.id, r.object)});
      }
      ops.push_back({d.cycle, 2, UINT64_MAX, Operation::Abort(d.id)});
    }
  }
  std::stable_sort(ops.begin(), ops.end(), KeyLess);
  History h;
  for (const KeyedOp& k : ops) h.Append(k.op);
  return h;
}

/// Runs the daemon and kClients client runtimes under `scheme` with client
/// updates on, then audits the exported decision log: client digests equal
/// the daemon's, the log reconciles with the counters, commit seqs are dense,
/// and the replayed history is conflict-serializable.
void AuditDecisionLog(UpdateScheme scheme, const std::string& tag) {
  const std::string dir = ::testing::TempDir();
  const std::string endpoint_file = dir + "/bcc_decisions_" + tag + ".ep";
  const std::string decisions_path = dir + "/bcc_decisions_" + tag + ".json";
  ::unlink(endpoint_file.c_str());
  ::unlink(decisions_path.c_str());

  SimConfig sim;
  sim.num_objects = kObjects;
  sim.object_size_bits = 2048;
  sim.seed = kSeed;
  sim.num_clients = kClients;
  sim.stop_after_cycles = kCycles;
  sim.client_update_fraction = 0.5;
  sim.update_scheme = scheme;
  sim.update_workers = 1;

  NetConfig server_net;
  server_net.listen = "127.0.0.1:0";
  server_net.endpoint_file = endpoint_file;
  server_net.expected_clients = kClients;
  server_net.max_wall_ms = 120000;
  server_net.decisions_out = decisions_path;

  ServerReport server_report;
  Status server_status = Status::OK();
  std::thread server([&] { server_status = RunServerDaemon(server_net, sim, &server_report); });

  std::string endpoint;
  for (int i = 0; i < 400 && endpoint.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    endpoint = ReadFile(endpoint_file);
  }
  while (!endpoint.empty() && (endpoint.back() == '\n' || endpoint.back() == '\r')) {
    endpoint.pop_back();
  }
  ASSERT_FALSE(endpoint.empty()) << "daemon never wrote its endpoint file";

  std::vector<ClientReport> reports(kClients);
  std::vector<Status> statuses(kClients, Status::OK());
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (uint32_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      NetConfig client_net;
      client_net.connect = endpoint;
      client_net.client_id = c + 1;
      client_net.max_wall_ms = 120000;
      statuses[c] = RunClientRuntime(client_net, sim, &reports[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  server.join();
  ASSERT_TRUE(server_status.ok()) << server_status.ToString();
  for (uint32_t c = 0; c < kClients; ++c) {
    ASSERT_TRUE(statuses[c].ok()) << "client " << c << ": " << statuses[c].ToString();
    EXPECT_EQ(reports[c].digest, server_report.digest) << "client " << c << " diverged";
  }

  // The log must reconcile exactly with the run's summary counters.
  const DecisionLog& log = server_report.decisions;
  EXPECT_EQ(log.server_commits.size(), server_report.server_commits);
  uint64_t accepts = 0;
  uint64_t rejects = 0;
  for (const UplinkDecision& d : log.uplinks) {
    (d.accepted ? accepts : rejects) += 1;
    EXPECT_LT(d.client_index, kClients);
    if (d.accepted) {
      EXPECT_FALSE(d.writes.empty()) << "accepted uplink " << d.id << " wrote nothing";
    } else {
      // Rejections carry the structured conflict that fired: the object
      // whose post-read overwrite invalidated the read.
      EXPECT_EQ(d.cause.cause, AbortCause::kUplinkReject);
      EXPECT_GT(d.cause.c_ij, 0u) << "reject without an overwriting cycle";
      EXPECT_GE(d.cause.c_ij, d.cause.read_cycle);
    }
  }
  EXPECT_EQ(accepts, server_report.uplink_accepts);
  EXPECT_EQ(rejects, server_report.uplink_rejects);
  ASSERT_GT(accepts, 0u) << "workload produced no accepted uplinks; nothing audited";

  // Commit seqs are the store's total commit order: dense, starting at 1.
  std::vector<uint64_t> seqs;
  for (const ServerCommitRecord& s : log.server_commits) seqs.push_back(s.seq);
  for (const UplinkDecision& d : log.uplinks) {
    if (d.accepted) seqs.push_back(d.seq);
  }
  std::sort(seqs.begin(), seqs.end());
  for (size_t i = 0; i < seqs.size(); ++i) {
    ASSERT_EQ(seqs[i], i + 1) << "commit seq sequence has a gap or duplicate";
  }

  // The audit: the replayed interleaved history must be structurally valid
  // and conflict-serializable — the paper's acceptance criterion is
  // conservative, so every accepted interleaving has a serial equivalent.
  const History h = ReplayHistory(log);
  ASSERT_FALSE(h.empty());
  ASSERT_TRUE(h.Validate().ok()) << h.ToString();
  EXPECT_TRUE(IsConflictSerializable(h));
  // The projection onto update transactions (the sub-history the paper's
  // criteria are actually defined over) must pass as well.
  EXPECT_TRUE(IsConflictSerializable(h.UpdateSubHistory()));

  // The exported file is one strict-JSON document of the same log.
  const std::string file = ReadFile(decisions_path);
  ASSERT_FALSE(file.empty());
  EXPECT_TRUE(ValidateJson(file).ok());
  EXPECT_EQ(file, log.ToJson() + "\n");
}

TEST(NetDecisionLogTest, ReplayedDecisionLogIsConflictSerializable) {
  AuditDecisionLog(UpdateScheme::kSequential, "seq");
}

// The pooled daemon validates against the cycle-epoch overlay and commits
// accepted uplinks at the cycle fold, as a serial prefix before the cycle's
// server batch: the log's seqs must follow that order.
TEST(NetDecisionLogTest, PooledOccDecisionLogIsConflictSerializable) {
  AuditDecisionLog(UpdateScheme::kOcc, "occ");
}

}  // namespace
}  // namespace bcc
