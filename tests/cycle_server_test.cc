// Tests for the server's per-cycle loop (label: server): the staging rule,
// the boundary rule against real event-queue semantics, the fold point, the
// decision log's commit order, and the end-of-cycle matrix accounting.

#include "server/cycle_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "des/event_queue.h"
#include "matrix/sparse_f_matrix.h"
#include "matrix/wire.h"
#include "server/delta_broadcast.h"
#include "server/exec/txn_processor.h"
#include "sim/metrics.h"

namespace bcc {
namespace {

// n = 8 objects of 64 bits plus an 8 x 8-bit control column: 1024-bit cycles.
SimConfig SmallConfig(UpdateScheme scheme) {
  SimConfig config;
  config.algorithm = Algorithm::kFMatrix;
  config.num_objects = 8;
  config.object_size_bits = 64;
  config.server_txn_length = 3;
  config.server_txn_interval = 300;
  config.update_scheme = scheme;
  config.record_decisions = true;
  config.record_history = true;
  config.seed = 5;
  return config;
}

std::unique_ptr<CycleServer> MakeServer(const SimConfig& config, SimMetrics* metrics = nullptr) {
  CycleServerOptions options;
  options.metrics = metrics;
  auto server = CycleServer::Create(config, Rng(config.seed).Split(), options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

/// The cycle each workload commit lands in under the event-queue semantics
/// the boundary rule replays: the flip at k*L is scheduled by the flip at
/// (k-1)*L, each commit schedules the next, and equal times fire in
/// insertion order. Draws the workload exactly as CycleServer does.
std::vector<Cycle> QueueCommitCycles(const SimConfig& config, SimTime cycle_bits, Cycle cycles) {
  ServerWorkload workload(config, Rng(config.seed).Split());
  EventQueue queue;
  Cycle current = 1;
  std::vector<Cycle> out;
  std::function<void()> flip = [&] {
    ++current;
    queue.ScheduleAfter(cycle_bits, flip);
  };
  std::function<void()> commit = [&] {
    out.push_back(current);
    workload.NextTxn();
    queue.ScheduleAfter(workload.NextInterval(), commit);
  };
  queue.ScheduleAt(cycle_bits, flip);
  queue.ScheduleAfter(workload.NextInterval(), commit);
  while (current <= cycles && queue.Step()) {
  }
  while (!out.empty() && out.back() > cycles) out.pop_back();
  return out;
}

/// The cycle CycleServer staged each workload commit in.
std::vector<Cycle> StagedCommitCycles(const SimConfig& config, Cycle cycles) {
  std::unique_ptr<CycleServer> server = MakeServer(config);
  for (Cycle k = 1; k <= cycles; ++k) {
    server->BeginCycle(k);
    server->StageCycle(k);
    server->EndCycle(k, 0);
  }
  std::vector<Cycle> out;
  for (const ServerCommitRecord& r : server->decisions().server_commits) out.push_back(r.cycle);
  return out;
}

TEST(CycleServerTest, StagedUplinkSeesEveryServerWriteOfItsCycle) {
  for (const UpdateScheme scheme : {UpdateScheme::kSequential, UpdateScheme::kOcc}) {
    SimConfig config = SmallConfig(scheme);
    config.server_txn_length = 2;
    config.server_read_probability = 0.0;  // write-only server txns
    std::unique_ptr<CycleServer> server = MakeServer(config);
    server->BeginCycle(1);
    ASSERT_GT(server->StageCycle(1), 0u);
    std::vector<bool> written(config.num_objects, false);
    for (const ServerCommitRecord& r : server->decisions().server_commits) {
      for (ObjectId ob : r.writes) written[ob] = true;
    }
    // Even the cycle's last server commit, which fires near the end of the
    // cycle, is visible to an uplink validated at the cycle's start.
    const ObjectId last = server->decisions().server_commits.back().writes.front();
    const UplinkOutcome stale = server->SubmitUplink(0, {{last, 1}}, {last}, 1);
    EXPECT_FALSE(stale.accepted);
    EXPECT_EQ(stale.cause.cause, AbortCause::kUplinkReject);
    EXPECT_EQ(stale.cause.ob_j, last);
    EXPECT_EQ(stale.cause.c_ij, 1u);
    const auto untouched = std::find(written.begin(), written.end(), false);
    ASSERT_NE(untouched, written.end()) << "every object written; nothing to accept";
    const ObjectId fresh = static_cast<ObjectId>(untouched - written.begin());
    EXPECT_TRUE(server->SubmitUplink(0, {{fresh, 1}}, {fresh}, 1).accepted);
  }
}

TEST(CycleServerTest, BoundaryTiesFollowTheEventQueue) {
  SimConfig config = SmallConfig(UpdateScheme::kSequential);
  config.server_interval_exponential = false;
  const SimTime cycle_bits = config.Geometry().cycle_bits;
  ASSERT_EQ(cycle_bits % 4, 0u);
  constexpr Cycle kCycles = 12;

  // A first commit exactly on the first boundary: its parent (set-up, t = 0)
  // fired no earlier than the flip was scheduled, so it lands in cycle 2,
  // and so does every later tie.
  config.server_txn_interval = cycle_bits;
  std::vector<Cycle> staged = StagedCommitCycles(config, kCycles);
  EXPECT_EQ(staged, QueueCommitCycles(config, cycle_bits, kCycles));
  EXPECT_EQ(staged.front(), 2u);

  // Ties with no earlier commit in their cycle: the parent fired before the
  // flip at k*L was scheduled, so the commit at k*L beats it and belongs to
  // cycle k.
  config.server_txn_interval = 2 * cycle_bits;
  staged = StagedCommitCycles(config, kCycles);
  EXPECT_EQ(staged, QueueCommitCycles(config, cycle_bits, kCycles));
  EXPECT_EQ(staged, (std::vector<Cycle>{2, 4, 6, 8, 10, 12}));

  // Ties with an earlier commit in the ending cycle: the parent fired after
  // the flip was scheduled, so the tie opens the next cycle.
  config.server_txn_interval = cycle_bits / 2;
  staged = StagedCommitCycles(config, kCycles);
  EXPECT_EQ(staged, QueueCommitCycles(config, cycle_bits, kCycles));
  EXPECT_EQ(std::count(staged.begin(), staged.end(), 1u), 1);
  EXPECT_EQ(std::count(staged.begin(), staged.end(), 2u), 2);

  // Mixed offsets and the exponential stream.
  for (const SimTime interval : {cycle_bits / 4, 3 * cycle_bits / 4, 3 * cycle_bits / 2}) {
    config.server_txn_interval = interval;
    EXPECT_EQ(StagedCommitCycles(config, kCycles), QueueCommitCycles(config, cycle_bits, kCycles))
        << "interval " << interval;
  }
  config.server_interval_exponential = true;
  config.server_txn_interval = cycle_bits / 3;
  EXPECT_EQ(StagedCommitCycles(config, kCycles), QueueCommitCycles(config, cycle_bits, kCycles));
}

TEST(CycleServerTest, UplinkAcceptedInCycleKIsOnAirInKPlusOneWithStampK) {
  for (const UpdateScheme scheme : {UpdateScheme::kSequential, UpdateScheme::kOcc}) {
    SimConfig config = SmallConfig(scheme);
    config.server_txn_interval = 1u << 30;  // no server commits in the way
    std::unique_ptr<CycleServer> server = MakeServer(config);
    for (Cycle k = 1; k <= 2; ++k) {
      server->BeginCycle(k);
      server->StageCycle(k);
      if (k < 2) server->EndCycle(k, 0);
    }
    ASSERT_TRUE(server->SubmitUplink(3, {{1, 1}}, {4}, 2).accepted);
    const TxnId id = server->decisions().uplinks.back().id;
    server->EndCycle(2, 0);
    const CycleSnapshot& snap = server->BeginCycle(3);
    EXPECT_EQ(snap.values[4].writer, id);
    EXPECT_EQ(snap.values[4].cycle, 2u);
    EXPECT_EQ(snap.f_matrix.At(4, 4), 2u);
    EXPECT_EQ(server->manager().commit_cycles().at(id), 2u);
  }
}

/// Commit order as the manager's recorded history saw it.
std::vector<TxnId> HistoryCommitOrder(const ServerTxnManager& manager) {
  std::vector<TxnId> order;
  for (const Operation& op : manager.recorded_history().ops()) {
    if (op.type == OpType::kCommit) order.push_back(op.txn);
  }
  return order;
}

TEST(CycleServerTest, DecisionLogSeqsAreDenseAndInFoldOrder) {
  for (const UpdateScheme scheme : {UpdateScheme::kSequential, UpdateScheme::kOcc}) {
    SimConfig config = SmallConfig(scheme);
    std::unique_ptr<CycleServer> server = MakeServer(config);
    constexpr Cycle kCycles = 10;
    for (Cycle k = 1; k <= kCycles; ++k) {
      server->BeginCycle(k);
      server->StageCycle(k);
      // Two uplinks per cycle: one reads the previous cycle (often stale),
      // one reads nothing and writes two objects (always accepted).
      const ObjectId a = static_cast<ObjectId>(k % config.num_objects);
      server->SubmitUplink(0, {{a, k > 1 ? k - 1 : 1}}, {a}, k);
      server->SubmitUplink(1, {}, {a, static_cast<ObjectId>((k + 3) % config.num_objects)}, k);
      server->EndCycle(k, 0);
    }
    const DecisionLog& log = server->decisions();
    std::map<uint64_t, TxnId> by_seq;
    std::map<Cycle, uint64_t> last_uplink_seq, first_server_seq, last_server_seq;
    for (const ServerCommitRecord& r : log.server_commits) {
      by_seq.emplace(r.seq, r.id);
      first_server_seq.try_emplace(r.cycle, r.seq);
      last_server_seq[r.cycle] = std::max(last_server_seq[r.cycle], r.seq);
    }
    size_t accepted = 0;
    for (const UplinkDecision& d : log.uplinks) {
      if (!d.accepted) {
        EXPECT_EQ(d.seq, 0u);
        continue;
      }
      ++accepted;
      by_seq.emplace(d.seq, d.id);
      last_uplink_seq[d.cycle] = std::max(last_uplink_seq[d.cycle], d.seq);
    }
    ASSERT_GE(accepted, kCycles);
    ASSERT_EQ(by_seq.size(), log.server_commits.size() + accepted) << "duplicate seq";
    EXPECT_EQ(by_seq.begin()->first, 1u);
    EXPECT_EQ(by_seq.rbegin()->first, by_seq.size()) << "seqs are not dense";

    // Seq order is the store's commit order.
    std::vector<TxnId> seq_order;
    for (const auto& [seq, id] : by_seq) seq_order.push_back(id);
    EXPECT_EQ(seq_order, HistoryCommitOrder(server->manager()));

    // Pooled: the cycle's uplinks fold as a prefix before its server batch.
    // Sequential: the server batch committed when staged, before any uplink
    // of the cycle.
    for (const auto& [cycle, uplink_seq] : last_uplink_seq) {
      if (!first_server_seq.contains(cycle)) continue;
      if (scheme == UpdateScheme::kOcc) {
        EXPECT_LT(uplink_seq, first_server_seq[cycle]) << "cycle " << cycle;
      } else {
        EXPECT_GT(uplink_seq, last_server_seq[cycle]) << "cycle " << cycle;
      }
    }
  }
}

TEST(CycleServerTest, SparseControlBitsMatchTheMatrixEncoding) {
  SimConfig config = SmallConfig(UpdateScheme::kSequential);
  config.matrix_mode = MatrixMode::kSparse;
  config.record_history = false;
  SimMetrics metrics(0);
  std::unique_ptr<CycleServer> server = MakeServer(config, &metrics);
  uint64_t expected = 0;
  for (Cycle k = 1; k <= 6; ++k) {
    server->BeginCycle(k);
    server->StageCycle(k);
    server->EndCycle(k, 0);
    expected +=
        SparseMatrixControlBits(server->manager().sparse_f_matrix(), config.timestamp_bits);
  }
  const SimSummary summary = metrics.Summarize(6, 0, 0, 0);
  EXPECT_EQ(summary.matrix_cycles, 6u);
  EXPECT_EQ(summary.matrix_control_bits, expected);
  EXPECT_GT(summary.server_commits, 0u);
}

/// What a cycle-by-cycle run of a server left behind.
struct StagedRun {
  DecisionLog log;
  std::vector<TraceEvent> trace;
  std::vector<TxnId> commit_order;
  uint64_t server_commits = 0;
};

/// Runs `cycles` cycles with one uplink per cycle. With `draw_ahead` the
/// cycles after the first are drawn the way ConcurrentSim draws them: while
/// the previous cycle's uplinks validate, before it folds; and one more
/// cycle is drawn at the end and never staged, as when a run stops on its
/// transaction count.
StagedRun RunCycles(const SimConfig& config, Cycle cycles, bool draw_ahead) {
  TraceRing ring(1 << 14);
  std::unique_ptr<CycleServer> server = MakeServer(config);
  server->set_trace_ring(&ring);
  server->BeginCycle(1);
  for (Cycle k = 1; k <= cycles; ++k) {
    server->StageCycle(k);
    const ObjectId ob = static_cast<ObjectId>(k % config.num_objects);
    server->SubmitUplink(0, {{ob, k > 1 ? k - 1 : 1}}, {ob}, k);
    if (draw_ahead) {
      const uint64_t staged = server->server_commits();
      const size_t logged = server->decisions().server_commits.size();
      server->DrawCycle(k + 1);
      EXPECT_EQ(server->server_commits(), staged) << "a drawn commit counted before staging";
      EXPECT_EQ(server->decisions().server_commits.size(), logged);
    }
    server->EndCycle(k, 0);
    server->BeginCycle(k + 1);
  }
  StagedRun run;
  run.log = server->decisions();
  run.trace = ring.Snapshot();
  run.commit_order = HistoryCommitOrder(server->manager());
  run.server_commits = server->server_commits();
  EXPECT_EQ(ring.dropped(), 0u);
  return run;
}

TEST(CycleServerTest, DrawnAheadCycleStagesExactlyWhatStagingAloneDoes) {
  for (const UpdateScheme scheme : {UpdateScheme::kSequential, UpdateScheme::kOcc}) {
    SCOPED_TRACE(UpdateSchemeName(scheme));
    SimConfig config = SmallConfig(scheme);
    constexpr Cycle kCycles = 12;
    const StagedRun plain = RunCycles(config, kCycles, /*draw_ahead=*/false);
    const StagedRun ahead = RunCycles(config, kCycles, /*draw_ahead=*/true);
    ASSERT_GT(plain.server_commits, kCycles);
    EXPECT_EQ(ahead.server_commits, plain.server_commits);

    ASSERT_EQ(ahead.log.server_commits.size(), plain.log.server_commits.size());
    for (size_t i = 0; i < plain.log.server_commits.size(); ++i) {
      const ServerCommitRecord& a = ahead.log.server_commits[i];
      const ServerCommitRecord& p = plain.log.server_commits[i];
      EXPECT_EQ(a.id, p.id) << i;
      EXPECT_EQ(a.cycle, p.cycle) << i;
      EXPECT_EQ(a.seq, p.seq) << i;
      EXPECT_EQ(a.reads, p.reads) << i;
      EXPECT_EQ(a.writes, p.writes) << i;
    }
    ASSERT_EQ(ahead.log.uplinks.size(), plain.log.uplinks.size());
    for (size_t i = 0; i < plain.log.uplinks.size(); ++i) {
      const UplinkDecision& a = ahead.log.uplinks[i];
      const UplinkDecision& p = plain.log.uplinks[i];
      EXPECT_EQ(a.id, p.id) << i;
      EXPECT_EQ(a.accepted, p.accepted) << i;
      EXPECT_EQ(a.seq, p.seq) << i;
      EXPECT_EQ(a.cause.cause, p.cause.cause) << i;
      EXPECT_EQ(a.writes, p.writes) << i;
    }
    EXPECT_EQ(ahead.commit_order, plain.commit_order);

    ASSERT_EQ(ahead.trace.size(), plain.trace.size());
    for (size_t i = 0; i < plain.trace.size(); ++i) {
      const TraceEvent& a = ahead.trace[i];
      const TraceEvent& p = plain.trace[i];
      EXPECT_EQ(a.type, p.type) << i;
      EXPECT_EQ(a.time, p.time) << i;
      EXPECT_EQ(a.duration, p.duration) << i;
      EXPECT_EQ(a.cycle, p.cycle) << i;
      EXPECT_EQ(a.value, p.value) << i;
    }
  }
}

/// The uplink workload's server shape: sparse control, 50 commits pinned
/// per cycle under the OCC engine, no clients.
SimConfig UplinkShape(uint32_t num_objects) {
  SimConfig config;
  config.matrix_mode = MatrixMode::kSparse;
  config.num_objects = num_objects;
  config.object_size_bits = 64;
  config.update_scheme = UpdateScheme::kOcc;
  config.server_txn_interval = config.Geometry().cycle_bits / 50;
  config.server_interval_exponential = false;
  config.record_decisions = true;
  config.seed = 19;
  return config;
}

TEST(CycleServerTest, SnapshotBytesScaleWithTouchedPagesNotObjects) {
  using Columns = SparseFMatrix::ColumnTable;
  constexpr Cycle kCycles = 30;
  std::map<uint32_t, double> mean_total;
  for (const uint32_t n : {10'000u, 100'000u}) {
    SCOPED_TRACE(n);
    std::unique_ptr<CycleServer> server = MakeServer(UplinkShape(n));
    const CycleSnapshot& first = server->BeginCycle(1);
    // Every snapshot copies the same two tables (`first` is replaced by
    // the next BeginCycle, so only its table sizes are kept).
    const uint64_t table_bytes =
        first.values.table_bytes() + first.sparse_f_matrix->column_pages().table_bytes();
    const uint64_t start = server->broadcast().snapshot_bytes_copied();
    uint64_t before = start;
    size_t seen_commits = 0;
    for (Cycle k = 1; k <= kCycles; ++k) {
      EXPECT_GE(server->StageCycle(k), 49u);
      server->EndCycle(k, 0);
      server->BeginCycle(k + 1);
      // Distinct pages the cycle's commits wrote, per container (the page
      // sizes differ by element type).
      std::set<uint32_t> values_written, columns_written;
      const auto& commits = server->decisions().server_commits;
      for (; seen_commits < commits.size(); ++seen_commits) {
        for (ObjectId w : commits[seen_commits].writes) {
          values_written.insert(w >> ObjectValues::kPageShift);
          columns_written.insert(w >> Columns::kPageShift);
        }
      }
      const uint64_t after = server->broadcast().snapshot_bytes_copied();
      const uint64_t total = after - before;
      before = after;
      ASSERT_GE(total, table_bytes);
      // Each page a commit wrote is copied at most once per container.
      const uint64_t page_bytes = values_written.size() * ObjectValues::kPageBytes +
                                  columns_written.size() * Columns::kPageBytes;
      EXPECT_LE(total - table_bytes, page_bytes) << "cycle " << k;
    }
    mean_total[n] = static_cast<double>(before - start) / kCycles;
  }
  // Ten times the objects under the same commit stream: only the page
  // tables (n / kPageEntries slots) and the spread of the writes over more
  // pages grow, so the per-cycle cost grows far less than n does.
  EXPECT_LT(mean_total[100'000], 5 * mean_total[10'000]);
}

/// The transactions of `batch`, ordered by their seq.
std::vector<ServerTxn> InSeqOrder(std::vector<std::pair<uint64_t, ServerTxn>> batch) {
  std::sort(batch.begin(), batch.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<ServerTxn> txns;
  for (auto& [seq, txn] : batch) txns.push_back(std::move(txn));
  return txns;
}

/// The fields of a delta control block the fold's touched columns decide.
auto DeltaFields(const DeltaControl& ctl) {
  std::vector<std::tuple<ObjectId, ObjectId, uint32_t>> entries;
  for (const DeltaCodec::Entry& e : ctl.entries) entries.emplace_back(e.row, e.col, e.residue);
  return std::tuple(ctl.cycle, ctl.full_refresh, ctl.control_bits, entries);
}

// The fold commits each cycle straight into the manager, in staging order.
// Replaying every cycle's log, in seq order, through the processor at one
// executor (which commits in input order) must leave the same store and
// sparse matrix, and the same delta control from the drained columns.
TEST(CycleServerTest, OneExecutorFoldMatchesTheProcessorReplay) {
  constexpr uint32_t kObjects = 2000;
  constexpr Cycle kCycles = 40;
  for (const uint64_t seed : {3ull, 19ull, 1009ull}) {
    SCOPED_TRACE(seed);
    SimConfig config = UplinkShape(kObjects);
    config.seed = seed;
    config.delta_broadcast = true;
    std::unique_ptr<CycleServer> server = MakeServer(config);
    TxnManagerOptions shadow_options;
    shadow_options.maintain_f_matrix = false;
    shadow_options.maintain_sparse_matrix = true;
    shadow_options.track_dirty_columns = true;
    ServerTxnManager shadow(kObjects, shadow_options);
    TxnProcessor processor(kObjects, UpdateScheme::kOcc, 1);
    DeltaBroadcaster shadow_delta(kObjects, CycleStampCodec(config.timestamp_bits),
                                  config.delta_refresh_period);
    const auto shadow_control = [&](Cycle cycle) {
      const std::vector<ObjectId> touched = shadow.TakeTouchedColumns();
      return DeltaFields(
          shadow_delta.BuildControl(shadow.sparse_f_matrix().Snapshot(), touched, cycle));
    };
    Rng traffic(seed);
    size_t seen_commits = 0, seen_uplinks = 0, accepted = 0, rejected = 0;
    server->BeginCycle(1);
    ASSERT_EQ(DeltaFields(*server->snapshot().delta), shadow_control(1));
    for (Cycle k = 1; k <= kCycles; ++k) {
      server->StageCycle(k);
      // Uplinks read what cycle k or k - 1 broadcast (the older reads are
      // often stale) and write objects of their own.
      for (uint32_t u = 0; u < 8; ++u) {
        std::vector<ReadRecord> reads;
        const Cycle read_cycle = k > 1 && traffic.NextBernoulli(0.5) ? k - 1 : k;
        for (ObjectId ob : traffic.SampleWithoutReplacement(kObjects, 3)) {
          reads.push_back({ob, read_cycle});
        }
        const UplinkOutcome outcome =
            server->SubmitUplink(u % 2, std::move(reads),
                                 traffic.SampleWithoutReplacement(kObjects, 2), k);
        ++(outcome.accepted ? accepted : rejected);
      }
      server->EndCycle(k, 0);

      // Cycle k's commits, each kind in seq order: the fold committed the
      // accepted uplinks, then the server batch.
      const DecisionLog& log = server->decisions();
      std::vector<std::pair<uint64_t, ServerTxn>> uplinks, commits;
      for (; seen_uplinks < log.uplinks.size(); ++seen_uplinks) {
        const UplinkDecision& d = log.uplinks[seen_uplinks];
        if (!d.accepted) continue;
        ServerTxn txn{d.id, {}, d.writes};
        for (const ReadRecord& r : d.reads) txn.read_set.push_back(r.object);
        uplinks.emplace_back(d.seq, std::move(txn));
      }
      for (; seen_commits < log.server_commits.size(); ++seen_commits) {
        const ServerCommitRecord& r = log.server_commits[seen_commits];
        commits.emplace_back(r.seq, ServerTxn{r.id, r.reads, r.writes});
      }
      const std::vector<ServerTxn> uplink_txns = InSeqOrder(std::move(uplinks));
      const std::vector<ServerTxn> commit_txns = InSeqOrder(std::move(commits));
      FoldIntoManager(processor.ExecuteSerial(uplink_txns), shadow, k);
      FoldIntoManager(processor.ExecuteBatch(commit_txns), shadow, k);

      ASSERT_TRUE(server->manager().store().committed() == shadow.store().committed())
          << "cycle " << k;
      ASSERT_TRUE(server->manager().sparse_f_matrix() == shadow.sparse_f_matrix())
          << "cycle " << k;
      server->BeginCycle(k + 1);
      ASSERT_EQ(DeltaFields(*server->snapshot().delta), shadow_control(k + 1)) << "cycle " << k;
    }
    EXPECT_EQ(server->manager().num_committed(), shadow.num_committed());
    EXPECT_GT(accepted, kCycles);
    EXPECT_GT(rejected, 0u);
  }
}

}  // namespace
}  // namespace bcc
