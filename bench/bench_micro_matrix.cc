// Microbenchmarks (google-benchmark) for the server-side control-matrix
// hot paths: Theorem 2 incremental maintenance (per-commit and cycle-fused),
// client read-condition checks, per-cycle snapshotting (full copy and the
// paged dense columns / values / sparse column table),
// group-matrix derivation and delta diffs.
//
// Besides google-benchmark's own console output, `--json_out=F` emits every
// result row as JSON through obs/json.h (bcc.perf_trajectory.v1 row shape),
// independent of --benchmark_format.

#include <benchmark/benchmark.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "matrix/control_view.h"
#include "matrix/group_matrix.h"
#include "matrix/kernels.h"
#include "matrix/sparse_f_matrix.h"
#include "matrix/wire.h"
#include "obs/json.h"
#include "obs/trace_export.h"
#include "server/store.h"

namespace bcc {
namespace {

// A warmed-up matrix with plausible dependency structure.
FMatrix WarmMatrix(uint32_t n, uint32_t commits = 200) {
  Rng rng(99);
  FMatrix c(n);
  for (Cycle cycle = 1; cycle <= commits; ++cycle) {
    const auto reads = rng.SampleWithoutReplacement(n, 4);
    const auto writes = rng.SampleWithoutReplacement(n, 4);
    c.ApplyCommit(reads, writes, cycle);
  }
  return c;
}

void BM_FMatrixApplyCommit(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  FMatrix c = WarmMatrix(n);
  Rng rng(7);
  const auto reads = rng.SampleWithoutReplacement(n, 4);
  const auto writes = rng.SampleWithoutReplacement(n, 4);
  Cycle cycle = 1000;
  for (auto _ : state) {
    c.ApplyCommit(reads, writes, cycle++);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FMatrixApplyCommit)->Arg(100)->Arg(300)->Arg(1000);

// A saturated broadcast cycle's commit queue: one commit per object slot
// (the Fig. 4a regime at large n), Table 1-shaped read/write sets.
std::vector<CommitSets> CycleBatch(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<CommitSets> batch(n);
  for (CommitSets& c : batch) {
    c.read_set = rng.SampleWithoutReplacement(n, n < 2 ? n : 2);
    c.write_set = rng.SampleWithoutReplacement(n, n < 8 ? n : 8);
  }
  return batch;
}

// The per-commit oracle: one ApplyCommit per queued commit. Throughput is
// items/sec over COMMITS, directly comparable to BM_FMatrixApplyCommitBatch.
void BM_FMatrixApplyCommitOracle(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  FMatrix c = WarmMatrix(n);
  const std::vector<CommitSets> batch = CycleBatch(n, 21);
  Cycle cycle = 1000;
  for (auto _ : state) {
    for (const CommitSets& commit : batch) {
      c.ApplyCommit(commit.read_set, commit.write_set, cycle);
    }
    ++cycle;
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * batch.size());
}
BENCHMARK(BM_FMatrixApplyCommitOracle)->Arg(100)->Arg(300)->Arg(1000);

// The cycle-fused path on the identical commit queue (bit-identical result;
// commit_batch_property_test enforces it).
void BM_FMatrixApplyCommitBatch(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  FMatrix c = WarmMatrix(n);
  const std::vector<CommitSets> batch = CycleBatch(n, 21);
  Cycle cycle = 1000;
  for (auto _ : state) {
    c.ApplyCommitBatch(batch, cycle++);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * batch.size());
}
BENCHMARK(BM_FMatrixApplyCommitBatch)->Arg(100)->Arg(300)->Arg(1000);

void BM_FMatrixReadCondition(benchmark::State& state) {
  const uint32_t n = 300;
  const FMatrix c = WarmMatrix(n);
  const uint32_t reads = static_cast<uint32_t>(state.range(0));
  std::vector<ReadRecord> records;
  for (uint32_t k = 0; k < reads; ++k) records.push_back({k * 7 % n, 150 + k});
  bool sink = false;
  for (auto _ : state) {
    sink ^= ControlView(c).ReadConditionScan(records, 42) == kReadConditionPass;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FMatrixReadCondition)->Arg(2)->Arg(8)->Arg(32);

void BM_CycleSnapshotCopy(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const FMatrix c = WarmMatrix(n);
  // The deep O(n^2) copy a snapshot cost before columns were page-shared.
  std::vector<Cycle> copy(static_cast<size_t>(n) * n);
  for (auto _ : state) {
    for (ObjectId j = 0; j < n; ++j) {
      std::memcpy(copy.data() + static_cast<size_t>(j) * n, c.Column(j).data(),
                  n * sizeof(Cycle));
    }
    benchmark::DoNotOptimize(copy.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * n *
                          static_cast<int64_t>(sizeof(Cycle)));
}
BENCHMARK(BM_CycleSnapshotCopy)->Arg(100)->Arg(300)->Arg(500);

// Paged copy-on-write snapshots at the uplink write rate: each iteration is
// one broadcast cycle of 50 commits writing 4 scattered objects each while
// the previous cycle's snapshot is held, then the drop of that snapshot
// (what a client thread does when it moves on) and the new cycle snapshot.
// Write sets are drawn before timing. bytes_copied counts the page table
// each snapshot copies plus the pages the live container copied on write.
constexpr uint32_t kCommitsPerCycle = 50;
constexpr uint32_t kWritesPerCommit = 4;

/// 64 cycles of write sets, replayed round-robin.
std::vector<std::vector<ObjectId>> CycleWriteSets(uint32_t n) {
  Rng rng(3);
  std::vector<std::vector<ObjectId>> sets(64 * kCommitsPerCycle);
  for (auto& set : sets) set = rng.SampleWithoutReplacement(n, kWritesPerCommit);
  return sets;
}

template <typename Pages>
void ReportBytesCopied(benchmark::State& state, const Pages& live, uint64_t pages_before) {
  const double bytes =
      static_cast<double>((live.pages_copied() - pages_before) * live.page_bytes()) +
      static_cast<double>(live.table_bytes()) * static_cast<double>(state.iterations());
  state.counters["bytes_copied"] = benchmark::Counter(bytes, benchmark::Counter::kAvgIterations);
}

// The page-shared per-cycle snapshot the engines take instead of the full
// copy above: each iteration commits one transaction while the previous
// snapshot is held, then takes the next one. The live matrix copies a column
// on its first write after a snapshot, so bytes_copied scales with the
// touched columns rather than n^2.
void BM_CycleSnapshotCoW(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  FMatrix c = WarmMatrix(n);
  Rng rng(5);
  FMatrix held = c.Snapshot();  // the engines hold the published snapshot one cycle
  const uint64_t before = c.column_pages().pages_copied();
  Cycle cycle = 1000;
  for (auto _ : state) {
    c.ApplyCommit(rng.SampleWithoutReplacement(n, 4), rng.SampleWithoutReplacement(n, 4),
                  cycle++);
    held = c.Snapshot();
    benchmark::DoNotOptimize(held);
  }
  ReportBytesCopied(state, c.column_pages(), before);
}
BENCHMARK(BM_CycleSnapshotCoW)->Arg(100)->Arg(300)->Arg(500)->Arg(1000);

void BM_PagedSnapshotValues(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const auto sets = CycleWriteSets(n);
  VersionedStore store(n);
  std::optional<ObjectValues> held(store.committed());
  const uint64_t before = store.committed().pages_copied();
  size_t next = 0;
  Cycle cycle = 1;
  for (auto _ : state) {
    for (uint32_t c = 0; c < kCommitsPerCycle; ++c, next = (next + 1) % sets.size()) {
      for (ObjectId w : sets[next]) store.Install(w, static_cast<TxnId>(cycle), cycle);
    }
    held.reset();
    held.emplace(store.committed());
    benchmark::DoNotOptimize(held);
    ++cycle;
  }
  ReportBytesCopied(state, store.committed(), before);
}
BENCHMARK(BM_PagedSnapshotValues)->Arg(10'000)->Arg(100'000);

// The column table: each commit installs one payload, its write-set rows at
// the commit cycle, in its write-set columns (ApplyCommit with an empty read
// set, so no merge). Every column starts non-empty, as on a long run.
void BM_PagedSnapshotSparseMatrix(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const auto sets = CycleWriteSets(n);
  SparseFMatrix matrix(n);
  std::vector<ObjectId> all(n);
  for (ObjectId j = 0; j < n; ++j) all[j] = j;
  matrix.ApplyCommit({}, all, 1);
  std::optional<SparseFMatrix> held(matrix.Snapshot());
  const uint64_t before = matrix.column_pages().pages_copied();
  size_t next = 0;
  Cycle cycle = 2;
  for (auto _ : state) {
    for (uint32_t c = 0; c < kCommitsPerCycle; ++c, next = (next + 1) % sets.size()) {
      matrix.ApplyCommit({}, sets[next], cycle);
    }
    held.reset();
    held.emplace(matrix.Snapshot());
    benchmark::DoNotOptimize(held);
    ++cycle;
  }
  ReportBytesCopied(state, matrix.column_pages(), before);
}
BENCHMARK(BM_PagedSnapshotSparseMatrix)->Arg(10'000)->Arg(100'000);

void BM_GroupMatrixDerivation(benchmark::State& state) {
  const uint32_t n = 300;
  const FMatrix c = WarmMatrix(n);
  const ObjectPartition p = ObjectPartition::Blocks(n, static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    GroupMatrix gm(p, c);
    benchmark::DoNotOptimize(gm);
  }
}
BENCHMARK(BM_GroupMatrixDerivation)->Arg(1)->Arg(10)->Arg(100);

void BM_DeltaDiff(benchmark::State& state) {
  const uint32_t n = 300;
  const CycleStampCodec codec(8);
  FMatrix prev = WarmMatrix(n);
  FMatrix cur = prev;
  Rng rng(13);
  cur.ApplyCommit(rng.SampleWithoutReplacement(n, 4), rng.SampleWithoutReplacement(n, 4), 999);
  for (auto _ : state) {
    auto diff = DeltaCodec::Diff(prev, cur, codec);
    benchmark::DoNotOptimize(diff);
  }
}
BENCHMARK(BM_DeltaDiff);

// Tees every per-iteration result to the console reporter AND collects it as
// a (name, ns/op, counters) row for the trajectory file. Format-independent
// by construction: rows are rendered by obs/json.h, not --benchmark_format.
class JsonRowTee : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context& context) override {
    return console_.ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    console_.ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      row.iterations = static_cast<uint64_t>(run.iterations);
      row.ns_per_op = run.iterations > 0
                          ? run.real_accumulated_time * 1e9 / static_cast<double>(run.iterations)
                          : 0;
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) row.items_per_second = items->second;
      const auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) row.bytes_per_second = bytes->second;
      const auto copied = run.counters.find("bytes_copied");
      if (copied != run.counters.end()) row.bytes_copied = copied->second;
      rows_.push_back(std::move(row));
    }
  }

  void Finalize() override { console_.Finalize(); }

  /// The collected rows in bcc.perf_trajectory.v1 shape.
  std::string ToJson() const {
    JsonWriter w;
    w.BeginObject()
        .Key("schema")
        .Value("bcc.perf_trajectory.v1")
        .Key("bench")
        .Value("BENCH_5")
        .Key("source")
        .Value("bench_micro_matrix")
        .Key("rows")
        .BeginArray();
    for (const Row& row : rows_) {
      w.BeginObject()
          .Key("section")
          .Value("micro")
          .Key("name")
          .Value(row.name)
          .Key("iterations")
          .Value(row.iterations)
          .Key("ns_per_op")
          .Value(row.ns_per_op);
      if (row.items_per_second > 0) w.Key("items_per_second").Value(row.items_per_second);
      if (row.bytes_per_second > 0) w.Key("bytes_per_second").Value(row.bytes_per_second);
      if (row.bytes_copied > 0) w.Key("bytes_copied").Value(row.bytes_copied);
      w.EndObject();
    }
    w.EndArray().EndObject();
    return std::move(w).Take() + "\n";
  }

 private:
  struct Row {
    std::string name;
    uint64_t iterations = 0;
    double ns_per_op = 0;
    double items_per_second = 0;
    double bytes_per_second = 0;
    double bytes_copied = 0;
  };

  benchmark::ConsoleReporter console_;
  std::vector<Row> rows_;
};

int Main(int argc, char** argv) {
  // Strip --json_out=F before google-benchmark sees (and rejects) it.
  std::string json_out;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json_out=", 11) == 0) {
      json_out = argv[i] + 11;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonRowTee tee;
  benchmark::RunSpecifiedBenchmarks(&tee);
  benchmark::Shutdown();

  if (!json_out.empty()) {
    const std::string json = tee.ToJson();
    const Status valid = ValidateJson(json);
    if (!valid.ok()) {
      std::fprintf(stderr, "FATAL: emitted JSON fails validation: %s\n",
                   valid.ToString().c_str());
      return 1;
    }
    const Status written = WriteTextFile(json_out, json);
    if (!written.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("json rows: %s\n", json_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace bcc

int main(int argc, char** argv) { return bcc::Main(argc, argv); }
