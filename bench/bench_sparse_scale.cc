// Sparse control-matrix scaling harness (PR 10): machine-readable evidence
// that per-commit maintenance and per-cycle control bytes are sublinear in n
// all the way to n = 10^6, emitted as BENCH_10.json (bcc.perf_trajectory.v1)
// so CI can track the trajectory across PRs.
//
// Sections (one JSON row per measurement):
//   dense_baseline    ns/commit of the dense cycle-fused ApplyCommitBatch and
//                     the dense per-cycle control share (n^2 * ts / 8 bytes)
//                     at n <= 4000 — the trend the sparse rows are judged
//                     against by extrapolation. Dense is memory-bound ~8 TB
//                     at n = 10^6, which is the point of this PR.
//   sparse_scaling    ns/commit of SparseFMatrix::ApplyCommit on the same
//                     workload shape at n up to 10^6, plus the final nnz and
//                     the per-cycle sparse control share
//                     (SparseMatrixControlBits / 8). Before any timing is
//                     trusted, every n <= 4000 replays the workload into a
//                     dense oracle and requires value equality.
//   engine_sparse     end-to-end DES broadcast cycles/sec in sparse mode
//                     (clients validating off the sparse snapshot), with the
//                     run's matrix_nnz and accounted control bytes/cycle.
//
// Flags: --n=N (largest sparse size; default 1000000), --out=F (default
// BENCH_10.json), --quick (CI smoke sizes), --seed=N.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "matrix/control_view.h"
#include "matrix/f_matrix.h"
#include "matrix/sparse_f_matrix.h"
#include "obs/json.h"
#include "obs/trace_export.h"
#include "sim/broadcast_sim.h"

namespace bcc {
namespace {

struct Flags {
  uint32_t n = 1000000;
  uint64_t seed = 42;
  bool quick = false;
  std::string out = "BENCH_10.json";
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--n=", 4) == 0) {
      flags.n = static_cast<uint32_t>(std::strtoul(argv[i] + 4, nullptr, 10));
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      flags.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      flags.out = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      flags.quick = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s (known: --n=N --seed=N --out=F --quick)\n", argv[i]);
      std::exit(2);
    }
  }
  return flags;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

constexpr unsigned kTsBits = 8;

// Table 1 server-transaction shape (2 reads, 8 writes) at a fixed commit
// count per cycle: maintenance cost per commit must depend on the workload,
// not on n, for the sparse claim to hold.
std::vector<std::vector<CommitSets>> MakeWorkload(Rng& rng, uint32_t n, uint32_t cycles,
                                                  uint32_t commits_per_cycle) {
  const uint32_t reads = n < 2 ? n : 2;
  const uint32_t writes = n < 8 ? n : 8;
  std::vector<std::vector<CommitSets>> workload(cycles);
  for (auto& cycle : workload) {
    cycle.resize(commits_per_cycle);
    for (CommitSets& c : cycle) {
      c.read_set = rng.SampleWithoutReplacement(n, reads);
      c.write_set = rng.SampleWithoutReplacement(n, writes);
    }
  }
  return workload;
}

double DenseControlBytes(uint32_t n) {
  return static_cast<double>(n) * n * kTsBits / 8.0;
}

struct DenseResult {
  double ns_per_commit = 0;
  uint64_t commits = 0;
};

DenseResult MeasureDense(uint32_t n, uint32_t cycles, uint32_t commits_per_cycle, uint64_t seed) {
  Rng rng(seed);
  const auto workload = MakeWorkload(rng, n, cycles, commits_per_cycle);
  FMatrix m(n);
  const auto start = std::chrono::steady_clock::now();
  Cycle cycle = 1;
  for (const auto& batch : workload) m.ApplyCommitBatch(batch, cycle++);
  const double seconds = SecondsSince(start);
  DenseResult r;
  r.commits = static_cast<uint64_t>(cycles) * commits_per_cycle;
  r.ns_per_commit = seconds * 1e9 / static_cast<double>(r.commits);
  return r;
}

struct SparseResult {
  double ns_per_commit = 0;
  uint64_t commits = 0;
  uint64_t nnz = 0;
  double control_bytes_per_cycle = 0;
  bool oracle_checked = false;
};

SparseResult MeasureSparse(uint32_t n, uint32_t cycles, uint32_t commits_per_cycle,
                           uint64_t seed) {
  Rng rng(seed);
  const auto workload = MakeWorkload(rng, n, cycles, commits_per_cycle);

  // Oracle gate: replay the identical workload into the dense matrix and
  // demand value equality before the timing below is trusted. Dense is only
  // affordable at small n; larger sizes inherit the verified code path.
  SparseResult r;
  if (n <= 4000) {
    FMatrix dense(n);
    SparseFMatrix check(n);
    Cycle cycle = 1;
    for (const auto& batch : workload) {
      dense.ApplyCommitBatch(batch, cycle);
      check.ApplyCommitBatch(batch, cycle);
      ++cycle;
    }
    if (!(ControlView(check) == ControlView(dense))) {
      std::fprintf(stderr, "FATAL: sparse maintenance diverged from the dense oracle at n=%u\n",
                   n);
      std::exit(1);
    }
    r.oracle_checked = true;
  }

  SparseFMatrix m(n);
  const auto start = std::chrono::steady_clock::now();
  Cycle cycle = 1;
  for (const auto& batch : workload) m.ApplyCommitBatch(batch, cycle++);
  const double seconds = SecondsSince(start);
  r.commits = static_cast<uint64_t>(cycles) * commits_per_cycle;
  r.ns_per_commit = seconds * 1e9 / static_cast<double>(r.commits);
  r.nnz = m.nnz();
  r.control_bytes_per_cycle = static_cast<double>(SparseMatrixControlBits(m, kTsBits)) / 8.0;
  return r;
}

struct EngineResult {
  double cycles_per_sec = 0;
  uint64_t cycles = 0;
  uint64_t server_commits = 0;
  uint64_t matrix_nnz = 0;
  double control_bytes_per_cycle = 0;
};

EngineResult MeasureEngineSparse(uint32_t n, uint64_t cycles, uint32_t commits_per_cycle,
                                 uint64_t seed) {
  SimConfig config;
  config.algorithm = Algorithm::kFMatrix;
  config.matrix_mode = MatrixMode::kSparse;
  config.num_objects = n;
  config.object_size_bits = 64;  // small pages keep the simulated cycle manageable
  config.timestamp_bits = kTsBits;
  config.seed = seed;
  config.stop_after_cycles = cycles;
  config.num_client_txns = std::numeric_limits<uint32_t>::max();
  config.warmup_txns = 0;
  // Pin the commit rate per simulated cycle so the control-plane load is the
  // same at every n; the cycle length itself grows with the database.
  config.server_txn_interval = config.Geometry().cycle_bits / commits_per_cycle;
  config.server_interval_exponential = false;

  const auto start = std::chrono::steady_clock::now();
  const auto summary = RunSimulation(config);
  const double seconds = SecondsSince(start);
  if (!summary.ok()) {
    std::fprintf(stderr, "FATAL: sparse engine run failed at n=%u: %s\n", n,
                 summary.status().ToString().c_str());
    std::exit(1);
  }
  EngineResult r;
  r.cycles = summary->cycles_elapsed;
  r.cycles_per_sec = seconds > 0 ? static_cast<double>(r.cycles) / seconds : 0;
  r.server_commits = summary->server_commits;
  r.matrix_nnz = summary->matrix_nnz;
  r.control_bytes_per_cycle = summary->matrix_control_bytes_per_cycle;
  return r;
}

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  const uint32_t max_n = flags.quick ? (flags.n < 10000 ? flags.n : 10000) : flags.n;
  std::vector<uint32_t> dense_sizes{1000, 2000, 4000};
  std::vector<uint32_t> sparse_sizes;
  for (uint32_t n = 1000; n < max_n; n *= 10) sparse_sizes.push_back(n);
  sparse_sizes.push_back(max_n);
  const uint32_t cycles = flags.quick ? 4 : 10;
  const uint32_t commits_per_cycle = flags.quick ? 200 : 1000;
  const uint64_t engine_cycles = flags.quick ? 3 : 5;
  const uint32_t engine_commits_per_cycle = flags.quick ? 100 : 400;

  JsonWriter w;
  w.BeginObject()
      .Key("schema")
      .Value("bcc.perf_trajectory.v1")
      .Key("bench")
      .Value("BENCH_10")
      .Key("seed")
      .Value(flags.seed)
      .Key("quick")
      .Value(flags.quick)
      .Key("rows")
      .BeginArray();

  for (const uint32_t n : dense_sizes) {
    const DenseResult d = MeasureDense(n, cycles, commits_per_cycle, flags.seed);
    std::printf("dense_baseline n=%u: %.1f ns/commit, %.0f control bytes/cycle\n", n,
                d.ns_per_commit, DenseControlBytes(n));
    w.BeginObject()
        .Key("section")
        .Value("dense_baseline")
        .Key("n")
        .Value(n)
        .Key("commits")
        .Value(d.commits)
        .Key("ns_per_commit")
        .Value(d.ns_per_commit)
        .Key("control_bytes_per_cycle")
        .Value(DenseControlBytes(n))
        .EndObject();
  }

  for (const uint32_t n : sparse_sizes) {
    const SparseResult s = MeasureSparse(n, cycles, commits_per_cycle, flags.seed);
    std::printf("sparse_scaling n=%u: %.1f ns/commit, nnz=%llu, %.0f control bytes/cycle "
                "(dense equivalent %.3e)%s\n",
                n, s.ns_per_commit, static_cast<unsigned long long>(s.nnz),
                s.control_bytes_per_cycle, DenseControlBytes(n),
                s.oracle_checked ? " [oracle-checked]" : "");
    w.BeginObject()
        .Key("section")
        .Value("sparse_scaling")
        .Key("n")
        .Value(n)
        .Key("commits")
        .Value(s.commits)
        .Key("ns_per_commit")
        .Value(s.ns_per_commit)
        .Key("nnz")
        .Value(s.nnz)
        .Key("control_bytes_per_cycle")
        .Value(s.control_bytes_per_cycle)
        .Key("dense_control_bytes_per_cycle")
        .Value(DenseControlBytes(n))
        .Key("oracle_checked")
        .Value(s.oracle_checked)
        .EndObject();
  }

  for (const uint32_t n : sparse_sizes) {
    const EngineResult e =
        MeasureEngineSparse(n, engine_cycles, engine_commits_per_cycle, flags.seed);
    std::printf("engine_sparse n=%u: %.2f cycles/sec over %llu cycles, nnz=%llu, "
                "%.0f control bytes/cycle\n",
                n, e.cycles_per_sec, static_cast<unsigned long long>(e.cycles),
                static_cast<unsigned long long>(e.matrix_nnz), e.control_bytes_per_cycle);
    w.BeginObject()
        .Key("section")
        .Value("engine_sparse")
        .Key("n")
        .Value(n)
        .Key("cycles")
        .Value(e.cycles)
        .Key("cycles_per_sec")
        .Value(e.cycles_per_sec)
        .Key("server_commits")
        .Value(e.server_commits)
        .Key("matrix_nnz")
        .Value(e.matrix_nnz)
        .Key("control_bytes_per_cycle")
        .Value(e.control_bytes_per_cycle)
        .EndObject();
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
