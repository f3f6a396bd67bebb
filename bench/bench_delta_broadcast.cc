// Snapshot+delta control broadcast accounting and server-side cost.
//
// Section "cycles": drives the server's cycle loop (CycleServer in delta
// mode: workload -> manager -> DeltaBroadcaster) across cycles at several
// update rates and reports, per cycle, the control bits a delta-mode
// broadcast ships against the full-matrix baseline. The run FAILS (exit 1)
// if any cycle's delta control costs more than the full matrix — that
// inequality is an invariant of the refresh policy, not a tuning goal.
//
// Section "commit_cost": per-commit cost of the dirty-column bookkeeping at
// constant write-set size as the database grows. The tracking overhead
// (tracked minus base ApplyCommit) stays flat in n — the dirty list appends
// O(|WS|) column ids per commit — while the per-cycle diff drops from the
// O(n^2) full rescan to the O(n * touched) column scan.
//
// Flags (parsed here; bench_common's ParseFlags rejects --smoke):
//   --smoke      tiny run for CI build sanity
//   --csv        additionally dump machine-readable rows
//   --seed=N     override the base seed

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "matrix/wire.h"
#include "server/cycle_server.h"
#include "server/delta_broadcast.h"
#include "server/txn_manager.h"
#include "sim/config.h"

namespace bcc::bench {
namespace {

struct Flags {
  bool smoke = false;
  bool csv = false;
  uint64_t seed = 42;
};

Flags ParseDeltaFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      flags.smoke = true;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      flags.csv = true;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      flags.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s (known: --smoke --csv --seed=N)\n", argv[i]);
      std::exit(2);
    }
  }
  return flags;
}

double NsPerOp(std::chrono::steady_clock::time_point t0, std::chrono::steady_clock::time_point t1,
               uint64_t ops) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / static_cast<double>(ops);
}

/// Section "cycles": full vs delta control bits of the block each broadcast
/// cycle puts on the air (it carries the previous cycle's commits).
/// Returns false if any cycle violates delta_bits <= full_bits.
bool RunCyclesSection(const Flags& flags) {
  const uint32_t n = 300;
  const unsigned ts = 8;
  const uint64_t refresh_period = 16;
  const uint64_t cycles = flags.smoke ? 8 : 64;

  std::printf("== cycles: control bits on the air, full vs delta (n=%u, ts=%u, refresh=%llu)\n", n,
              ts, static_cast<unsigned long long>(refresh_period));
  std::printf("%10s %6s %8s %8s %8s %12s %12s %8s\n", "interval", "cycle", "commits", "entries",
              "refresh", "delta_bits", "full_bits", "ratio");

  bool ok = true;
  for (const uint64_t interval : {50000ull, 250000ull, 1000000ull}) {
    SimConfig config;
    config.num_objects = n;
    config.object_size_bits = 8 * 1024;
    config.timestamp_bits = ts;
    config.use_wire_codec = true;
    config.delta_broadcast = true;
    config.delta_refresh_period = refresh_period;
    config.server_txn_interval = interval;
    config.seed = flags.seed;
    std::unique_ptr<CycleServer> server = CycleServer::Create(config, Rng(flags.seed)).value();

    uint64_t total_delta = 0, total_full = 0;
    uint64_t commits = 0;  // staged in the previous cycle: this cycle's delta carries them
    for (Cycle cycle = 1; cycle <= cycles; ++cycle) {
      const DeltaControl& ctl = *server->BeginCycle(cycle).delta;
      total_delta += ctl.control_bits;
      total_full += ctl.full_bits;
      if (ctl.control_bits > ctl.full_bits) {
        std::fprintf(stderr, "INVARIANT VIOLATED: cycle %llu delta %llu > full %llu\n",
                     static_cast<unsigned long long>(cycle),
                     static_cast<unsigned long long>(ctl.control_bits),
                     static_cast<unsigned long long>(ctl.full_bits));
        ok = false;
      }
      if (flags.csv) {
        std::printf("csv,cycles,%llu,%llu,%llu,%zu,%d,%llu,%llu\n",
                    static_cast<unsigned long long>(interval),
                    static_cast<unsigned long long>(cycle),
                    static_cast<unsigned long long>(commits), ctl.entries.size(),
                    ctl.full_refresh ? 1 : 0, static_cast<unsigned long long>(ctl.control_bits),
                    static_cast<unsigned long long>(ctl.full_bits));
      } else {
        std::printf("%10llu %6llu %8llu %8zu %8s %12llu %12llu %8.4f\n",
                    static_cast<unsigned long long>(interval),
                    static_cast<unsigned long long>(cycle),
                    static_cast<unsigned long long>(commits), ctl.entries.size(),
                    ctl.full_refresh ? (ctl.scheduled ? "sched" : "adapt") : "-",
                    static_cast<unsigned long long>(ctl.control_bits),
                    static_cast<unsigned long long>(ctl.full_bits),
                    static_cast<double>(ctl.control_bits) / static_cast<double>(ctl.full_bits));
      }
      commits = server->StageCycle(cycle);
      server->EndCycle(cycle, /*control_conflicts=*/0);
    }
    std::printf("-- interval=%llu: total delta %llu / full %llu bits (%.2f%%)\n",
                static_cast<unsigned long long>(interval),
                static_cast<unsigned long long>(total_delta),
                static_cast<unsigned long long>(total_full),
                100.0 * static_cast<double>(total_delta) / static_cast<double>(total_full));
  }
  return ok;
}

/// Section "commit_cost": ApplyCommit with and without dirty tracking, plus
/// the per-cycle diff, across database sizes at a constant write-set size.
void RunCommitCostSection(const Flags& flags) {
  const unsigned ts = 8;
  const uint32_t ws_size = 4, rs_size = 4;
  const uint64_t commits = flags.smoke ? 500 : 20000;
  const CycleStampCodec codec(ts);
  const std::vector<uint32_t> sizes =
      flags.smoke ? std::vector<uint32_t>{64, 256} : std::vector<uint32_t>{64, 128, 256, 512, 1024};

  std::printf(
      "\n== commit_cost: per-commit dirty tracking and per-cycle diff (ws=%u, %llu commits)\n",
      ws_size, static_cast<unsigned long long>(commits));
  std::printf("%6s %14s %14s %14s %16s %16s\n", "n", "base_ns/commit", "trk_ns/commit",
              "overhead_ns", "diffcols_ns/cyc", "fullscan_ns/cyc");

  for (const uint32_t n : sizes) {
    // Pre-roll identical op sequences so both timed loops do the same work.
    Rng rng(flags.seed + n);
    std::vector<std::vector<ObjectId>> reads(commits), writes(commits);
    for (uint64_t t = 0; t < commits; ++t) {
      reads[t] = rng.SampleWithoutReplacement(n, rs_size);
      writes[t] = rng.SampleWithoutReplacement(n, ws_size);
    }

    FMatrix base(n);
    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t t = 0; t < commits; ++t) base.ApplyCommit(reads[t], writes[t], t + 1);
    auto t1 = std::chrono::steady_clock::now();
    const double base_ns = NsPerOp(t0, t1, commits);

    FMatrix tracked(n);
    tracked.EnableDirtyTracking();
    size_t sink = 0;
    t0 = std::chrono::steady_clock::now();
    for (uint64_t t = 0; t < commits; ++t) {
      tracked.ApplyCommit(reads[t], writes[t], t + 1);
      if ((t & 7) == 7) sink += tracked.TakeTouchedColumns().size();  // drain once per "cycle"
    }
    t1 = std::chrono::steady_clock::now();
    const double tracked_ns = NsPerOp(t0, t1, commits);

    // Per-cycle diff: one cycle's worth of commits (8) between snapshots.
    FMatrix prev = base;
    FMatrix cur = base;
    cur.EnableDirtyTracking();
    for (uint64_t t = 0; t < 8; ++t) cur.ApplyCommit(reads[t], writes[t], commits + t + 1);
    const std::vector<ObjectId> touched = cur.TakeTouchedColumns();
    const uint64_t reps = flags.smoke ? 50 : 2000;
    t0 = std::chrono::steady_clock::now();
    for (uint64_t r = 0; r < reps; ++r)
      sink += DeltaCodec::DiffColumns(prev, cur, touched, codec).size();
    t1 = std::chrono::steady_clock::now();
    const double diffcols_ns = NsPerOp(t0, t1, reps);
    t0 = std::chrono::steady_clock::now();
    for (uint64_t r = 0; r < reps; ++r) sink += DeltaCodec::Diff(prev, cur, codec).size();
    t1 = std::chrono::steady_clock::now();
    const double fullscan_ns = NsPerOp(t0, t1, reps);

    if (flags.csv) {
      std::printf("csv,commit_cost,%u,%.1f,%.1f,%.1f,%.1f,%.1f\n", n, base_ns, tracked_ns,
                  tracked_ns - base_ns, diffcols_ns, fullscan_ns);
    } else {
      std::printf("%6u %14.1f %14.1f %14.1f %16.1f %16.1f\n", n, base_ns, tracked_ns,
                  tracked_ns - base_ns, diffcols_ns, fullscan_ns);
    }
    if (sink == 0) std::printf("(empty diffs)\n");  // keep the timed calls observable
  }
}

int Main(int argc, char** argv) {
  const Flags flags = ParseDeltaFlags(argc, argv);
  const bool ok = RunCyclesSection(flags);
  RunCommitCostSection(flags);
  if (!ok) {
    std::fprintf(stderr, "delta control exceeded the full-matrix baseline; see above\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bcc::bench

int main(int argc, char** argv) { return bcc::bench::Main(argc, argv); }
