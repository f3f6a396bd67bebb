#include "paper_figures.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>

#include "server/cycle_server.h"
#include "server/delta_broadcast.h"
#include "sim/broadcast_sim.h"

namespace bcc::paper {
namespace {

// Group counts of the §3.2.2 spectrum, from the reduced vector (g = 1) to the
// full matrix (g = n at Table 1's n = 300): the overhead table prints their
// analytic cost and the group-spectrum ablation measures them.
constexpr uint32_t kGroupCounts[] = {1, 3, 10, 30, 100, 300};

// ---------------------------------------------------------------- §4 figures

// Figure 2(a)/(b): response time and restart ratio vs client transaction
// length (Section 4.2). Expected shape: all four algorithms similar up to
// length 4; beyond 6, Datacycle degrades sharply (off the chart at 10 in
// the paper), R-Matrix is much better, F-Matrix is nearly flat and close to
// the F-Matrix-No ideal, with restarts near zero.
std::vector<Sweep> Figure2(const PaperFlags& flags) {
  ExperimentSpec spec;
  spec.title = "Figure 2(a)+(b): effect of client transaction length";
  spec.x_label = "client txn length";
  spec.base = BaseConfig(flags);
  spec.x_values = {2, 4, 6, 8, 10};
  spec.apply = [](SimConfig* c, double x) {
    c->client_txn_length = static_cast<uint32_t>(x);
  };
  return {{spec, /*print_restarts=*/true}};
}

// Figure 3(a): response time vs server transaction length (Section 4.3).
// Longer server transactions mean more updates per cycle; response times
// rise for every algorithm, but F-Matrix shows very little increase
// compared to Datacycle and even R-Matrix.
std::vector<Sweep> Figure3a(const PaperFlags& flags) {
  ExperimentSpec spec;
  spec.title = "Figure 3(a): effect of server transaction length";
  spec.x_label = "server txn length";
  spec.base = BaseConfig(flags);
  spec.x_values = {2, 4, 8, 12, 16};
  spec.apply = [](SimConfig* c, double x) {
    c->server_txn_length = static_cast<uint32_t>(x);
  };
  return {{spec, /*print_restarts=*/true}};
}

// Figure 3(b): response time vs transaction rate at the server
// (Section 4.4). The x-axis is the inter-completion time, so the rate
// DECREASES left to right, as in the paper. Response times improve as the
// rate drops; F-Matrix stays close to F-Matrix-No and shows almost no
// degradation at high rates, in sharp contrast to Datacycle.
std::vector<Sweep> Figure3b(const PaperFlags& flags) {
  ExperimentSpec spec;
  spec.title = "Figure 3(b): effect of transaction rate at server";
  spec.x_label = "server inter-txn time (bits)";
  spec.base = BaseConfig(flags);
  spec.x_values = {125000, 250000, 500000, 1000000, 2000000};
  spec.apply = [](SimConfig* c, double x) {
    c->server_txn_interval = static_cast<uint64_t>(x);
  };
  return {{spec, /*print_restarts=*/true}};
}

// Figure 4(a): response time vs number of objects in the database
// (Section 4.5). Larger databases mean longer cycles (and for F-Matrix,
// quadratically more control bits), so response times rise for everyone,
// but the relative ordering is unchanged and F-Matrix's rate of increase is
// the smallest among the practical protocols.
std::vector<Sweep> Figure4a(const PaperFlags& flags) {
  ExperimentSpec spec;
  spec.title = "Figure 4(a): effect of number of objects";
  spec.x_label = "objects in database";
  spec.base = BaseConfig(flags);
  spec.x_values = {100, 200, 300, 400, 500};
  spec.apply = [](SimConfig* c, double x) { c->num_objects = static_cast<uint32_t>(x); };
  return {{spec, /*print_restarts=*/false}};
}

// Figure 4(b): response time vs object size (Section 4.6). Cycle length
// grows with object size; F-Matrix scales better than R-Matrix and
// Datacycle, and converges toward F-Matrix-No as objects grow (the control
// information becomes a vanishing share of the cycle).
std::vector<Sweep> Figure4b(const PaperFlags& flags) {
  ExperimentSpec spec;
  spec.title = "Figure 4(b): effect of object size";
  spec.x_label = "object size (KB)";
  spec.base = BaseConfig(flags);
  spec.x_values = {0.5, 1, 2, 4};
  spec.apply = [](SimConfig* c, double x) {
    c->object_size_bits = static_cast<uint64_t>(x * 8 * 1024);
  };
  return {{spec, /*print_restarts=*/false}};
}

// ------------------------------------------------------ §4.1 overhead table

// Section 4.1 control-information overhead table, the Appendix D
// (Theorem 8) quadratic lower bound illustrated, and the Section 3.2.1
// future-work delta-transmission measurement.
//
// Paper numbers at Table 1 defaults (300 objects, 1 KB, 8-bit stamps):
// F-Matrix control share ~23% of the cycle; R-Matrix/Datacycle ~0.1%.

void PrintOverheadTable() {
  std::printf("== Section 4.1: control-information share of the broadcast cycle ==\n");
  std::printf("%-14s %14s %14s %14s %12s\n", "algorithm", "slot bits", "control bits",
              "cycle bits", "control %");
  for (const OverheadRow& row : OverheadTable()) {
    const BroadcastGeometry& g = row.geometry;
    std::printf("%-14s %14llu %14llu %14llu %11.2f%%\n",
                std::string(AlgorithmName(row.algorithm)).c_str(),
                static_cast<unsigned long long>(g.slot_bits),
                static_cast<unsigned long long>(g.control_bits),
                static_cast<unsigned long long>(g.cycle_bits), 100.0 * g.control_fraction);
  }
  std::printf("\n");
}

void PrintGroupSpectrumTable() {
  const SimConfig config{};  // Table 1 defaults
  std::printf("== Section 3.2.2: grouped-matrix spectrum (n x g control) ==\n");
  std::printf("%-10s %14s %12s\n", "groups g", "control bits", "control %");
  for (uint32_t g : kGroupCounts) {
    const auto geo = ComputeGeometry(Algorithm::kFMatrix, config.num_objects,
                                     config.object_size_bits, config.timestamp_bits, g);
    std::printf("%-10u %14llu %11.2f%%\n", g,
                static_cast<unsigned long long>(geo.control_bits),
                100.0 * geo.control_fraction);
  }
  std::printf("\n");
}

void PrintQuadraticBound() {
  std::printf("== Appendix D (Theorem 8): worst-case matrix bits are quadratic in n ==\n");
  std::printf("%-8s %18s %24s\n", "n", "n^2 * TS bits", "(n^2-4n+3)/4 * TS bound");
  for (uint32_t n : {100u, 300u, 500u, 1000u}) {
    const uint64_t full = static_cast<uint64_t>(n) * n * 8;
    const uint64_t bound = (static_cast<uint64_t>(n) * n - 4ull * n + 3) / 4 * 8;
    std::printf("%-8u %18llu %24llu\n", n, static_cast<unsigned long long>(full),
                static_cast<unsigned long long>(bound));
  }
  std::printf("\n");
}

// Drive the Table 1 server workload through the txn manager and measure how
// many bits per cycle delta transmission would need vs the full matrix.
void MeasureDeltaTransmission(uint64_t seed) {
  std::printf(
      "== Section 3.2.1 (future work): delta transmission of the C matrix ==\n");
  SimConfig config;
  config.algorithm = Algorithm::kFMatrix;
  config.seed = seed;
  const CycleStampCodec codec(config.timestamp_bits);
  std::unique_ptr<CycleServer> server = CycleServer::Create(config, Rng(seed)).value();
  const uint64_t full_bits =
      static_cast<uint64_t>(config.num_objects) * config.num_objects * config.timestamp_bits;

  FMatrix prev(config.num_objects);
  uint64_t total_delta_bits = 0, max_delta_bits = 0;
  const Cycle cycles = 200;
  for (Cycle cycle = 1; cycle <= cycles; ++cycle) {
    server->BeginCycle(cycle);
    server->StageCycle(cycle);
    server->EndCycle(cycle, /*control_conflicts=*/0);
    const FMatrix& matrix = server->manager().f_matrix();
    const auto diff = DeltaCodec::Diff(prev, matrix, codec);
    const uint64_t bits = DeltaCodec::EncodedBits(diff.size(), config.num_objects,
                                                  config.timestamp_bits);
    total_delta_bits += bits;
    max_delta_bits = std::max(max_delta_bits, bits);
    prev = matrix;
  }
  std::printf("full matrix per cycle:      %llu bits\n",
              static_cast<unsigned long long>(full_bits));
  std::printf("delta mean per cycle:       %llu bits (%.1fx smaller)\n",
              static_cast<unsigned long long>(total_delta_bits / cycles),
              static_cast<double>(full_bits) /
                  static_cast<double>(total_delta_bits / cycles));
  std::printf("delta max per cycle:        %llu bits\n",
              static_cast<unsigned long long>(max_delta_bits));
  std::printf("(Table 1 workload, %llu cycles, %zu commits)\n\n",
              static_cast<unsigned long long>(cycles), server->manager().num_committed());
}

int Overhead(const PaperFlags& flags) {
  PrintOverheadTable();
  PrintGroupSpectrumTable();
  PrintQuadraticBound();
  MeasureDeltaTransmission(flags.seed);
  return 0;
}

// ------------------------------------------------------------------ ablations

// Ablation (Section 3.2.2): the n x g grouped-control spectrum between the
// reduced vector (g = 1, Datacycle-style condition and overhead) and the
// full F-Matrix (g = n). The paper analyses the two endpoints; this sweep
// fills in the middle, showing the tradeoff between control-information
// overhead (cycle length) and unnecessary conflicts (aborts).
std::vector<Sweep> GroupSpectrum(const PaperFlags& flags) {
  ExperimentSpec spec;
  spec.title = "Ablation: grouped-control spectrum (g groups, F-Matrix protocol family)";
  spec.x_label = "groups g";
  spec.base = BaseConfig(flags);
  spec.x_values.assign(std::begin(kGroupCounts), std::end(kGroupCounts));
  spec.algorithms = {Algorithm::kFMatrix};
  spec.apply = [](SimConfig* c, double x) {
    c->num_groups = static_cast<uint32_t>(x);
  };

  // Reference rows: the paper's endpoints under their own names.
  ExperimentSpec refs;
  refs.title = "Reference: paper endpoints at Table 1 defaults";
  refs.x_label = "(defaults)";
  refs.base = BaseConfig(flags);
  refs.x_values = {0};
  return {{spec, /*print_restarts=*/true}, {refs, /*print_restarts=*/true}};
}

// Ablation (Section 3.3, paper future work): client quasi-caching under
// weak currency requirements. Sweeps the currency bound T (in broadcast
// cycles) for F-Matrix and R-Matrix; T = 0 disables the cache. Cached reads
// skip the wait for the object's broadcast slot when validation against the
// stored control information succeeds, trading currency for latency.
//
// The database is shrunk so transactions revisit objects often enough for a
// client-private cache to matter.
std::vector<Sweep> Caching(const PaperFlags& flags) {
  ExperimentSpec spec;
  spec.title = "Ablation: quasi-caching currency bound (T in cycles; 0 = no cache)";
  spec.x_label = "currency bound T (cycles)";
  spec.base = BaseConfig(flags);
  spec.base.num_objects = 50;  // small, hot database: repeats are common
  spec.x_values = {0, 1, 4, 16, 64};
  spec.algorithms = {Algorithm::kRMatrix, Algorithm::kFMatrix};
  spec.apply = [](SimConfig* c, double x) {
    if (x == 0) {
      c->enable_cache = false;
      return;
    }
    c->enable_cache = true;
    c->cache_currency_bound =
        static_cast<SimTime>(x * static_cast<double>(c->Geometry().cycle_bits));
  };
  return {{spec, /*print_restarts=*/true}};
}

// Ablation (Section 5 future work: "extensions to optimize for update
// transactions at clients"): a fraction of client transactions buffer
// writes locally and commit through the server's optimistic validator over
// the uplink. Read conditions still validate every read off the air, so the
// algorithms differ in how often an update transaction even REACHES its
// uplink commit; the validator then rejects stale read sets.
std::vector<Sweep> ClientUpdates(const PaperFlags& flags) {
  ExperimentSpec spec;
  spec.title = "Ablation: client update-transaction fraction (uplink commits)";
  spec.x_label = "update fraction";
  spec.base = BaseConfig(flags);
  spec.base.client_txn_length = 4;
  spec.x_values = {0.0, 0.1, 0.3, 0.5};
  spec.apply = [](SimConfig* c, double x) { c->client_update_fraction = x; };
  return {{spec, /*print_restarts=*/true}};
}

// Ablation: concurrent clients submitting update transactions. Read-only
// clients never interact — the paper's argument for simulating one client —
// but once a share of client transactions commit writes over the uplink,
// clients contend at the server's validator and through extra invalidations
// on the air. Sweeping the population shows how each algorithm's weaker
// read condition translates into multi-client throughput.
std::vector<Sweep> Multiclient(const PaperFlags& flags) {
  ExperimentSpec spec;
  spec.title = "Ablation: concurrent clients (30% update transactions)";
  spec.x_label = "clients";
  spec.base = BaseConfig(flags);
  spec.base.client_update_fraction = 0.3;
  spec.x_values = {1, 2, 4, 8, 16};
  spec.apply = [](SimConfig* c, double x) { c->num_clients = static_cast<uint32_t>(x); };
  return {{spec, /*print_restarts=*/true}};
}

// Ablation (Section 2.1 scoping lifted): multi-speed broadcast disks.
// 20% of the database is hot and receives 80% of both client reads and
// server updates; the sweep raises the hot set's broadcast frequency.
// Faster hot rotations shorten waits for the skewed client but lengthen the
// major cycle (hurting cold reads) — the classic broadcast-disk tradeoff,
// here measured under each concurrency-control algorithm.
std::vector<Sweep> Multidisk(const PaperFlags& flags) {
  ExperimentSpec spec;
  spec.title = "Ablation: multi-speed disk (hot set broadcast frequency)";
  spec.x_label = "hot broadcast freq";
  spec.base = BaseConfig(flags);
  spec.base.hot_set_size = 60;  // 20% of 300
  spec.base.client_hot_access_fraction = 0.8;
  spec.base.server_hot_access_fraction = 0.8;
  spec.x_values = {1, 2, 4, 8};
  spec.apply = [](SimConfig* c, double x) {
    c->hot_broadcast_frequency = static_cast<uint32_t>(x);
  };
  return {{spec, /*print_restarts=*/true}};
}

// Snapshot+delta control broadcast accounting (Section 3.2.1 future work):
// drives the server's cycle loop (CycleServer in delta mode: workload ->
// manager -> DeltaBroadcaster) across cycles at several update rates and
// reports, per cycle, the control bits a delta-mode broadcast ships against
// the full-matrix baseline. The figure FAILS (exit 1) if any cycle's delta
// control costs more than the full matrix — that inequality is an invariant
// of the refresh policy, not a tuning goal. The per-commit cost of the
// dirty-column bookkeeping is a google-benchmark row in bench_micro_matrix.
int DeltaBroadcast(const PaperFlags& flags) {
  const uint32_t n = 300;
  const unsigned ts = 8;
  const uint64_t refresh_period = 16;
  const uint64_t cycles = flags.quick ? 8 : 64;

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
  if (!ok) {
    std::fprintf(stderr, "delta control exceeded the full-matrix baseline; see above\n");
    return 1;
  }
  return 0;
}

// Lossy-channel sweep: read-only transaction cost vs frame loss rate, full
// vs snapshot+delta control broadcast.
//
// For each (mode, loss rate) cell the closed-loop DES runs with the frame
// channel enabled and reports the read-txn abort rate, how many of those
// aborts followed a loss stall, stall events per committed transaction, the
// mean response time in cycle units (the stall-latency curve), and the
// control bits actually shipped per cycle. The interesting crossover: at
// loss 0 a long refresh period ships the fewest control bits, but under
// loss every delta between refreshes is a desync hazard — a lost delta
// stalls the client until the NEXT refresh, so the long-period tracker pays
// the highest stall latency. A short refresh period bounds the resync wait
// and overtakes it as loss grows; full-matrix columns are immune to desync
// (each column is self-contained) but ship the most bits. `burst` switches
// Bernoulli loss to Gilbert-Elliott burst loss.
int LossyChannel(const PaperFlags& flags, bool burst) {
  struct Mode {
    const char* name;
    bool delta;
    uint64_t refresh_period;  // delta mode only
  };
  const uint32_t n = 60;
  const unsigned ts = 8;
  const uint64_t cycles = flags.quick ? 20 : 400;

  SimConfig base;
  base.algorithm = Algorithm::kFMatrix;
  base.num_objects = n;
  base.object_size_bits = 512;
  base.timestamp_bits = ts;
  base.client_txn_length = 4;
  base.server_txn_length = 4;
  base.server_txn_interval = 40000;
  base.mean_inter_op_delay = 4000;
  base.mean_inter_txn_delay = 8000;
  base.num_client_txns = 1u << 30;  // cutoff comes from stop_after_cycles
  base.warmup_txns = flags.quick ? 1 : 20;
  base.stop_after_cycles = cycles;
  base.channel_broadcast = true;
  base.channel_frame_bits = 512;
  base.channel_burst = burst;
  base.seed = flags.seed;

  const Mode modes[] = {
      {"full", false, 0},
      {"delta/r16", true, 16},
      {"delta/r4", true, 4},
  };
  const double losses[] = {0.0, 0.01, 0.05, 0.1, 0.2};

  const uint64_t cycle_bits = base.Geometry().cycle_bits;
  std::printf("== lossy channel sweep (n=%u, ts=%u, frame=%llu bits, %llu cycles, %s loss)\n", n,
              ts, static_cast<unsigned long long>(base.channel_frame_bits),
              static_cast<unsigned long long>(cycles), burst ? "burst" : "bernoulli");
  std::printf("%10s %6s %6s %9s %10s %10s %10s %9s %12s %8s %8s\n", "mode", "loss", "txns",
              "rst/txn", "lossAborts", "stall/txn", "resp_cyc", "dropped%", "ctrlBits/cyc",
              "desyncs", "resyncs");

  bool ok = true;
  for (const Mode& mode : modes) {
    for (const double loss : losses) {
      SimConfig config = base;
      config.channel_loss_rate = loss;
      config.channel_corrupt_rate = loss / 4;
      if (mode.delta) {
        config.delta_broadcast = true;
        config.delta_refresh_period = mode.refresh_period;
      }
      BroadcastSim sim(config);
      const auto summary = sim.Run();
      if (!summary.ok()) {
        std::fprintf(stderr, "%s loss=%g: %s\n", mode.name, loss,
                     summary.status().ToString().c_str());
        ok = false;
        continue;
      }
      const ChannelStats& ch = summary->channel;
      // A high-loss delta cell can legitimately complete zero transactions
      // (a client that misses every refresh never syncs); keep ratios finite.
      const double txns = static_cast<double>(std::max<uint64_t>(1, summary->total_txns));
      const double drop_pct = ch.frames_sent == 0
                                  ? 0.0
                                  : 100.0 * static_cast<double>(ch.frames_dropped) /
                                        static_cast<double>(ch.frames_sent);
      // Control bits actually put on the air per cycle: the delta pipeline
      // accounts for itself; full mode ships every column every cycle.
      const uint64_t ctrl_bits_per_cycle =
          mode.delta ? summary->delta_control_bits / std::max<uint64_t>(1, summary->delta_cycles)
                     : FullMatrixControlBits(n, ts);
      const double resp_cycles =
          summary->mean_response_time / static_cast<double>(cycle_bits);
      if (flags.csv) {
        std::printf("csv,%s,%g,%llu,%.4f,%llu,%.4f,%.3f,%.3f,%llu,%llu,%llu\n", mode.name, loss,
                    static_cast<unsigned long long>(summary->total_txns),
                    static_cast<double>(summary->total_restarts) / txns,
                    static_cast<unsigned long long>(ch.loss_attributed_aborts),
                    static_cast<double>(ch.stalls) / txns, resp_cycles, drop_pct,
                    static_cast<unsigned long long>(ctrl_bits_per_cycle),
                    static_cast<unsigned long long>(ch.tracker_desyncs),
                    static_cast<unsigned long long>(ch.resyncs));
      } else {
        std::printf("%10s %6g %6llu %9.4f %10llu %10.4f %10.3f %8.2f%% %12llu %8llu %8llu\n",
                    mode.name, loss, static_cast<unsigned long long>(summary->total_txns),
                    static_cast<double>(summary->total_restarts) / txns,
                    static_cast<unsigned long long>(ch.loss_attributed_aborts),
                    static_cast<double>(ch.stalls) / txns, resp_cycles, drop_pct,
                    static_cast<unsigned long long>(ctrl_bits_per_cycle),
                    static_cast<unsigned long long>(ch.tracker_desyncs),
                    static_cast<unsigned long long>(ch.resyncs));
      }
      // Sanity: the channel must actually have carried the run.
      if (ch.frames_sent == 0 || (loss > 0 && ch.frames_dropped == 0)) {
        std::fprintf(stderr, "%s loss=%g: channel saw no traffic/faults\n", mode.name, loss);
        ok = false;
      }
    }
  }
  return ok ? 0 : 1;
}

int Lossy(const PaperFlags& flags) { return LossyChannel(flags, /*burst=*/false); }
int LossyBurst(const PaperFlags& flags) { return LossyChannel(flags, /*burst=*/true); }

constexpr Figure kFigures[] = {
    {"fig2", "Figure 2(a)+(b): response and restarts vs client txn length", &Figure2, nullptr},
    {"fig3a", "Figure 3(a): response time vs server txn length", &Figure3a, nullptr},
    {"fig3b", "Figure 3(b): response time vs server txn rate", &Figure3b, nullptr},
    {"fig4a", "Figure 4(a): response time vs number of objects", &Figure4a, nullptr},
    {"fig4b", "Figure 4(b): response time vs object size", &Figure4b, nullptr},
    {"overhead", "Section 4.1: control-information overhead table", nullptr, &Overhead},
    {"group-spectrum", "Section 3.2.2: grouped-control spectrum in g", &GroupSpectrum, nullptr},
    {"caching", "Section 3.3: quasi-caching currency bound", &Caching, nullptr},
    {"client-updates", "Section 5: client update-transaction fraction", &ClientUpdates, nullptr},
    {"multiclient", "Concurrent clients with 30% update transactions", &Multiclient, nullptr},
    {"multidisk", "Section 2.1: multi-speed disk hot-set frequency", &Multidisk, nullptr},
    {"delta", "Section 3.2.1: snapshot+delta control bits per cycle", nullptr, &DeltaBroadcast},
    {"lossy", "Lossy channel: Bernoulli frame loss, full vs delta control", nullptr, &Lossy},
    {"lossy-burst", "Lossy channel: Gilbert-Elliott burst loss", nullptr, &LossyBurst},
};

}  // namespace

std::span<const Figure> Figures() { return kFigures; }

const Figure* FindFigure(std::string_view name) {
  for (const Figure& figure : kFigures) {
    if (figure.name == name) return &figure;
  }
  return nullptr;
}

SimConfig BaseConfig(const PaperFlags& flags) {
  SimConfig config;  // Table 1 defaults
  config.seed = flags.seed;
  if (flags.quick) {
    config.num_client_txns = 100;
    config.warmup_txns = 40;
  }
  return config;
}

std::vector<OverheadRow> OverheadTable() {
  const SimConfig c{};  // Table 1 defaults
  std::vector<OverheadRow> rows;
  for (Algorithm a : kAllAlgorithms) {
    rows.push_back({a, ComputeGeometry(a, c.num_objects, c.object_size_bits, c.timestamp_bits)});
  }
  return rows;
}

}  // namespace bcc::paper
