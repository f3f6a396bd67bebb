// Section 4.1 control-information overhead table, the Appendix D
// (Theorem 8) quadratic lower bound illustrated, and the Section 3.2.1
// future-work delta-transmission measurement.
//
// Paper numbers at Table 1 defaults (300 objects, 1 KB, 8-bit stamps):
// F-Matrix control share ~23% of the cycle; R-Matrix/Datacycle ~0.1%.

#include <cstdio>

#include "bench_common.h"
#include "matrix/wire.h"
#include "server/cycle_server.h"

namespace {

using namespace bcc;

void PrintOverheadTable() {
  std::printf("== Section 4.1: control-information share of the broadcast cycle ==\n");
  std::printf("%-14s %14s %14s %14s %12s\n", "algorithm", "slot bits", "control bits",
              "cycle bits", "control %");
  for (Algorithm a : kAllAlgorithms) {
    const auto g = ComputeGeometry(a, 300, 8 * 1024, 8);
    std::printf("%-14s %14llu %14llu %14llu %11.2f%%\n",
                std::string(AlgorithmName(a)).c_str(),
                static_cast<unsigned long long>(g.slot_bits),
                static_cast<unsigned long long>(g.control_bits),
                static_cast<unsigned long long>(g.cycle_bits), 100.0 * g.control_fraction);
  }
  std::printf("\n");
}

void PrintGroupSpectrumTable() {
  std::printf("== Section 3.2.2: grouped-matrix spectrum (n x g control) ==\n");
  std::printf("%-10s %14s %12s\n", "groups g", "control bits", "control %");
  for (uint32_t g : {1u, 3u, 10u, 30u, 100u, 300u}) {
    const auto geo = ComputeGeometry(Algorithm::kFMatrix, 300, 8 * 1024, 8, g);
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

}  // namespace

int main(int argc, char** argv) {
  const bcc::bench::BenchFlags flags = bcc::bench::ParseFlags(argc, argv);
  PrintOverheadTable();
  PrintGroupSpectrumTable();
  PrintQuadraticBound();
  MeasureDeltaTransmission(flags.seed);
  return 0;
}
