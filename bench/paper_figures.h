// The paper's evaluation as one registry: every figure, table and ablation
// that `bench_paper --figure=NAME` prints, and that the `paper` ctest checks
// for the paper's shape, is defined here once, by name.
//
// A figure is either a set of sweeps (ExperimentSpecs crossed with the
// algorithms, printed as the paper's response-time and restart tables) or a
// self-printing table: the analytic overhead table and the custom driver
// loops of the delta and lossy-channel figures.

#ifndef BCC_BENCH_PAPER_FIGURES_H_
#define BCC_BENCH_PAPER_FIGURES_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "matrix/wire.h"
#include "sim/experiment.h"

namespace bcc::paper {

struct PaperFlags {
  bool quick = false;  ///< reduced runs (CI sanity)
  bool csv = false;    ///< additionally print machine-readable rows
  uint64_t seed = 42;  ///< base seed
};

/// One swept grid and how it is printed.
struct Sweep {
  ExperimentSpec spec;
  bool print_restarts = true;
};

struct Figure {
  std::string_view name;     ///< the --figure= value
  std::string_view caption;  ///< what the paper calls it
  /// Exactly one of the two is set.
  std::vector<Sweep> (*sweeps)(const PaperFlags&) = nullptr;
  /// Prints its own table to stdout; returns the process exit code.
  int (*table)(const PaperFlags&) = nullptr;
};

/// Every figure, in the paper's order: §4 figures, §4.1 overhead, ablations.
std::span<const Figure> Figures();

/// nullptr for an unknown name.
const Figure* FindFigure(std::string_view name);

/// Table 1 defaults adjusted for the run mode.
SimConfig BaseConfig(const PaperFlags& flags);

/// One row of the §4.1 overhead table: an algorithm's cycle geometry at
/// Table 1 defaults.
struct OverheadRow {
  Algorithm algorithm;
  BroadcastGeometry geometry;
};

/// The §4.1 overhead table the `overhead` figure prints.
std::vector<OverheadRow> OverheadTable();

}  // namespace bcc::paper

#endif  // BCC_BENCH_PAPER_FIGURES_H_
