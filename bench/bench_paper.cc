// Reproduces the paper's evaluation (§4 Figures 2-4, the §4.1 overhead
// table) and the ablations, one named figure of the paper_figures.h
// registry at a time:
//
//   bench_paper --figure=NAME|all [--quick] [--csv] [--seed=N] [--metrics-json=F]
//
//   --figure=NAME     the figure to print; `all` prints every figure in turn
//   --quick           reduced runs (CI sanity)
//   --csv             additionally print machine-readable rows
//   --seed=N          override the base seed (42)
//   --metrics-json=F  write every sweep grid that ran, with each cell's full
//                     SimSummary, to F as one JSON document
//
// Sweeps print the paper's series as response-time and restart-ratio tables
// (mean +- 95% CI over the steady-state window, Table 1 defaults). Unknown
// flags and figures exit 2; a figure that fails its own check (the delta
// figure's delta <= full control bits on every cycle) exits 1.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/format.h"
#include "obs/json.h"
#include "obs/trace_export.h"
#include "paper_figures.h"

namespace bcc::paper {
namespace {

constexpr char kUsage[] =
    "usage: bench_paper --figure=NAME|all [--quick] [--csv] [--seed=N] [--metrics-json=F]\n";

std::string Usage() {
  std::string usage = std::string(kUsage) + "figures:";
  for (const Figure& figure : Figures()) {
    usage += StrFormat("\n  %-15s %s", std::string(figure.name).c_str(),
                       std::string(figure.caption).c_str());
  }
  return usage + "\n";
}

[[noreturn]] void UsageError(const char* what, const char* value) {
  std::fprintf(stderr, "%s: %s\n%s", what, value, Usage().c_str());
  std::exit(2);
}

/// One sweep grid as a JSON object: the figure and experiment metadata plus
/// one cell per (algorithm, x) pair, each embedding the cell's complete
/// SimSummary::ToJson (including the per-cause abort breakdown).
void AppendSweepJson(std::string_view figure, const ExperimentResult& result, JsonWriter* w) {
  w->BeginObject()
      .Key("figure")
      .Value(figure)
      .Key("title")
      .Value(result.spec.title)
      .Key("xLabel")
      .Value(result.spec.x_label)
      .Key("cells")
      .BeginArray();
  for (size_t a = 0; a < result.spec.algorithms.size(); ++a) {
    for (size_t x = 0; x < result.spec.x_values.size(); ++x) {
      w->BeginObject()
          .Key("algorithm")
          .Value(AlgorithmName(result.spec.algorithms[a]))
          .Key("x")
          .Value(result.spec.x_values[x])
          .Key("summary")
          .RawValue(result.At(a, x).ToJson())
          .EndObject();
    }
  }
  w->EndArray().EndObject();
}

/// Runs one figure; sweep grids are appended to `sweeps_json` (an open array).
int RunFigure(const Figure& figure, const PaperFlags& flags, JsonWriter* sweeps_json) {
  if (figure.table != nullptr) return figure.table(flags);
  for (const Sweep& sweep : figure.sweeps(flags)) {
    auto result = RunExperiment(sweep.spec);
    if (!result.ok()) {
      std::fprintf(stderr, "experiment failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    PrintResponseTable(*result, std::cout);
    if (sweep.print_restarts) PrintRestartTable(*result, std::cout);
    if (flags.csv) PrintCsv(*result, std::cout);
    AppendSweepJson(figure.name, *result, sweeps_json);
  }
  return 0;
}

int Main(int argc, char** argv) {
  PaperFlags flags;
  std::string figure_name;
  std::string metrics_json;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--figure=", 9) == 0) {
      figure_name = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      flags.quick = true;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      flags.csv = true;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      flags.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--metrics-json=", 15) == 0) {
      metrics_json = argv[i] + 15;
    } else {
      UsageError("unknown flag", argv[i]);
    }
  }
  if (figure_name.empty()) UsageError("missing flag", "--figure=NAME|all");

  std::vector<const Figure*> figures;
  if (figure_name == "all") {
    for (const Figure& figure : Figures()) figures.push_back(&figure);
  } else if (const Figure* figure = FindFigure(figure_name)) {
    figures.push_back(figure);
  } else {
    UsageError("unknown figure", figure_name.c_str());
  }

  JsonWriter sweeps_json;
  sweeps_json.BeginObject().Key("sweeps").BeginArray();
  int rc = 0;
  for (const Figure* figure : figures) {
    if (figures.size() > 1) {
      std::cout << "#### " << figure->name << ": " << figure->caption << "\n\n";
    }
    rc = std::max(rc, RunFigure(*figure, flags, &sweeps_json));
  }
  sweeps_json.EndArray().EndObject();

  if (!metrics_json.empty()) {
    const Status written = WriteTextFile(metrics_json, std::move(sweeps_json).Take() + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "metrics dump failed: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("metrics: %s\n", metrics_json.c_str());
  }
  return rc;
}

}  // namespace
}  // namespace bcc::paper

int main(int argc, char** argv) { return bcc::paper::Main(argc, argv); }
