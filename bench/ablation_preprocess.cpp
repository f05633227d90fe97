/// \file ablation_preprocess.cpp
/// \brief Preprocessing ablation: does SatELite-style simplification of
///        the hard clauses help the MaxSAT engines? MiniSat 1.14 — the
///        paper's substrate — shipped with that preprocessor; the paper
///        ran the plain solver. The simplification is simplifyHard
///        (core/preprocess.h): the solver's own inprocessing passes
///        (strip → probe → subsume, with self-subsuming strengthening →
///        eliminate, bounded variable elimination) run to a fixpoint on
///        the hard clauses with every soft-clause variable frozen. Reported per
///        engine: aborted counts and total time with and without
///        preprocessing, plus clause/variable deltas. Exits 1 when the
///        plain and simplified suites disagree on any optimum.
///
/// Usage: ablation_preprocess [timeout_seconds] [per_family]

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <random>

#include "core/preprocess.h"
#include "gen/debug.h"
#include "gen/graphs.h"
#include "harness/runner.h"
#include "harness/suite.h"
#include "harness/tables.h"

namespace {

/// Partial-MaxSAT suite (plenty of hard clauses for the preprocessor to
/// chew on): design debugging, graph coloring, vertex cover, timetables.
std::vector<msu::Instance> buildPartialSuite(int perFamily,
                                             std::uint64_t seed) {
  using namespace msu;
  std::vector<Instance> suite;
  std::mt19937_64 rng(seed);
  for (int i = 0; i < perFamily; ++i) {
    DebugParams dp;
    dp.circuit.numInputs = 6;
    dp.circuit.numGates = 40 + 10 * i;
    dp.circuit.seed = rng();
    dp.numVectors = 3;
    dp.seed = rng();
    suite.push_back({"debug-" + std::to_string(i), "debug",
                     designDebugInstance(dp, /*partial=*/true).wcnf});
  }
  for (int i = 0; i < perFamily; ++i) {
    const Graph g = ringWithChords(14 + 2 * i, 10 + i, rng());
    suite.push_back(
        {"coloring-" + std::to_string(i), "coloring", coloringInstance(g, 3)});
  }
  for (int i = 0; i < perFamily; ++i) {
    const Graph g = randomGraph(16 + i, 0.3, rng());
    suite.push_back({"vcover-" + std::to_string(i), "vcover",
                     vertexCoverInstance(g)});
  }
  for (int i = 0; i < perFamily; ++i) {
    TimetableParams tp;
    tp.numEvents = 14 + 2 * i;
    tp.numSlots = 4;
    tp.seed = rng();
    suite.push_back({"timetable-" + std::to_string(i), "timetable",
                     timetablingInstance(tp)});
  }
  return suite;
}

/// Number of variables occurring in some hard or soft clause.
std::int64_t countVars(const msu::WcnfFormula& w) {
  std::vector<char> seen(static_cast<std::size_t>(w.numVars()), 0);
  const auto mark = [&](std::span<const msu::Lit> c) {
    for (const msu::Lit p : c) seen[static_cast<std::size_t>(p.var())] = 1;
  };
  for (const std::span<const msu::Lit> h : w.hard()) mark(h);
  for (const msu::SoftClause& s : w.soft()) mark(s.lits);
  return std::count(seen.begin(), seen.end(), 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msu;

  RunConfig config;
  config.timeoutSeconds = argc > 1 ? std::atof(argv[1]) : 1.0;
  const int perFamily = argc > 2 ? std::atoi(argv[2]) : 5;

  const std::vector<Instance> plain = buildPartialSuite(perFamily, 20080310);

  // Preprocessed twin suite.
  std::vector<Instance> simplified;
  std::int64_t hardBefore = 0;
  std::int64_t hardAfter = 0;
  std::int64_t varsRemoved = 0;
  for (const Instance& inst : plain) {
    SimplifyResult pre = simplifyHard(inst.wcnf);
    if (!pre.simplified) {
      std::cerr << inst.name << ": simplification refuted the hard clauses\n";
      return 1;
    }
    hardBefore += inst.wcnf.numHard();
    hardAfter += pre.simplified->numHard();
    varsRemoved += countVars(inst.wcnf) - countVars(*pre.simplified);
    simplified.push_back({inst.name, inst.family, std::move(*pre.simplified)});
  }
  std::cout << "preprocessing ablation, " << plain.size()
            << " instances, timeout " << config.timeoutSeconds << " s\n";
  std::cout << "hard clauses " << hardBefore << " -> " << hardAfter << " ("
            << std::fixed << std::setprecision(1)
            << (hardBefore > 0
                    ? 100.0 * static_cast<double>(hardBefore - hardAfter) /
                          static_cast<double>(hardBefore)
                    : 0.0)
            << "% removed), " << varsRemoved << " variables removed\n\n";

  const std::vector<std::string> solvers{"msu4-v2", "msu3", "oll", "pbo"};
  std::vector<RunRecord> baseline = runMatrix(solvers, plain, config);
  std::vector<RunRecord> preprocessed = runMatrix(solvers, simplified, config);

  // Tag and merge so the aborted table shows both columns side by side.
  std::vector<std::string> columns;
  std::vector<RunRecord> merged;
  for (const std::string& s : solvers) {
    columns.push_back(s);
    columns.push_back(s + "+simp");
  }
  for (RunRecord r : baseline) merged.push_back(std::move(r));
  for (RunRecord r : preprocessed) {
    r.solver += "+simp";
    merged.push_back(std::move(r));
  }
  printAbortedTable(std::cout, merged, columns,
                    "Engines with and without hard-clause preprocessing");

  // Optima must agree between the twin suites (same name = same optimum).
  const int bad = crossCheckOptima(merged, std::cerr);
  return bad > 0 ? 1 : 0;
}
