/// \file ablation_family.cpp
/// \brief Algorithm-family ablation (paper §5: "the interplay between
///        different algorithms based on unsatisfiable core
///        identification should be further developed"): msu1 (Fu-Malik),
///        msu3, msu4, plus model-improving linear and binary search.
///
/// Usage: ablation_family [timeout_seconds] [size_scale] [per_family]

#include <cstdlib>
#include <iostream>

#include "harness/runner.h"
#include "harness/suite.h"
#include "harness/tables.h"

int main(int argc, char** argv) {
  using namespace msu;

  RunConfig config;
  config.timeoutSeconds = argc > 1 ? std::atof(argv[1]) : 1.0;
  SuiteParams sp;
  sp.sizeScale = argc > 2 ? std::atof(argv[2]) : 0.5;
  sp.perFamily = argc > 3 ? std::atoi(argv[3]) : 6;

  const std::vector<Instance> suite = buildMixedSuite(sp);
  std::cout << "core-guided family ablation, " << suite.size()
            << " instances, timeout " << config.timeoutSeconds << " s\n\n";

  const std::vector<std::string> solvers{"msu1", "msu3", "msu4-v2", "wlinear",
                                         "binary"};
  const std::vector<RunRecord> records = runMatrix(solvers, suite, config);
  printAbortedTable(std::cout, records, solvers,
                    "Algorithm family (all SAT-based)");
  printFamilyBreakdown(std::cout, records, solvers);

  const int bad = crossCheckOptima(records, std::cerr);
  return bad > 0 ? 1 : 0;
}
