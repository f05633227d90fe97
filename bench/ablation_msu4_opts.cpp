/// \file ablation_msu4_opts.cpp
/// \brief Ablation of msu4's design choices the paper calls out:
///        (a) the optional "at least one new blocking variable" clause
///        (Algorithm 1 line 19 — "optional, but experiments suggest it
///        is most often useful"), (b) encoding reuse across iterations,
///        (c) the tightened model-cost bound vs the paper's raw nu.
///        Exits 1 when a variant disagrees with another on any optimum.
///
/// Usage: ablation_msu4_opts [timeout_seconds] [size_scale] [per_family]

#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/msu4.h"
#include "harness/runner.h"
#include "harness/suite.h"

namespace {

struct Variant {
  std::string name;
  msu::MaxSatOptions opts;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace msu;

  const double timeout = argc > 1 ? std::atof(argv[1]) : 1.0;
  SuiteParams sp;
  sp.sizeScale = argc > 2 ? std::atof(argv[2]) : 0.5;
  sp.perFamily = argc > 3 ? std::atoi(argv[3]) : 6;
  const std::vector<Instance> suite = buildMixedSuite(sp);

  std::vector<Variant> variants;
  {
    Variant base{"baseline(v2)", {}};
    variants.push_back(base);
    Variant noAlo{"no-atleast-one", {}};
    noAlo.opts.msu4AtLeastOne = false;
    variants.push_back(noAlo);
    Variant noReuse{"no-enc-reuse", {}};
    noReuse.opts.reuseEncodings = false;
    variants.push_back(noReuse);
    Variant rawNu{"paper-raw-nu", {}};
    rawNu.opts.tightenWithModelCost = false;
    variants.push_back(rawNu);
  }

  std::cout << "msu4 option ablation, " << suite.size()
            << " instances, timeout " << timeout << " s\n\n";
  std::cout << std::left << std::setw(18) << "variant" << std::right
            << std::setw(9) << "aborted" << std::setw(9) << "solved"
            << std::setw(12) << "iterations" << std::setw(12) << "cores"
            << std::setw(12) << "total t[s]" << '\n';

  std::vector<RunRecord> runs;  // per-instance answers for the cross-check
  for (const Variant& v : variants) {
    int aborted = 0;
    int solved = 0;
    std::int64_t iterations = 0;
    std::int64_t cores = 0;
    double total = 0.0;
    for (const Instance& inst : suite) {
      MaxSatOptions o = v.opts;
      o.budget = Budget::wallClock(timeout);
      Msu4Solver solver(o);
      const auto t0 = std::chrono::steady_clock::now();
      const MaxSatResult r = solver.solve(inst.wcnf);
      total += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
      iterations += r.iterations;
      cores += r.coresFound;
      runs.push_back({.solver = v.name,
                      .instance = inst.name,
                      .family = inst.family,
                      .status = r.status,
                      .cost = r.cost});
      if (r.status == MaxSatStatus::Unknown) {
        ++aborted;
      } else {
        ++solved;
      }
    }
    std::cout << std::left << std::setw(18) << v.name << std::right
              << std::setw(9) << aborted << std::setw(9) << solved
              << std::setw(12) << iterations << std::setw(12) << cores
              << std::setw(12) << std::fixed << std::setprecision(2) << total
              << '\n';
  }
  return crossCheckOptima(runs, std::cerr) > 0 ? 1 : 0;
}
