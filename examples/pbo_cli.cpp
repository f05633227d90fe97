/// \file pbo_cli.cpp
/// \brief Stand-alone pseudo-Boolean optimizer over the OPB competition
///        format: the SAT–UNSAT linear search behind the paper's "pbo"
///        baseline (WeightedLinearSolver::solvePbo in its all-PB bound
///        encoding, core/wlinear.h), exposed directly. Without a file
///        argument it solves a built-in 0/1 knapsack and prints the
///        instance it solved.
///
/// Usage: pbo_cli [--adder] [file.opb]
/// Output follows PB-competition conventions: `o <value>` improvements,
/// final `s OPTIMUM FOUND` / `s UNSATISFIABLE` / `s UNKNOWN`.

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/wlinear.h"
#include "pbo/opb.h"

int main(int argc, char** argv) {
  using namespace msu;

  PbEncoding encoding = PbEncoding::Bdd;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--adder") == 0) {
      encoding = PbEncoding::Adder;
    } else {
      path = argv[i];
    }
  }

  PboProblem problem;
  if (path != nullptr) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot open " << path << "\n";
      return 2;
    }
    try {
      problem = readOpb(in);
    } catch (const OpbError& e) {
      std::cerr << "parse error: " << e.what() << "\n";
      return 2;
    }
  } else {
    // Knapsack: maximize value 4a+5b+3c+7d subject to weight
    // 3a+4b+2c+5d <= 8 — as minimization of the forgone value.
    const std::string opb =
        "* built-in knapsack demo\n"
        "min: +4 ~x1 +5 ~x2 +3 ~x3 +7 ~x4 ;\n"
        "+3 x1 +4 x2 +2 x3 +5 x4 <= 8 ;\n";
    std::cout << opb << "\n";
    problem = parseOpb(opb);
  }

  MaxSatOptions opts;
  opts.onBounds = [](Weight, Weight upper) {
    std::cout << "o " << upper << "\n";
  };
  WeightedLinearSolver solver(opts, encoding, BoundEncoding::Pb);
  const MaxSatResult r = solver.solvePbo(problem);
  switch (r.status) {
    case MaxSatStatus::Optimum:
      std::cout << "s OPTIMUM FOUND\n";
      std::cout << "v";
      for (Var v = 0; v < problem.numVars; ++v) {
        std::cout << ' ' << (r.model[static_cast<std::size_t>(v)] ==
                                     lbool::True
                                 ? ""
                                 : "-")
                  << 'x' << v + 1;
      }
      std::cout << "\n";
      return 0;
    case MaxSatStatus::UnsatisfiableHard:
      std::cout << "s UNSATISFIABLE\n";
      return 0;
    case MaxSatStatus::Unknown:
      std::cout << "s UNKNOWN\n";
      return 1;
  }
  return 1;
}
