/// \file design_debugging.cpp
/// \brief The paper's motivating EDA application (Safarpour et al.,
///        FMCAD'07): locating a design error with MaxSAT.
///
/// A random "golden" circuit gets one gate corrupted; input/output
/// vectors from the golden design then over-constrain the faulty
/// netlist. Solving the resulting partial MaxSAT instance (hard I/O,
/// soft gate clauses) with msu4 yields a minimal set of gate clauses to
/// give up — which points at the corrupted gate.

#include <iostream>
#include <map>

#include "core/msu4.h"
#include "gen/circuit.h"
#include "gen/debug.h"

int main() {
  using namespace msu;

  DebugParams params;
  params.circuit.numInputs = 8;
  params.circuit.numGates = 120;
  params.circuit.numOutputs = 4;
  params.circuit.seed = 2008;
  params.numVectors = 5;
  params.seed = 314;

  std::cout << "generating a " << params.circuit.numGates
            << "-gate circuit with one injected gate error...\n";
  const DebugInstance inst = designDebugInstance(params, /*partial=*/true);
  std::cout << "instance: " << inst.wcnf.summary() << "\n";
  std::cout << "vectors exposing the bug: " << inst.mismatchVectors << "\n";
  std::cout << "ground-truth error site: gate " << inst.errorGate << " ("
            << toString(
                   randomCircuit(params.circuit).gate(inst.errorGate).type)
            << " corrupted)\n\n";

  Msu4Solver solver = Msu4Solver::v2();
  const MaxSatResult result = solver.solve(inst.wcnf);

  std::cout << "status:             " << toString(result.status) << "\n";
  std::cout << "gate clauses to drop: " << result.cost << "\n";
  std::cout << "cores analysed:       " << result.coresFound << "\n";
  std::cout << "SAT conflicts:        " << result.satStats.conflicts << "\n";

  if (result.status != MaxSatStatus::Optimum) return 1;

  // Diagnosis: which soft (gate) clauses does the optimal model falsify?
  std::map<int, int> falsifiedPerClause;
  int shown = 0;
  std::cout << "\nfalsified gate clauses (error candidates):\n";
  for (int i = 0; i < inst.wcnf.numSoft(); ++i) {
    const std::span<const Lit> c =
        inst.wcnf.soft()[static_cast<std::size_t>(i)].lits;
    bool sat = false;
    for (Lit p : c) {
      if (applySign(result.model[static_cast<std::size_t>(p.var())], p) ==
          lbool::True) {
        sat = true;
        break;
      }
    }
    if (!sat && shown < 10) {
      std::cout << "  soft clause #" << i << " (" << c.size()
                << " literals)\n";
      ++shown;
    }
  }
  std::cout << "\nan engineer would now inspect the gates whose clauses "
               "were dropped.\n";
  return 0;
}
