/// \file pbo_solver.h
/// \brief The pseudo-Boolean optimization problem: what the OPB reader
///        produces and what toPbo() turns a MaxSAT instance into. The
///        engine that solves it is the SAT–UNSAT linear search in
///        core/wlinear.h (WeightedLinearSolver::solvePbo).

#pragma once

#include <vector>

#include "cnf/formula.h"
#include "encodings/pb.h"

namespace msu {

/// A pseudo-Boolean "less-or-equal" constraint: `sum(terms) <= bound`.
struct PbConstraint {
  std::vector<PbTerm> terms;
  Weight bound = 0;
};

/// A PBO instance: minimize `objective` subject to CNF clauses and PB
/// constraints.
struct PboProblem {
  int numVars = 0;
  std::vector<Clause> clauses;
  std::vector<PbConstraint> constraints;
  std::vector<PbTerm> objective;  ///< coefficients must be positive

  /// Constant added to the reported objective (used by the OPB reader
  /// to normalize negative coefficients: `-c*x == -c + c*(~x)`).
  Weight objectiveOffset = 0;
};

}  // namespace msu
