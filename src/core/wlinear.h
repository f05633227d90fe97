/// \file wlinear.h
/// \brief SAT–UNSAT linear search: the library's one model-improving
///        engine, behind the `wlinear*` and `pbo*` names.
///
/// The search runs on the paper's PBO formulation of MaxSAT (§2.2):
/// every soft clause `w_i` becomes `w_i ∨ b_i` with a fresh blocking
/// variable `b_i`, and the cost function becomes the pseudo-Boolean
/// objective `sum(weight_i * b_i)` (toPbo). Every clause pays its
/// blocking variable up front, which is why the paper shows this
/// formulation does not scale and what msu4 is designed to avoid.
/// The search is minisat+'s (Eén & Sörensson): each model of cost `W`
/// asserts `objective <= W - 1`, until unsatisfiability proves the last
/// model optimal. OPB inputs (pbo/opb.h) run through the same loop
/// (WeightedLinearSolver::solvePbo), with their PB constraints encoded
/// once and their objective offset added to every reported value.
///
/// How the bound is encoded is the engine's one decision, made by
/// ObjectiveBound for the loop here and for the cube-and-conquer
/// workers (par/cube.h) alike; see BoundEncoding.

#pragma once

#include <optional>
#include <vector>

#include "core/incremental_atmost.h"
#include "core/maxsat.h"
#include "encodings/pb.h"
#include "pbo/pbo_solver.h"

namespace msu {

class OracleSession;

/// The two ways to encode the objective bound `objective <= ub - 1`.
enum class BoundEncoding {
  /// Unit-weight objectives go through IncrementalAtMost
  /// (MaxSatOptions::encoding, reuseEncodings); other objectives are
  /// PB-encoded in a scope retired on each tightening. The `wlinear`
  /// and `wlinear-adder` engines.
  Mixed,
  /// Every objective is PB-encoded in a scope retired on each
  /// tightening: the paper's minisat+-style `pbo` column (`pbo`,
  /// `pbo-adder`).
  Pb,
};

/// The paper's translation: clause `w_i` becomes `w_i ∨ b_i`, objective
/// = sum(weight_i * b_i). Blocking variables follow the original ones.
[[nodiscard]] PboProblem toPbo(const WcnfFormula& formula);

/// Loads `problem` into `session`: its variables, its clauses (in bulk,
/// OracleSession::addClauses) and its PB constraints, encoded once
/// with `pb` outside any scope. The objective is left to ObjectiveBound.
void loadPbo(OracleSession& session, const PboProblem& problem,
             PbEncoding pb);

/// The successively tighter bounds `objective <= ub - 1` of one linear
/// search, asserted on a session.
class ObjectiveBound {
 public:
  ObjectiveBound(std::vector<PbTerm> objective, const MaxSatOptions& options,
                 PbEncoding pb, BoundEncoding style);

  /// Asserts `objective <= ub - 1` for `ub` >= 1 below every earlier
  /// `ub`. A PB bound retires its predecessor's scope; a cardinality
  /// bound extends or re-encodes as IncrementalAtMost decides.
  void tighten(OracleSession& session, Weight ub);

 private:
  std::vector<PbTerm> objective_;
  PbEncoding pb_;
  std::vector<Lit> lits_;                 // cardinality path only
  std::optional<IncrementalAtMost> card_;  // set: cardinality path
  ScopeHandle scope_;                      // PB path: the live bound
};

/// Model-improving linear search from above.
class WeightedLinearSolver final : public MaxSatSolver {
 public:
  /// `pbEncoding` translates PB bounds and constraints; `style` decides
  /// which objectives get one (see BoundEncoding).
  explicit WeightedLinearSolver(MaxSatOptions options = {},
                                PbEncoding pbEncoding = PbEncoding::Bdd,
                                BoundEncoding style = BoundEncoding::Mixed);

  [[nodiscard]] std::string name() const override;

  /// Solves toPbo(formula); the model covers the original variables.
  [[nodiscard]] MaxSatResult solve(const WcnfFormula& formula) override;

  /// Minimizes `objective + objectiveOffset`. Cost and bounds include
  /// the offset, the model covers all `numVars` variables, and
  /// UnsatisfiableHard means the constraints are infeasible.
  [[nodiscard]] MaxSatResult solvePbo(const PboProblem& problem);

 private:
  MaxSatOptions opts_;
  PbEncoding pb_;
  BoundEncoding style_;
};

}  // namespace msu
