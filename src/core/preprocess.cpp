#include "core/preprocess.h"

#include <algorithm>

#include "sat/solver.h"

namespace msu {

namespace {

/// Root-level unit propagation over the hard clauses: every variable's
/// forced value (Undef where free), or nullopt when propagation refutes
/// them. The solver and its arena live only inside this call.
std::optional<Assignment> propagateHard(const WcnfFormula& formula) {
  Solver up;
  up.reserveVars(formula.numVars());
  while (up.numVars() < formula.numVars()) static_cast<void>(up.newVar());
  {
    Solver::BulkLoadGuard bulk(up);
    for (const std::span<const Lit> h : formula.hard()) {
      if (!up.addClause(h)) break;
    }
  }
  if (!up.okay()) return std::nullopt;
  Assignment forced(static_cast<std::size_t>(formula.numVars()));
  for (Var v = 0; v < formula.numVars(); ++v) {
    forced[static_cast<std::size_t>(v)] = up.value(v);
  }
  return forced;
}

}  // namespace

PreprocessResult preprocessWcnf(const WcnfFormula& formula) {
  PreprocessResult result;
  std::optional<Assignment> forced = propagateHard(formula);
  if (!forced) {
    result.forced.assign(static_cast<std::size_t>(formula.numVars()),
                         lbool::Undef);
    return result;  // simplified unset
  }
  result.forced = std::move(*forced);
  result.fixedVars = static_cast<int>(
      std::ranges::count_if(result.forced,
                            [](lbool v) { return v != lbool::Undef; }));

  /// Applies the forced values to `c` into `scratch` and normalizes it.
  /// Returns false when the clause is satisfied or a tautology; an
  /// empty `scratch` means falsified.
  Clause scratch;
  auto reduce = [&](std::span<const Lit> c) {
    scratch.clear();
    for (const Lit p : c) {
      const lbool v =
          applySign(result.forced[static_cast<std::size_t>(p.var())], p);
      if (v == lbool::True) return false;
      if (v == lbool::Undef) scratch.push_back(p);
    }
    return normalizeClause(scratch);
  };

  // The output is a new store no larger than the input; it is trimmed
  // to size once written.
  WcnfFormula simplified(formula.numVars());
  simplified.reserveHard(formula.hard().size(),
                         formula.hard().numLiterals());
  simplified.reserveSoft(formula.soft().size(),
                         formula.soft().clauses().numLiterals());

  // Hard clauses: reduce and de-duplicate. The table keys on the output
  // clauses themselves. A falsified hard clause would have refuted
  // propagation above.
  {
    ClauseIdTable seen;
    const auto litsOf = [&](ClauseIdTable::Id i) {
      return simplified.hard()[i];
    };
    for (const std::span<const Lit> h : formula.hard()) {
      const auto id = static_cast<ClauseIdTable::Id>(simplified.numHard());
      if (!reduce(h) || seen.insert(scratch, id, litsOf) != id) {
        ++result.removedHard;
        continue;
      }
      simplified.addHard(scratch);
    }
  }

  // Soft clauses: reduce, charge falsified ones, merge duplicates into
  // their first occurrence.
  ClauseIdTable seen;
  const auto litsOf = [&](ClauseIdTable::Id i) {
    return simplified.soft().clauses()[i];
  };
  for (const SoftClause& s : formula.soft()) {
    if (!reduce(s.lits)) {
      ++result.removedSoft;
      continue;
    }
    if (scratch.empty()) {
      result.forcedCost += s.weight;
      ++result.removedSoft;
      continue;
    }
    const auto id = static_cast<ClauseIdTable::Id>(simplified.numSoft());
    if (const ClauseIdTable::Id first = seen.insert(scratch, id, litsOf);
        first != id) {
      simplified.addSoftWeight(static_cast<int>(first), s.weight);
      ++result.mergedSoft;
      continue;
    }
    simplified.addSoft(scratch, s.weight);
  }
  simplified.shrinkToFit();

  result.simplified = std::move(simplified);
  return result;
}

void liftResult(const PreprocessResult& pre, MaxSatResult& result) {
  result.cost += pre.forcedCost;
  result.lowerBound += pre.forcedCost;
  result.upperBound += pre.forcedCost;
  if (result.status != MaxSatStatus::Optimum) return;
  const std::size_t n = std::min(result.model.size(), pre.forced.size());
  for (std::size_t v = 0; v < n; ++v) {
    if (pre.forced[v] != lbool::Undef) result.model[v] = pre.forced[v];
  }
}

Assignment SimplifyResult::extend(Assignment model) const {
  const auto n = static_cast<std::size_t>(simplified ? simplified->numVars()
                                                     : 0);
  if (model.size() < n) model.resize(n, lbool::False);
  for (lbool& v : model) {
    if (v == lbool::Undef) v = lbool::False;
  }
  witness.extend(model);
  return model;
}

SimplifyResult simplifyHard(const WcnfFormula& formula) {
  Solver::Options opts;
  opts.inprocess = true;
  Solver solver(opts);
  solver.reserveVars(formula.numVars());
  while (solver.numVars() < formula.numVars()) {
    static_cast<void>(solver.newVar());
  }
  for (const SoftClause& s : formula.soft()) {
    for (const Lit p : s.lits) solver.setFrozen(p.var(), true);
  }
  {
    Solver::BulkLoadGuard bulk(solver);
    for (const std::span<const Lit> h : formula.hard()) {
      if (!solver.addClause(h)) break;
    }
  }

  // Eliminated plus root-fixed variables only grow, and
  // between two such gains the clause count must strictly shrink for
  // another pass to run, so the loop ends on its own.
  const auto settledVars = [&] {
    const SolverStats& st = solver.stats();
    return st.inproc_bve_eliminated + solver.numFixedVars();
  };
  while (solver.okay()) {
    const std::int64_t settled = settledVars();
    const int clauses = solver.numClauses();
    if (!solver.inprocessNow()) break;
    if (settledVars() == settled && solver.numClauses() >= clauses) break;
  }

  SimplifyResult result;
  if (!solver.okay()) return result;  // simplified unset
  WcnfFormula simplified(formula.numVars());
  for (const std::vector<Lit>& c : solver.irredundantClauses()) {
    simplified.addHard(c);
  }
  for (const SoftClause& s : formula.soft()) {
    simplified.addSoft(s.lits, s.weight);
  }
  result.simplified = std::move(simplified);
  result.witness = solver.witnessStack();
  return result;
}

}  // namespace msu
