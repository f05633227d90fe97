#include "core/preprocess.h"

#include <algorithm>
#include <map>

#include "sat/solver.h"

namespace msu {

PreprocessResult preprocessWcnf(const WcnfFormula& formula) {
  PreprocessResult result;
  result.forced.assign(static_cast<std::size_t>(formula.numVars()),
                       lbool::Undef);

  // Unit-propagate the hard clauses at level 0.
  Solver up;
  while (up.numVars() < formula.numVars()) static_cast<void>(up.newVar());
  bool hardRefuted = false;
  for (const Clause& h : formula.hard()) {
    if (!up.addClause(h)) {
      hardRefuted = true;
      break;
    }
  }
  if (hardRefuted) return result;  // simplified unset

  for (Var v = 0; v < formula.numVars(); ++v) {
    const lbool val = up.value(v);
    if (val != lbool::Undef) {
      result.forced[static_cast<std::size_t>(v)] = val;
      ++result.fixedVars;
    }
  }

  auto litValue = [&](Lit p) {
    return applySign(result.forced[static_cast<std::size_t>(p.var())], p);
  };

  /// Applies the forced values to a clause. Returns nullopt when the
  /// clause is satisfied; otherwise the reduced, normalized literal set
  /// (empty = falsified).
  auto reduce = [&](const Clause& c) -> std::optional<Clause> {
    Clause out;
    for (Lit p : c) {
      const lbool v = litValue(p);
      if (v == lbool::True) return std::nullopt;
      if (v == lbool::Undef) out.push_back(p);
    }
    if (isTautology(out)) return std::nullopt;
    return normalizedClause(out);
  };

  WcnfFormula simplified(formula.numVars());

  // Hard clauses: reduce and de-duplicate.
  std::map<Clause, bool> seenHard;
  for (const Clause& h : formula.hard()) {
    const std::optional<Clause> r = reduce(h);
    if (!r) {
      ++result.removedHard;
      continue;
    }
    // A falsified hard clause would have refuted UP above.
    if (!seenHard.emplace(*r, true).second) {
      ++result.removedHard;
      continue;
    }
    simplified.addHard(*r);
  }

  // Soft clauses: reduce, charge falsified ones, merge duplicates.
  std::map<Clause, std::size_t> softIndex;
  std::vector<SoftClause> softOut;
  for (const SoftClause& s : formula.soft()) {
    const std::optional<Clause> r = reduce(s.lits);
    if (!r) {
      ++result.removedSoft;
      continue;
    }
    if (r->empty()) {
      result.forcedCost += s.weight;
      ++result.removedSoft;
      continue;
    }
    if (auto it = softIndex.find(*r); it != softIndex.end()) {
      softOut[it->second].weight += s.weight;
      ++result.mergedSoft;
      continue;
    }
    softIndex.emplace(*r, softOut.size());
    softOut.push_back(SoftClause{*r, s.weight});
  }
  for (const SoftClause& s : softOut) simplified.addSoft(s.lits, s.weight);

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
  while (solver.numVars() < formula.numVars()) {
    static_cast<void>(solver.newVar());
  }
  for (const SoftClause& s : formula.soft()) {
    for (const Lit p : s.lits) solver.setFrozen(p.var(), true);
  }
  {
    Solver::BulkLoadGuard bulk(solver);
    for (const Clause& h : formula.hard()) {
      if (!solver.addClause(h)) break;
    }
  }

  // Removed (BVE + SCC) plus root-fixed variables only grow, and
  // between two such gains the clause count must strictly shrink for
  // another pass to run, so the loop ends on its own.
  const auto settledVars = [&] {
    const SolverStats& st = solver.stats();
    return st.inproc_bve_eliminated + st.inproc_scc_vars +
           solver.numFixedVars();
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
