#include "core/preprocess.h"

#include <algorithm>

#include "sat/solver.h"

namespace msu {

namespace {

/// Root-level unit propagation over the hard clauses: every variable's
/// forced value (Undef where free), or nullopt when propagation refutes
/// them. It works on the formula's spans directly: each clause keeps a
/// count of its distinct literals not yet false, and a literal's
/// occurrence list (CSR, built by counting) names the clauses whose
/// count drops when it becomes false. A clause whose count reaches 1 is
/// scanned once for a true literal or its last free one; a count of 0
/// is a conflict. Duplicate literals are counted once and tautologies
/// need no special case: one of their two complementary literals is
/// never false.
std::optional<Assignment> propagateHard(const WcnfFormula& formula) {
  const ClauseStore& hard = formula.hard();
  const auto numLits = 2 * static_cast<std::size_t>(formula.numVars());
  Assignment value(static_cast<std::size_t>(formula.numVars()), lbool::Undef);
  const auto valueOf = [&](Lit p) {
    return applySign(value[static_cast<std::size_t>(p.var())], p);
  };
  std::vector<Lit> trail;
  // False when `p` is already false; otherwise assigns it true.
  const auto enqueue = [&](Lit p) {
    const lbool v = valueOf(p);
    if (v == lbool::Undef) {
      value[static_cast<std::size_t>(p.var())] = toLbool(!p.negative());
      trail.push_back(p);
    }
    return v != lbool::False;
  };

  // Calls `f(p)` once per distinct literal of clause `i`. A literal's
  // stamp holds the last clause that visited it; a pass tags clause
  // ids with `tag` to keep its stamps apart from the previous pass's.
  std::vector<std::uint32_t> stamp(numLits, 0);
  const auto forEachDistinct = [&](std::size_t i, std::uint32_t tag,
                                   auto&& f) {
    const auto mark = static_cast<std::uint32_t>(i) * 2 + tag;
    for (const Lit p : hard[i]) {
      std::uint32_t& st = stamp[static_cast<std::size_t>(p.index())];
      if (st == mark) continue;
      st = mark;
      f(p);
    }
  };

  // Pass 1: distinct-literal counts per clause and occurrences per
  // literal; clauses with fewer than two literals are units or empty.
  std::vector<std::uint32_t> count(hard.size(), 0);
  std::vector<std::uint32_t> occBegin(numLits + 1, 0);
  for (std::size_t i = 0; i < hard.size(); ++i) {
    forEachDistinct(i, 1, [&](Lit p) {
      ++count[i];
      ++occBegin[static_cast<std::size_t>(p.index()) + 1];
    });
    if (count[i] == 0) return std::nullopt;
    if (count[i] == 1 && !enqueue(hard[i][0])) return std::nullopt;
  }
  if (trail.empty()) {
    return value;  // nothing to propagate
  }
  for (std::size_t l = 0; l < numLits; ++l) occBegin[l + 1] += occBegin[l];

  // Pass 2: the occurrence lists themselves.
  std::vector<std::uint32_t> occ(occBegin[numLits]);
  {
    std::vector<std::uint32_t> fill(occBegin.begin(), occBegin.end() - 1);
    for (std::size_t i = 0; i < hard.size(); ++i) {
      forEachDistinct(i, 2, [&](Lit p) {
        occ[fill[static_cast<std::size_t>(p.index())]++] =
            static_cast<std::uint32_t>(i);
      });
    }
  }

  // Propagation: every trail literal makes its complement false.
  for (std::size_t head = 0; head < trail.size(); ++head) {
    const auto falsified = static_cast<std::size_t>((~trail[head]).index());
    for (std::uint32_t k = occBegin[falsified]; k < occBegin[falsified + 1];
         ++k) {
      const std::uint32_t c = occ[k];
      const std::uint32_t left = --count[c];
      if (left > 1) continue;
      Lit unit = kUndefLit;
      bool satisfied = false;
      for (const Lit p : hard[c]) {
        const lbool v = valueOf(p);
        if (v == lbool::True) {
          satisfied = true;
          break;
        }
        if (v == lbool::Undef) unit = p;
      }
      if (satisfied) continue;
      if (unit == kUndefLit || !enqueue(unit)) return std::nullopt;
    }
  }
  return value;
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
    seen.reserve(formula.hard().size());
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
  seen.reserve(formula.soft().size());
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
  solver.newVars(formula.numVars());
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
