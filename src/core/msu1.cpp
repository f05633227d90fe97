#include "core/msu1.h"

#include <unordered_map>

#include "core/oracle_session.h"
#include "encodings/cardinality.h"

namespace msu {

Msu1Solver::Msu1Solver(MaxSatOptions options) : opts_(options) {}

std::string Msu1Solver::name() const { return "msu1"; }

MaxSatResult Msu1Solver::solve(const WcnfFormula& input) {
  MaxSatResult result;
  const UnitWeightForm unit(input);
  if (!unit.ok()) return tooHeavyToDuplicate(input);
  const WcnfFormula& formula = unit.formula();
  const Weight m = formula.numSoft();
  const int numOriginalVars = formula.numVars();

  OracleSession session(unit.charged(opts_));
  session.addHards(formula);

  // Per soft clause: its current literal set (original literals plus the
  // blocking variables accumulated over relaxations) and the scope
  // holding its current version. The scope activator doubles as the
  // enforcement assumption (handled by the session's oracle), and
  // retiring a version physically deletes its clause and recycles the
  // selector variable — the modern form of Fu–Malik's unit-asserted
  // selectors.
  std::vector<Clause> lits(static_cast<std::size_t>(m));
  std::vector<ScopeHandle> version(static_cast<std::size_t>(m));
  std::unordered_map<Var, int> activatorToSoft;

  auto installVersion = [&](int i) {
    const ScopeHandle act = session.beginScope();
    session.sink().addClause(lits[static_cast<std::size_t>(i)]);
    session.endScope(act);
    version[static_cast<std::size_t>(i)] = act;
    activatorToSoft[act.activator().var()] = i;
  };

  for (int i = 0; i < m; ++i) {
    const std::span<const Lit> soft =
        formula.soft()[static_cast<std::size_t>(i)].lits;
    lits[static_cast<std::size_t>(i)].assign(soft.begin(), soft.end());
    installVersion(i);
  }

  if (!session.okay()) {
    result.status = MaxSatStatus::UnsatisfiableHard;
    session.exportStats(result);
    return result;
  }

  Weight cost = 0;  // one per relaxed core

  auto finish = [&](MaxSatStatus st, Assignment model) {
    result.status = st;
    result.lowerBound = cost;
    result.upperBound = (st == MaxSatStatus::Optimum) ? cost : m;
    result.cost = (st == MaxSatStatus::Optimum) ? cost : 0;
    result.model = std::move(model);
    session.exportStats(result);
    return result;
  };

  while (true) {
    ++result.iterations;
    // Enforcement is automatic: every live version scope's activator is
    // assumed by the solver itself.
    const lbool st = session.solve();
    if (st == lbool::Undef) return finish(MaxSatStatus::Unknown, {});

    if (st == lbool::True) {
      Assignment model(static_cast<std::size_t>(numOriginalVars));
      for (Var v = 0; v < numOriginalVars; ++v) {
        const lbool val = session.sat().model()[static_cast<std::size_t>(v)];
        model[static_cast<std::size_t>(v)] =
            (val == lbool::Undef) ? lbool::False : val;
      }
      return finish(MaxSatStatus::Optimum, std::move(model));
    }

    ++result.coresFound;
    // Map the failed activator assumptions back to soft indices.
    std::vector<int> coreSoft;
    for (Lit p : session.sat().core()) {
      if (auto it = activatorToSoft.find(p.var());
          it != activatorToSoft.end()) {
        coreSoft.push_back(it->second);
      }
    }
    if (coreSoft.empty()) {
      return finish(MaxSatStatus::UnsatisfiableHard, {});
    }

    // Fu-Malik relaxation: fresh blocking variable per core clause,
    // exactly one of them true. The old versions are retired in one
    // batch sweep — clauses deleted, selector variables recycled.
    std::vector<ScopeHandle> retired;
    std::vector<Lit> freshBlocking;
    retired.reserve(coreSoft.size());
    freshBlocking.reserve(coreSoft.size());
    for (int i : coreSoft) {
      const ScopeHandle oldVersion = version[static_cast<std::size_t>(i)];
      activatorToSoft.erase(oldVersion.activator().var());
      retired.push_back(oldVersion);
      const Lit b = posLit(session.sat().newVar());
      lits[static_cast<std::size_t>(i)].push_back(b);
      freshBlocking.push_back(b);
    }
    session.retireAll(retired);
    for (int i : coreSoft) installVersion(i);
    encodeExactlyOne(session.sink(), freshBlocking);
    cost += 1;
    if (opts_.onBounds) opts_.onBounds(cost, m + 1);
  }
}

}  // namespace msu
