#include "core/wlinear.h"

#include <algorithm>

#include "core/oracle_session.h"

namespace msu {

namespace {

/// A model's objective value once every objective literal nothing needs
/// is set false: one whose variable occurs in no PB constraint and in no
/// other objective term, and whose clauses another literal satisfies.
/// On a toPbo() problem this is exactly the MaxSAT cost of the model —
/// a blocking variable counts only when its soft clause is falsified.
class ModelCost {
 public:
  explicit ModelCost(const PboProblem& p) : objective_(p.objective) {
    const auto n = static_cast<std::size_t>(p.numVars);
    std::vector<int> uses(n, 0);  // 2 = pinned by a PB constraint
    auto var = [](Lit l) { return static_cast<std::size_t>(l.var()); };
    auto idx = [](Lit l) { return static_cast<std::size_t>(l.index()); };
    for (const PbTerm& t : p.objective) ++uses[var(t.lit)];
    for (const PbConstraint& pc : p.constraints) {
      for (const PbTerm& t : pc.terms) uses[var(t.lit)] = 2;
    }
    std::vector<int> termOf(2 * n, -1);  // literal -> lowerable term
    lowerable_.resize(objective_.size());
    for (std::size_t i = 0; i < objective_.size(); ++i) {
      const Lit l = objective_[i].lit;
      lowerable_[i] = uses[var(l)] == 1;
      if (lowerable_[i]) termOf[idx(l)] = static_cast<int>(i);
    }
    occurs_.resize(objective_.size());
    for (const Clause& c : p.clauses) {
      for (const Lit l : c) {
        const int t = termOf[idx(l)];
        if (t >= 0) occurs_[static_cast<std::size_t>(t)].push_back(&c);
      }
    }
  }

  /// Lowers `model` in place and returns its objective value.
  Weight operator()(Assignment& model) const {
    auto isTrue = [&](Lit l) {
      return applySign(model[static_cast<std::size_t>(l.var())], l) ==
             lbool::True;
    };
    Weight value = 0;
    for (std::size_t i = 0; i < objective_.size(); ++i) {
      const Lit l = objective_[i].lit;
      if (!isTrue(l)) continue;
      auto satisfiedElsewhere = [&](const Clause* c) {
        return std::any_of(c->begin(), c->end(),
                           [&](Lit q) { return q != l && isTrue(q); });
      };
      if (lowerable_[i] &&
          std::all_of(occurs_[i].begin(), occurs_[i].end(),
                      satisfiedElsewhere)) {
        model[static_cast<std::size_t>(l.var())] =
            l.positive() ? lbool::False : lbool::True;
      } else {
        value += objective_[i].coeff;
      }
    }
    return value;
  }

 private:
  const std::vector<PbTerm>& objective_;
  std::vector<bool> lowerable_;
  std::vector<std::vector<const Clause*>> occurs_;
};

}  // namespace

PboProblem toPbo(const WcnfFormula& formula) {
  PboProblem p;
  p.clauses.reserve(
      static_cast<std::size_t>(formula.numHard() + formula.numSoft()));
  for (const std::span<const Lit> h : formula.hard()) {
    p.clauses.emplace_back(h.begin(), h.end());
  }
  int nextVar = formula.numVars();
  for (const SoftClause& s : formula.soft()) {
    const Lit b = posLit(nextVar++);
    Clause c(s.lits.begin(), s.lits.end());
    c.push_back(b);
    p.clauses.push_back(std::move(c));
    p.objective.push_back(PbTerm{b, s.weight});
  }
  p.numVars = nextVar;
  return p;
}

ObjectiveBound::ObjectiveBound(std::vector<PbTerm> objective,
                               const MaxSatOptions& options, PbEncoding pb,
                               BoundEncoding style)
    : objective_(std::move(objective)), pb_(pb) {
  const bool unit = std::all_of(objective_.begin(), objective_.end(),
                                [](const PbTerm& t) { return t.coeff == 1; });
  if (style == BoundEncoding::Mixed && unit) {
    lits_.reserve(objective_.size());
    for (const PbTerm& t : objective_) lits_.push_back(t.lit);
    card_.emplace(options.encoding, options.reuseEncodings);
  }
}

void ObjectiveBound::tighten(OracleSession& session, Weight ub) {
  if (card_) {
    card_->assertAtMost(session.sink(), lits_, static_cast<int>(ub) - 1);
    return;
  }
  // The new bound subsumes the previous one, whose scope is physically
  // retired instead of rotting in the database.
  if (scope_.defined()) session.retire(scope_);
  scope_ = session.beginScope();
  encodePbLeq(session.sink(), objective_, ub - 1, pb_);
  session.endScope(scope_);
}

void loadPbo(OracleSession& session, const PboProblem& problem,
             PbEncoding pb) {
  session.ensureVars(problem.numVars);
  session.addClauses(problem.clauses);
  for (const PbConstraint& pc : problem.constraints) {
    encodePbLeq(session.sink(), pc.terms, pc.bound, pb);
  }
}

WeightedLinearSolver::WeightedLinearSolver(MaxSatOptions options,
                                           PbEncoding pbEncoding,
                                           BoundEncoding style)
    : opts_(std::move(options)), pb_(pbEncoding), style_(style) {}

std::string WeightedLinearSolver::name() const {
  return std::string(style_ == BoundEncoding::Pb ? "pbo-" : "wlinear-") +
         toString(pb_);
}

MaxSatResult WeightedLinearSolver::solve(const WcnfFormula& formula) {
  MaxSatResult result = solvePbo(toPbo(formula));
  if (!result.model.empty()) {
    result.model.resize(static_cast<std::size_t>(formula.numVars()));
  }
  return result;
}

MaxSatResult WeightedLinearSolver::solvePbo(const PboProblem& problem) {
  MaxSatResult result;
  const Weight offset = problem.objectiveOffset;
  Weight total = 0;
  for (const PbTerm& t : problem.objective) total += t.coeff;

  OracleSession session(opts_);
  loadPbo(session, problem, pb_);
  ObjectiveBound bound(problem.objective, opts_, pb_, style_);
  const ModelCost modelCost(problem);

  Weight upper = total + 1;  // no model yet
  Assignment best;

  auto finish = [&](MaxSatStatus st) {
    result.status = st;
    result.lowerBound = offset + (st == MaxSatStatus::Optimum ? upper : 0);
    result.upperBound = offset + std::min(upper, total);
    if (st == MaxSatStatus::Optimum) result.cost = offset + upper;
    if (upper <= total) result.model = std::move(best);
    session.exportStats(result);
    return result;
  };

  while (true) {
    ++result.iterations;
    const lbool st = session.solve();
    if (st == lbool::Undef) return finish(MaxSatStatus::Unknown);
    if (st == lbool::False) {
      // No model beats the bound: either the constraints alone are
      // unsatisfiable (no model ever) or the last model is optimal.
      if (upper > total) return finish(MaxSatStatus::UnsatisfiableHard);
      return finish(MaxSatStatus::Optimum);
    }

    const std::vector<lbool>& m = session.sat().model();
    best.assign(m.begin(), m.begin() + problem.numVars);
    upper = modelCost(best);
    if (opts_.onBounds) opts_.onBounds(offset, offset + upper);
    if (upper == 0) return finish(MaxSatStatus::Optimum);

    // Demand a strictly better model: any model of the bounded formula
    // has objective <= upper - 1, and lowering only decreases it.
    bound.tighten(session, upper);
  }
}

}  // namespace msu
