#include "localsearch/walksat.h"

#include <algorithm>
#include <random>
#include <vector>

namespace msu {
namespace {

/// Internal flat clause representation: soft and hard clauses share one
/// array; hard clauses carry a weight exceeding the total soft weight so
/// the cost ordering always prefers hard-feasible assignments.
struct FlatClause {
  Clause lits;
  Weight weight = 1;
  bool hard = false;
};

class WalkSatEngine {
 public:
  WalkSatEngine(const WcnfFormula& formula, const WalkSatOptions& opts)
      : opts_(opts), n_(formula.numVars()) {
    const Weight hardWeight = formula.totalSoftWeight() + 1;
    for (const std::span<const Lit> h : formula.hard()) {
      if (h.empty()) {
        hardUnsat_ = true;  // falsum: no assignment is hard-feasible
        continue;
      }
      clauses_.push_back(
          FlatClause{Clause(h.begin(), h.end()), hardWeight, true});
    }
    for (const SoftClause& s : formula.soft()) {
      if (s.lits.empty()) {
        baseCost_ += s.weight;  // permanently falsified
        continue;
      }
      clauses_.push_back(FlatClause{Clause(s.lits.begin(), s.lits.end()),
                                    s.weight, false});
    }
    occ_.resize(static_cast<std::size_t>(2 * std::max(n_, 1)));
    for (std::size_t ci = 0; ci < clauses_.size(); ++ci) {
      for (Lit p : clauses_[ci].lits) {
        occ_[static_cast<std::size_t>(p.index())].push_back(
            static_cast<int>(ci));
      }
    }
    value_.assign(static_cast<std::size_t>(n_), false);
    trueCount_.assign(clauses_.size(), 0);
  }

  WalkSatResult run() {
    WalkSatResult result;
    result.bestCost = hardPenaltyCeiling();
    std::mt19937_64 rng(opts_.seed);
    if (hardUnsat_) return result;  // no assignment can be hard-feasible

    for (int r = 0; r < opts_.restarts; ++r) {
      randomInit(rng);
      for (std::int64_t f = 0; f < opts_.maxFlips; ++f) {
        ++result.flips;
        if ((result.flips & 1023) == 0 && opts_.budget.timeExpired()) {
          return result;
        }
        recordBest(result);
        const int ci = pickFalsifiedClause(rng);
        if (ci < 0) return result;  // everything satisfiable is satisfied
        const Lit flipLit = pickFlipLiteral(ci, rng);
        flip(flipLit.var());
      }
      recordBest(result);
    }
    return result;
  }

 private:
  [[nodiscard]] Weight hardPenaltyCeiling() const {
    Weight soft = 0;
    for (const FlatClause& c : clauses_) {
      if (!c.hard) soft += c.weight;
    }
    return soft + 1;
  }

  void randomInit(std::mt19937_64& rng) {
    for (int v = 0; v < n_; ++v) value_[static_cast<std::size_t>(v)] =
        (rng() & 1) != 0;
    falsified_.clear();
    cost_ = baseCost_;
    hardFalsified_ = 0;
    for (std::size_t ci = 0; ci < clauses_.size(); ++ci) {
      int tc = 0;
      for (Lit p : clauses_[ci].lits) {
        if (litTrue(p)) ++tc;
      }
      trueCount_[ci] = tc;
      if (tc == 0) {
        falsified_.push_back(static_cast<int>(ci));
        cost_ += clauses_[ci].weight;
        if (clauses_[ci].hard) ++hardFalsified_;
      }
    }
  }

  [[nodiscard]] bool litTrue(Lit p) const {
    const bool v = value_[static_cast<std::size_t>(p.var())];
    return p.positive() ? v : !v;
  }

  void recordBest(WalkSatResult& result) {
    if (hardFalsified_ > 0) return;
    const Weight softCost = cost_;  // hard weight contributes 0 here
    if (!result.hardFeasible || softCost < result.bestCost) {
      result.hardFeasible = true;
      result.bestCost = softCost;
      result.model.resize(static_cast<std::size_t>(n_));
      for (int v = 0; v < n_; ++v) {
        result.model[static_cast<std::size_t>(v)] =
            toLbool(value_[static_cast<std::size_t>(v)]);
      }
    }
  }

  /// Picks a currently falsified clause, compacting stale entries; -1 if
  /// every clause is satisfied.
  [[nodiscard]] int pickFalsifiedClause(std::mt19937_64& rng) {
    while (!falsified_.empty()) {
      const std::size_t idx = rng() % falsified_.size();
      const int ci = falsified_[idx];
      if (trueCount_[static_cast<std::size_t>(ci)] == 0) return ci;
      falsified_[idx] = falsified_.back();
      falsified_.pop_back();
    }
    return -1;
  }

  /// Weight of clauses broken by flipping `v` (satisfied clauses where v
  /// is the single true literal).
  [[nodiscard]] Weight breakWeight(Var v) const {
    const Lit current = Lit(v, !value_[static_cast<std::size_t>(v)]);
    // `current` is the literal of v that is presently TRUE.
    Weight w = 0;
    for (int ci : occ_[static_cast<std::size_t>(current.index())]) {
      if (trueCount_[static_cast<std::size_t>(ci)] == 1) {
        w += clauses_[static_cast<std::size_t>(ci)].weight;
      }
    }
    return w;
  }

  [[nodiscard]] Lit pickFlipLiteral(int ci, std::mt19937_64& rng) {
    const FlatClause& c = clauses_[static_cast<std::size_t>(ci)];
    // Free move: a variable with zero break weight.
    Lit best = c.lits[0];
    Weight bestBreak = -1;
    for (Lit p : c.lits) {
      const Weight b = breakWeight(p.var());
      if (b == 0) return p;
      if (bestBreak < 0 || b < bestBreak) {
        bestBreak = b;
        best = p;
      }
    }
    // Noise: random literal of the clause; otherwise the least-break one.
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    if (uni(rng) < opts_.noise) {
      return c.lits[rng() % c.lits.size()];
    }
    return best;
  }

  void flip(Var v) {
    const Lit nowTrue = Lit(v, value_[static_cast<std::size_t>(v)]);
    // After flipping, `nowTrue` (the previously-false literal) is true.
    value_[static_cast<std::size_t>(v)] = !value_[static_cast<std::size_t>(v)];
    for (int ci : occ_[static_cast<std::size_t>(nowTrue.index())]) {
      const auto cu = static_cast<std::size_t>(ci);
      if (trueCount_[cu] == 0) {
        cost_ -= clauses_[cu].weight;
        if (clauses_[cu].hard) --hardFalsified_;
      }
      ++trueCount_[cu];
    }
    for (int ci : occ_[static_cast<std::size_t>((~nowTrue).index())]) {
      const auto cu = static_cast<std::size_t>(ci);
      --trueCount_[cu];
      if (trueCount_[cu] == 0) {
        cost_ += clauses_[cu].weight;
        if (clauses_[cu].hard) ++hardFalsified_;
        falsified_.push_back(ci);
      }
    }
  }

  WalkSatOptions opts_;
  int n_;
  std::vector<FlatClause> clauses_;
  std::vector<std::vector<int>> occ_;  // lit index -> clause ids
  std::vector<bool> value_;
  std::vector<int> trueCount_;
  std::vector<int> falsified_;  // may contain stale entries
  Weight cost_ = 0;
  Weight baseCost_ = 0;  // weight of empty (always falsified) soft clauses
  bool hardUnsat_ = false;  // an empty hard clause exists
  int hardFalsified_ = 0;
};

}  // namespace

WalkSatResult walksatMaxSat(const WcnfFormula& formula,
                            const WalkSatOptions& options) {
  if (formula.numVars() == 0) {
    WalkSatResult r;
    // Degenerate: only (possibly empty) clauses without variables.
    r.hardFeasible = true;
    for (const std::span<const Lit> h : formula.hard()) {
      if (h.empty()) r.hardFeasible = false;
    }
    for (const SoftClause& s : formula.soft()) {
      if (s.lits.empty()) r.bestCost += s.weight;
    }
    return r;
  }
  WalkSatEngine engine(formula, options);
  return engine.run();
}

}  // namespace msu
