#include "core/soft_tracker.h"

#include <algorithm>
#include <cassert>

namespace msu {

SoftTracker::SoftTracker(Solver& solver, const WcnfFormula& formula) {
  assert(formula.isUnweighted());
  num_original_vars_ = formula.numVars();
  const int numSoft = formula.numSoft();
  // Selectors take the variables right after the original ones; the
  // originals and the selectors are created in one step. A recycled
  // variable adds no slot, hence the loop: every selector is fresh.
  const int firstSelector = std::max(solver.numVars(), num_original_vars_);
  while (solver.numVars() < firstSelector + numSoft) {
    solver.newVars(firstSelector + numSoft - solver.numVars());
  }
  for (const std::span<const Lit> h : formula.hard()) {
    static_cast<void>(solver.addClause(h));
  }
  selectors_.reserve(static_cast<std::size_t>(numSoft));
  relaxed_.assign(static_cast<std::size_t>(numSoft), 0);
  var_to_soft_.assign(static_cast<std::size_t>(firstSelector + numSoft), -1);
  Clause augmented;  // one buffer for every selector-augmented clause
  for (int i = 0; i < numSoft; ++i) {
    const Var a = firstSelector + i;
    // The protocol depends on the selector's textual presence in its
    // soft clause (assuming ~a enforces it, cores name it): freeze it
    // so inprocessing never strengthens the selector away.
    solver.setFrozen(a, true);
    var_to_soft_[static_cast<std::size_t>(a)] = i;
    selectors_.push_back(posLit(a));
    const std::span<const Lit> lits =
        formula.soft()[static_cast<std::size_t>(i)].lits;
    augmented.assign(lits.begin(), lits.end());
    augmented.push_back(posLit(a));
    static_cast<void>(solver.addClause(augmented));
  }
  assumptions_.reserve(selectors_.size());
  for (const Lit a : selectors_) assumptions_.push_back(~a);
}

std::optional<int> SoftTracker::softOfVar(Var v) const {
  if (v < 0 || static_cast<std::size_t>(v) >= var_to_soft_.size()) {
    return std::nullopt;
  }
  const int idx = var_to_soft_[static_cast<std::size_t>(v)];
  if (idx < 0) return std::nullopt;
  return idx;
}

const std::vector<Lit>& SoftTracker::assumptions() {
  if (stale_from_ == kUndefVar) return assumptions_;
  // Everything before the least newly relaxed selector stays; one pass
  // drops the relaxed ones from there on.
  const auto from = std::ranges::lower_bound(
      assumptions_, stale_from_, {}, [](Lit p) { return p.var(); });
  const auto tail = std::ranges::remove_if(
      from, assumptions_.end(), [&](Lit p) {
        return isRelaxed(var_to_soft_[static_cast<std::size_t>(p.var())]);
      });
  assumptions_.erase(tail.begin(), tail.end());
  stale_from_ = kUndefVar;
  return assumptions_;
}

std::vector<Lit> SoftTracker::blockingLits() const {
  std::vector<Lit> out;
  out.reserve(relax_order_.size());
  for (int i : relax_order_) {
    out.push_back(selectors_[static_cast<std::size_t>(i)]);
  }
  return out;
}

std::vector<int> SoftTracker::coreSoftIndices(std::span<const Lit> core) const {
  std::vector<int> out;
  for (Lit p : core) {
    if (std::optional<int> idx = softOfVar(p.var())) out.push_back(*idx);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int SoftTracker::relaxedFalsifiedCost(const WcnfFormula& formula,
                                      const std::vector<lbool>& model) const {
  int cost = 0;
  for (const int i : relax_order_) {
    const std::span<const Lit> c =
        formula.soft()[static_cast<std::size_t>(i)].lits;
    bool sat = false;
    for (Lit p : c) {
      if (applySign(model[static_cast<std::size_t>(p.var())], p) ==
          lbool::True) {
        sat = true;
        break;
      }
    }
    if (!sat) ++cost;
  }
  return cost;
}

int SoftTracker::blockingAssignedTrue(const std::vector<lbool>& model) const {
  int n = 0;
  for (const int i : relax_order_) {
    const Lit a = selectors_[static_cast<std::size_t>(i)];
    if (applySign(model[static_cast<std::size_t>(a.var())], a) == lbool::True) {
      ++n;
    }
  }
  return n;
}

Assignment SoftTracker::originalModel(const std::vector<lbool>& model) const {
  Assignment out(static_cast<std::size_t>(num_original_vars_));
  for (int v = 0; v < num_original_vars_; ++v) {
    const lbool val = model[static_cast<std::size_t>(v)];
    // Complete the model deterministically: unconstrained variables get
    // `false` so downstream cost evaluation sees a total assignment.
    out[static_cast<std::size_t>(v)] =
        (val == lbool::Undef) ? lbool::False : val;
  }
  return out;
}

}  // namespace msu
