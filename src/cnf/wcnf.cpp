#include "cnf/wcnf.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace msu {

WcnfFormula WcnfFormula::allSoft(const CnfFormula& cnf) {
  WcnfFormula out(cnf.numVars());
  out.reserveSoft(static_cast<std::size_t>(cnf.numClauses()),
                  static_cast<std::size_t>(cnf.numLiterals()));
  for (const Clause& c : cnf.clauses()) out.addSoft(c, 1);
  return out;
}

Weight WcnfFormula::totalSoftWeight() const {
  return std::accumulate(weights_.begin(), weights_.end(), Weight{0});
}

// Both read `lits` before the push: it may be a clause of this formula,
// which the push can move.
void WcnfFormula::addHard(std::span<const Lit> lits) {
  coverVars(lits);
  hard_.push(lits);
}

void WcnfFormula::addSoft(std::span<const Lit> lits, Weight weight) {
  assert(weight > 0);
  coverVars(lits);
  soft_.push(lits);
  weights_.push_back(weight);
}

bool WcnfFormula::isUnweighted() const {
  return std::ranges::all_of(weights_, [](Weight w) { return w == 1; });
}

std::optional<WcnfFormula> WcnfFormula::unweighted(
    std::int64_t maxClauses) const {
  const std::int64_t total = totalSoftWeight();
  if (total > maxClauses) return std::nullopt;
  std::size_t softLits = 0;
  for (const SoftClause& s : soft()) {
    softLits += s.lits.size() * static_cast<std::size_t>(s.weight);
  }
  WcnfFormula out(num_vars_);
  out.hard_ = hard_;
  out.reserveSoft(static_cast<std::size_t>(total), softLits);
  for (const SoftClause& s : soft()) {
    for (Weight k = 0; k < s.weight; ++k) out.addSoft(s.lits, 1);
  }
  return out;
}

namespace {

bool clauseSat(std::span<const Lit> c, const Assignment& a) {
  for (Lit p : c) {
    if (applySign(a[p.var()], p) == lbool::True) return true;
  }
  return false;
}

}  // namespace

std::optional<Weight> WcnfFormula::cost(const Assignment& a) const {
  for (std::span<const Lit> h : hard_) {
    if (!clauseSat(h, a)) return std::nullopt;
  }
  Weight w = 0;
  for (const SoftClause& s : soft()) {
    if (!clauseSat(s.lits, a)) w += s.weight;
  }
  return w;
}

std::optional<int> WcnfFormula::numSoftSatisfied(const Assignment& a) const {
  for (std::span<const Lit> h : hard_) {
    if (!clauseSat(h, a)) return std::nullopt;
  }
  int n = 0;
  for (std::span<const Lit> s : soft_) {
    if (clauseSat(s, a)) ++n;
  }
  return n;
}

std::int64_t WcnfFormula::memBytesEstimate() const {
  return hard_.memBytes() + soft_.memBytes() +
         static_cast<std::int64_t>(weights_.capacity() * sizeof(Weight));
}

std::string WcnfFormula::summary() const {
  std::ostringstream os;
  os << "WCNF(vars=" << num_vars_ << ", hard=" << numHard()
     << ", soft=" << numSoft() << ")";
  return os.str();
}

}  // namespace msu
