#include "cnf/formula.h"

#include <algorithm>
#include <sstream>

namespace msu {

std::int64_t CnfFormula::numLiterals() const {
  std::int64_t n = 0;
  for (const Clause& c : clauses_) n += static_cast<std::int64_t>(c.size());
  return n;
}

std::int64_t CnfFormula::memBytesEstimate() const {
  std::int64_t bytes =
      static_cast<std::int64_t>(clauses_.capacity() * sizeof(Clause));
  for (const Clause& c : clauses_) {
    bytes += static_cast<std::int64_t>(c.capacity() * sizeof(Lit));
  }
  return bytes;
}

void CnfFormula::addClause(std::span<const Lit> lits) {
  addClause(Clause(lits.begin(), lits.end()));
}

void CnfFormula::addClause(Clause&& lits) {
  for (Lit p : lits) {
    assert(p.defined());
    ensureVars(p.var() + 1);
  }
  clauses_.push_back(std::move(lits));
}

bool CnfFormula::clauseSatisfied(int i, const Assignment& a) const {
  for (Lit p : clauses_[i]) {
    if (applySign(a[p.var()], p) == lbool::True) return true;
  }
  return false;
}

int CnfFormula::numSatisfied(const Assignment& a) const {
  int n = 0;
  for (int i = 0; i < numClauses(); ++i) {
    if (clauseSatisfied(i, a)) ++n;
  }
  return n;
}

CnfFormula CnfFormula::normalized() const {
  CnfFormula out(num_vars_);
  ClauseIdTable seen;
  const auto litsOf = [&](ClauseIdTable::Id i) -> const Clause& {
    return out.clauses_[i];
  };
  Clause scratch;
  for (const Clause& c : clauses_) {
    scratch.assign(c.begin(), c.end());
    if (!normalizeClause(scratch)) continue;
    const auto id = static_cast<ClauseIdTable::Id>(out.clauses_.size());
    if (seen.insert(scratch, id, litsOf) == id) out.addClause(scratch);
  }
  return out;
}

std::string CnfFormula::summary() const {
  std::ostringstream os;
  os << "CNF(vars=" << num_vars_ << ", clauses=" << numClauses() << ")";
  return os.str();
}

bool normalizeClause(Clause& lits) {
  std::sort(lits.begin(), lits.end());
  // Sorted by code (2 * var + sign), so duplicates and a literal's
  // complement sit next to it.
  std::size_t j = 0;
  for (const Lit p : lits) {
    if (j > 0 && p == lits[j - 1]) continue;
    if (j > 0 && p == ~lits[j - 1]) return false;
    lits[j++] = p;
  }
  lits.resize(j);
  return true;
}

std::uint32_t ClauseIdTable::hashOf(std::span<const Lit> lits) {
  std::uint64_t h = lits.size();
  for (const Lit p : lits) {
    h = (h ^ static_cast<std::uint32_t>(p.index())) * 0x9e3779b97f4a7c15ULL;
  }
  // splitmix64's finalizer: the slot index takes the low bits.
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::uint32_t>(h ^ (h >> 31));
}

void ClauseIdTable::grow() {
  std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kNoId) continue;
    std::size_t i = s.hash & mask;
    while (slots_[i].id != kNoId) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

}  // namespace msu
