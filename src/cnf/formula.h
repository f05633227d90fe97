/// \file formula.h
/// \brief Plain CNF formulas: a clause container plus light structural
///        utilities (normalization, deduplication, evaluation,
///        statistics).

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cnf/literal.h"

namespace msu {

/// A clause is an ordered list of literals. Empty clauses are permitted
/// (they denote falsum) so parsers and transformations can represent
/// degenerate inputs faithfully.
using Clause = std::vector<Lit>;

/// A complete truth assignment: `assignment[v]` is the value of variable v.
using Assignment = std::vector<lbool>;

/// A CNF formula over variables `0 .. numVars()-1`.
///
/// Invariant: every literal in every clause refers to a variable strictly
/// below `numVars()`. `addClause` grows the variable count on demand, so
/// the invariant always holds.
class CnfFormula {
 public:
  CnfFormula() = default;

  /// Creates a formula with `numVars` variables and no clauses.
  explicit CnfFormula(int numVars) : num_vars_(numVars) {}

  /// Number of variables (0-based ids `0 .. numVars()-1`).
  [[nodiscard]] int numVars() const { return num_vars_; }

  /// Number of clauses.
  [[nodiscard]] int numClauses() const {
    return static_cast<int>(clauses_.size());
  }

  /// Total number of literal occurrences.
  [[nodiscard]] std::int64_t numLiterals() const;

  /// Reserves a fresh variable and returns its id.
  Var newVar() { return num_vars_++; }

  /// Ensures at least `n` variables exist.
  void ensureVars(int n) {
    if (n > num_vars_) num_vars_ = n;
  }

  /// Capacity hint for bulk construction (parser front ends); clamps
  /// negatives to zero and never shrinks.
  void reserveClauses(std::int64_t n) {
    if (n > static_cast<std::int64_t>(clauses_.capacity())) {
      clauses_.reserve(static_cast<std::size_t>(n));
    }
  }

  /// Heap bytes held by the clause storage (capacities, not sizes) —
  /// the formula's contribution to an end-to-end memory budget.
  [[nodiscard]] std::int64_t memBytesEstimate() const;

  /// Appends a clause (copying); grows the variable universe as needed.
  void addClause(std::span<const Lit> lits);

  /// Appends a clause (moving); grows the variable universe as needed.
  void addClause(Clause&& lits);

  /// Initializer-list convenience for tests and examples.
  void addClause(std::initializer_list<Lit> lits) {
    addClause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// The clause at index `i`.
  [[nodiscard]] const Clause& clause(int i) const { return clauses_[i]; }

  /// All clauses.
  [[nodiscard]] const std::vector<Clause>& clauses() const { return clauses_; }

  /// True iff the assignment satisfies clause `i`.
  [[nodiscard]] bool clauseSatisfied(int i, const Assignment& a) const;

  /// Number of clauses satisfied by a complete assignment.
  [[nodiscard]] int numSatisfied(const Assignment& a) const;

  /// True iff the assignment satisfies every clause.
  [[nodiscard]] bool satisfies(const Assignment& a) const {
    return numSatisfied(a) == numClauses();
  }

  /// Returns a copy with tautological clauses removed, duplicate literals
  /// collapsed, literals sorted, and duplicate clauses removed. Clause
  /// order of first occurrence is preserved.
  [[nodiscard]] CnfFormula normalized() const;

  /// One-line summary, e.g. "CNF(vars=10, clauses=42)".
  [[nodiscard]] std::string summary() const;

 private:
  int num_vars_ = 0;
  std::vector<Clause> clauses_;
};

/// Sorts `lits` in place and collapses duplicate literals. Returns false
/// when the clause is a tautology (holds a literal and its complement);
/// `lits` is then left in an unspecified order.
[[nodiscard]] bool normalizeClause(Clause& lits);

/// Open-addressed set of clause ids, for deduplicating normalized
/// clauses without a second copy of their literals. A slot holds an id
/// and its clause's hash; the literals stay with the caller, and a hash
/// match is confirmed against `litsOf(id)`, a callable returning the
/// literals stored under `id` (any range of Lit).
class ClauseIdTable {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNoId = ~Id{0};

  /// The id stored for a clause equal to `lits` if there is one;
  /// otherwise stores `id` for `lits` and returns `id`.
  template <class LitsOf>
  Id insert(std::span<const Lit> lits, Id id, const LitsOf& litsOf) {
    assert(id != kNoId);
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::uint32_t hash = hashOf(lits);
    Slot& slot = slots_[slotOf(lits, hash, litsOf)];
    if (slot.id != kNoId) return slot.id;
    slot = Slot{hash, id};
    ++size_;
    return id;
  }

  /// Sizes the slot array for `n` ids, so that many inserts never grow
  /// it. Ids and insert() results are the same as without it.
  void reserve(std::size_t n);

  /// Number of stored ids.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Number of slots (a power of two, at least twice size()).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    std::uint32_t hash = 0;
    Id id = kNoId;
  };

  /// Hash of a literal sequence (order-sensitive; keys are normalized).
  [[nodiscard]] static std::uint32_t hashOf(std::span<const Lit> lits);

  /// Index of the slot holding `lits`, or of the empty slot ending its
  /// probe sequence.
  template <class LitsOf>
  [[nodiscard]] std::size_t slotOf(std::span<const Lit> lits,
                                   std::uint32_t hash,
                                   const LitsOf& litsOf) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.id == kNoId) return i;
      if (s.hash == hash && std::ranges::equal(litsOf(s.id), lits)) return i;
    }
  }

  /// Doubles the slot array.
  void grow() { rehash(std::max<std::size_t>(16, 2 * slots_.size())); }

  /// Moves to `slots` slots (a power of two) and re-places every id by
  /// its stored hash.
  void rehash(std::size_t slots);

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace msu
