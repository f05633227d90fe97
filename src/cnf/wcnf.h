/// \file wcnf.h
/// \brief (Partial) MaxSAT formulas: hard clauses plus weighted soft
///        clauses. The DATE'08 paper evaluates plain (all-soft, unit
///        weight) MaxSAT; the engines in this library accept hard clauses
///        too, and weights are supported via documented duplication.

#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cnf/clause_store.h"
#include "cnf/formula.h"
#include "cnf/literal.h"

namespace msu {

/// Weight of a soft clause. Hard clauses are represented separately, not
/// with a "top" weight.
using Weight = std::int64_t;

/// A soft clause as WcnfFormula::soft() yields it: a view of its
/// literals plus its positive weight.
struct SoftClause {
  std::span<const Lit> lits;
  Weight weight = 1;
};

/// The soft clauses of a WcnfFormula: a random-access range of
/// SoftClause over the formula's literal store and weight array.
class SoftClauses {
 public:
  using const_iterator = IndexIterator<SoftClauses>;

  SoftClauses(const ClauseStore& clauses, const std::vector<Weight>& weights)
      : clauses_(&clauses), weights_(&weights) {}

  [[nodiscard]] std::size_t size() const { return clauses_->size(); }
  [[nodiscard]] bool empty() const { return clauses_->empty(); }
  [[nodiscard]] SoftClause operator[](std::size_t i) const {
    return {(*clauses_)[i], (*weights_)[i]};
  }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

  /// The literal store and the parallel weight array.
  [[nodiscard]] const ClauseStore& clauses() const { return *clauses_; }
  [[nodiscard]] const std::vector<Weight>& weights() const {
    return *weights_;
  }

 private:
  const ClauseStore* clauses_;
  const std::vector<Weight>* weights_;
};

/// A (partial, weighted) MaxSAT instance.
///
/// Semantics: find an assignment satisfying every hard clause that
/// minimizes the total weight of falsified soft clauses ("cost").
/// A plain MaxSAT instance has no hard clauses and unit weights.
///
/// Storage contract: the hard and the soft clauses each live in one
/// ClauseStore (one literal pool plus an offsets array), the soft
/// weights in one parallel array; no clause owns a heap block. hard()
/// yields `std::span<const Lit>` and soft() yields SoftClause views. A
/// span stays valid until the next addHard (for hard spans) or addSoft
/// (for soft spans) on the same formula, and while the formula lives;
/// moving the formula keeps them valid.
class WcnfFormula {
 public:
  WcnfFormula() = default;

  /// Creates an instance with `numVars` variables.
  explicit WcnfFormula(int numVars) : num_vars_(numVars) {}

  /// Lifts a plain CNF formula into a plain MaxSAT instance (all clauses
  /// soft with weight 1) — the setting of the DATE'08 evaluation.
  [[nodiscard]] static WcnfFormula allSoft(const CnfFormula& cnf);

  [[nodiscard]] int numVars() const { return num_vars_; }
  [[nodiscard]] int numHard() const { return static_cast<int>(hard_.size()); }
  [[nodiscard]] int numSoft() const { return static_cast<int>(soft_.size()); }

  /// Sum of all soft weights (the worst possible cost).
  [[nodiscard]] Weight totalSoftWeight() const;

  /// Reserves a fresh variable and returns its id.
  Var newVar() { return num_vars_++; }

  /// Ensures at least `n` variables exist.
  void ensureVars(int n) {
    if (n > num_vars_) num_vars_ = n;
  }

  /// Capacity hints for bulk construction: clause counts and literal
  /// totals of each kind. Never shrinks.
  void reserveHard(std::size_t clauses, std::size_t literals) {
    hard_.reserve(clauses, literals);
  }
  void reserveSoft(std::size_t clauses, std::size_t literals) {
    soft_.reserve(clauses, literals);
    weights_.reserve(clauses);
  }

  /// Trims every array's capacity to its size (after bulk building).
  void shrinkToFit() {
    hard_.shrinkToFit();
    soft_.shrinkToFit();
    weights_.shrink_to_fit();
  }

  /// Appends a hard clause.
  void addHard(std::span<const Lit> lits);
  void addHard(std::initializer_list<Lit> lits) {
    addHard(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Appends a soft clause with the given (positive) weight.
  void addSoft(std::span<const Lit> lits, Weight weight = 1);
  void addSoft(std::initializer_list<Lit> lits, Weight weight = 1) {
    addSoft(std::span<const Lit>(lits.begin(), lits.size()), weight);
  }

  /// Appends a hard (soft) clause whose literals `fill` pushes straight
  /// into the literal pool, a `std::vector<Lit>&` (see
  /// ClauseStore::append); the parsers lex into it. Grows the variable
  /// universe as addHard/addSoft do.
  template <class Fill>
  void appendHard(Fill&& fill) {
    hard_.append(std::forward<Fill>(fill));
    coverVars(hard_[hard_.size() - 1]);
  }
  template <class Fill>
  void appendSoft(Weight weight, Fill&& fill) {
    assert(weight > 0);
    soft_.append(std::forward<Fill>(fill));
    weights_.push_back(weight);
    coverVars(soft_[soft_.size() - 1]);
  }

  /// Adds `extra` to the weight of soft clause `i` (merging a duplicate
  /// into its first occurrence).
  void addSoftWeight(int i, Weight extra) {
    assert(extra > 0);
    weights_[static_cast<std::size_t>(i)] += extra;
  }

  /// The hard clauses: a random-access range of `std::span<const Lit>`.
  [[nodiscard]] const ClauseStore& hard() const { return hard_; }

  /// The soft clauses: a random-access range of SoftClause.
  [[nodiscard]] SoftClauses soft() const { return {soft_, weights_}; }

  /// True iff every weight is 1.
  [[nodiscard]] bool isUnweighted() const;

  /// True iff there are no hard clauses (plain MaxSAT).
  [[nodiscard]] bool isPlain() const { return hard_.empty(); }

  /// Returns an equivalent unit-weight instance obtained by duplicating
  /// each soft clause `weight` times, or `nullopt` if the total number of
  /// duplicated clauses would exceed `maxClauses`. Cost values carry over
  /// unchanged. Always a copy; engines go through UnitWeightForm
  /// (core/maxsat.h), which copies only when some weight exceeds 1.
  [[nodiscard]] std::optional<WcnfFormula> unweighted(
      std::int64_t maxClauses = 1'000'000) const;

  /// Cost (total weight of falsified soft clauses) of a complete
  /// assignment, or `nullopt` if it violates a hard clause.
  [[nodiscard]] std::optional<Weight> cost(const Assignment& a) const;

  /// Paper-style objective: number of satisfied soft clauses under `a`
  /// (only meaningful for unweighted instances), or nullopt if a hard
  /// clause is violated.
  [[nodiscard]] std::optional<int> numSoftSatisfied(const Assignment& a) const;

  /// Heap bytes held by the clause storage: the capacities of the two
  /// literal pools, the two offset arrays and the weight array — the
  /// formula's contribution to an end-to-end memory budget (see
  /// Solver::Options::external_mem_bytes).
  [[nodiscard]] std::int64_t memBytesEstimate() const;

  /// One-line summary.
  [[nodiscard]] std::string summary() const;

 private:
  /// Grows the variable universe to cover `lits`.
  void coverVars(std::span<const Lit> lits) {
    for (const Lit p : lits) {
      assert(p.defined());
      ensureVars(p.var() + 1);
    }
  }

  int num_vars_ = 0;
  ClauseStore hard_;
  ClauseStore soft_;
  std::vector<Weight> weights_;  // parallel to soft_
};

}  // namespace msu
