/// \file soft_tracker.h
/// \brief Loads a WCNF instance into a CDCL solver with one selector
///        literal per soft clause and maps unsatisfiable cores back to
///        soft-clause indices.
///
/// Soft clause `C_i` is stored as `(C_i ∨ a_i)` for a fresh selector
/// variable `a_i`. Assuming `¬a_i` enforces the clause; a final-conflict
/// core is therefore a set of soft indices. When a core-guided algorithm
/// decides to *relax* a clause, it simply stops assuming `¬a_i` — the
/// selector doubles as the paper's blocking variable `b_i`, which yields
/// msu4's "at most one blocking variable per clause" invariant by
/// construction.

#pragma once

#include <optional>
#include <span>
#include <vector>

#include "cnf/wcnf.h"
#include "sat/solver.h"

namespace msu {

/// Selector bookkeeping for soft clauses inside a Solver.
class SoftTracker {
 public:
  /// Adds all hard clauses and selector-augmented soft clauses of
  /// `formula` to `solver`. The formula must be unweighted.
  SoftTracker(Solver& solver, const WcnfFormula& formula);

  /// Number of soft clauses tracked.
  [[nodiscard]] int numSoft() const {
    return static_cast<int>(selectors_.size());
  }

  /// Number of original problem variables (model prefix length).
  [[nodiscard]] int numOriginalVars() const { return num_original_vars_; }

  /// Selector literal `a_i` of soft clause `i` (true = clause blocked).
  [[nodiscard]] Lit selector(int i) const {
    return selectors_[static_cast<std::size_t>(i)];
  }

  /// Soft index owning selector variable `v`, if any.
  [[nodiscard]] std::optional<int> softOfVar(Var v) const;

  /// Marks soft clause `i` as relaxed (its selector becomes a free
  /// blocking variable). Idempotent.
  void relax(int i) {
    if (relaxed_[static_cast<std::size_t>(i)] == 0) {
      relaxed_[static_cast<std::size_t>(i)] = 1;
      relax_order_.push_back(i);
      ++num_relaxed_;
      const Var a = selectors_[static_cast<std::size_t>(i)].var();
      if (stale_from_ == kUndefVar || a < stale_from_) stale_from_ = a;
    }
  }

  /// True iff soft clause `i` has been relaxed.
  [[nodiscard]] bool isRelaxed(int i) const {
    return relaxed_[static_cast<std::size_t>(i)] != 0;
  }

  /// Number of relaxed clauses.
  [[nodiscard]] int numRelaxed() const { return num_relaxed_; }

  /// Assumption vector enforcing every non-relaxed soft clause, in
  /// *canonical* order: ascending selector variable (construction
  /// creates the selectors in that order). The order is part of the
  /// tracker's contract — consecutive oracle calls differ only where
  /// clauses were relaxed in between, so a warm-started solver
  /// (Solver::Options::reuse_trail) reuses the maximal trail prefix;
  /// see the prefix-stability contract in core/oracle_session.h.
  ///
  /// The tracker keeps this vector. The clauses relaxed since the last
  /// call leave it in one compaction from the first of them, so a call
  /// costs the changed suffix, not the number of softs. The reference
  /// stays valid until the next call.
  [[nodiscard]] const std::vector<Lit>& assumptions();

  /// Selector literals of all relaxed clauses (the blocking variables),
  /// in *relaxation order* — strictly append-only as relaxation grows,
  /// which is what lets incremental cardinality structures (totalizers)
  /// extend by suffix instead of re-encoding.
  [[nodiscard]] std::vector<Lit> blockingLits() const;

  /// Maps a failed-assumption core to soft-clause indices (sorted).
  [[nodiscard]] std::vector<int> coreSoftIndices(
      std::span<const Lit> core) const;

  /// Number of *relaxed* soft clauses whose original literals are
  /// falsified by `model` (the tightened "nu" of a SAT iteration: blocked
  /// clauses that genuinely need their blocking variable).
  [[nodiscard]] int relaxedFalsifiedCost(
      const WcnfFormula& formula, const std::vector<lbool>& model) const;

  /// Number of blocking variables assigned true in `model` (the paper's
  /// raw "nu").
  [[nodiscard]] int blockingAssignedTrue(const std::vector<lbool>& model) const;

  /// Extracts the model restricted to the original variables.
  [[nodiscard]] Assignment originalModel(const std::vector<lbool>& model) const;

 private:
  int num_original_vars_ = 0;
  int num_relaxed_ = 0;
  std::vector<Lit> selectors_;    // a_i per soft clause
  std::vector<char> relaxed_;     // 1 = blocking variable freed
  std::vector<int> relax_order_;  // soft indices in relaxation order
  std::vector<int> var_to_soft_;  // var -> soft index (-1 if none)
  std::vector<Lit> assumptions_;  // ~a_i of the unrelaxed, by variable
  Var stale_from_ = kUndefVar;    // least selector relaxed since then
};

}  // namespace msu
