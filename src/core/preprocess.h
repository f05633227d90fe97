/// \file preprocess.h
/// \brief Preprocessing of WCNF instances, in two flavours that both
///        keep the variable numbering:
///
///        preprocessWcnf applies only transformations sound for *both*
///        hard and soft clauses (classic SAT preprocessing like
///        pure-literal deletion is unsound on soft clauses):
///        * unit propagation over the hard clauses, applied to all
///          clauses (satisfied clauses drop, falsified softs pay their
///          weight up front, literals fixed false vanish);
///        * tautology removal (hard and soft);
///        * duplicate-soft merging (weights add up);
///        * duplicate-hard removal.
///        Fixed variables are reported for model completion. It is one
///        flat pass: each clause is reduced into a scratch buffer,
///        normalized in place (normalizeClause) and de-duplicated
///        through a ClauseIdTable keyed on the output clauses.
///
///        simplifyHard is SatELite (Eén & Biere, SAT 2005; shipped with
///        MiniSat 1.14, the paper's substrate) on the hard clauses only:
///        the solver's own inprocessing passes — strip → probe →
///        subsume (with self-subsuming strengthening) → eliminate
///        (bounded variable elimination) — run to a fixpoint with every
///        soft-clause variable frozen, and the solver's witness stack
///        completes models of the result.

#pragma once

#include <optional>
#include <vector>

#include "cnf/wcnf.h"
#include "core/maxsat.h"
#include "sat/reconstruct.h"

namespace msu {

/// Result of preprocessing.
struct PreprocessResult {
  /// The simplified instance (same variable numbering), or unset when
  /// the hard clauses were refuted by unit propagation alone.
  std::optional<WcnfFormula> simplified;

  /// Cost already incurred: total weight of soft clauses falsified by
  /// the hard-forced assignments. Add to any optimum of `simplified`.
  Weight forcedCost = 0;

  /// Hard-forced variable values (Undef where free). Apply on top of any
  /// model of `simplified` to obtain a model of the original instance.
  Assignment forced;

  /// Statistics.
  int fixedVars = 0;
  int removedHard = 0;
  int removedSoft = 0;
  int mergedSoft = 0;
};

/// Preprocesses the instance. Sound for partial weighted MaxSAT:
/// opt(original) == forcedCost + opt(simplified), and any model of the
/// simplified instance extended with `forced` is a model of the
/// original with that cost.
///
/// Output contract (pinned by Preprocess.MatchesTheMapBasedReference-
/// Exactly in extensions_test):
/// * every output clause has its literals sorted, without duplicates;
/// * hard and soft clauses come out in order of first occurrence of
///   their reduced form;
/// * a merged soft keeps its first occurrence's position and carries
///   the sum of the merged weights;
/// * `forced` is the root-level unit-propagation fixpoint of the hard
///   clauses, which does not depend on clause order.
[[nodiscard]] PreprocessResult preprocessWcnf(const WcnfFormula& formula);

/// Lifts an engine result on `pre.simplified` to the original instance:
/// adds `pre.forcedCost` to the cost and to both bounds and, on
/// Optimum, splices the hard-forced values into the model.
void liftResult(const PreprocessResult& pre, MaxSatResult& result);

/// Result of simplifyHard.
struct SimplifyResult {
  /// The simplified instance (same variable numbering, soft clauses
  /// verbatim, root units as unit hard clauses), or unset when the
  /// hard clauses were refuted.
  std::optional<WcnfFormula> simplified;

  /// Witness entries of every variable the passes removed.
  WitnessStack witness;

  /// Extends a model of `simplified` to a model of the original hard
  /// clauses at the same cost: unassigned variables become false, then
  /// the witness stack assigns the removed ones.
  [[nodiscard]] Assignment extend(Assignment model) const;
};

/// SatELite-style simplification of the hard clauses. Soft-clause
/// variables are frozen, so opt(original) == opt(simplified), and
/// extend() turns an optimal model of the simplified instance into an
/// optimal model of the original.
[[nodiscard]] SimplifyResult simplifyHard(const WcnfFormula& formula);

}  // namespace msu
