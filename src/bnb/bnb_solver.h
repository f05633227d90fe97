/// \file bnb_solver.h
/// \brief Branch-and-bound MaxSAT in the style of maxsatz (Li, Manyà &
///        Planes) — the best-performing MaxSAT-evaluation solver the
///        DATE'08 paper compares against.
///
/// A DPLL-style search that maintains the number of already-falsified
/// soft clauses and prunes with a lower bound computed by *simulated
/// unit propagation*: repeatedly propagate effective unit clauses of the
/// reduced formula; every derived conflict identifies an inconsistent
/// clause subset that is then disabled, and the count of disjoint
/// subsets underestimates the additional cost (Li–Manyà–Planes, AAAI'06;
/// this subsumes maxsatz's complementary-unit rule for counting). Hard
/// unit clauses are propagated as forced assignments; Jeroslow–Wang
/// scoring drives branching; WalkSAT provides the initial upper bound.
///
/// Exactly as the paper reports for maxsatz, this class of solver is
/// strong on small random instances and collapses on large structured
/// (EDA) instances — reproducing that asymmetry is the point of
/// Table 1 / Figure 1.

#pragma once

#include "core/maxsat.h"

namespace msu {

/// Options for the branch-and-bound engine.
struct BnbOptions {
  /// Wall, node and memory limits. The memory cap covers the engine's
  /// clause copy and occurrence lists plus `external_mem_bytes`; it is
  /// checked before the search and with the clock every 256 nodes.
  Budget budget;

  /// Bytes the caller charges to this run on top of the engine's own
  /// (formula storage, a weight-duplication copy).
  std::int64_t external_mem_bytes = 0;
};

/// The maxsatz-like engine.
class BnbSolver final : public MaxSatSolver {
 public:
  explicit BnbSolver(BnbOptions options = {});

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] MaxSatResult solve(const WcnfFormula& formula) override;

 private:
  BnbOptions opts_;
};

}  // namespace msu
