/// Tests for SatELite-style hard-clause simplification (simplifyHard:
/// the solver's inprocessing passes run eagerly, then the irredundant
/// clauses and the witness stack are extracted):
///  * equisatisfiability on random formulas (oracle-checked both ways);
///  * model extension yields genuine models of the original;
///  * frozen (soft-clause) variables survive and keep their meaning;
///  * an x ↔ y equivalence survives and extends to x == y;
///  * MaxSAT optimum preservation and weighted model extension;
///  * unsat detection and degenerate inputs.
/// The individual passes are tested on the solver itself in
/// inprocess_test and elimination_test.

#include <gtest/gtest.h>

#include <random>

#include "cnf/oracle.h"
#include "core/preprocess.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "sat/solver.h"

namespace msu {
namespace {

/// A plain CNF as the hard part of a WCNF with no soft clauses.
WcnfFormula asHard(const CnfFormula& cnf) {
  WcnfFormula w(cnf.numVars());
  for (const Clause& c : cnf.clauses()) w.addHard(c);
  return w;
}

/// Solves the hard clauses with CDCL; formulas here are small.
lbool solveHard(const WcnfFormula& w, Assignment* model = nullptr) {
  Solver solver;
  for (Var v = 0; v < w.numVars(); ++v) static_cast<void>(solver.newVar());
  for (const std::span<const Lit> c : w.hard()) {
    if (!solver.addClause(c)) return lbool::False;
  }
  const lbool st = solver.solve();
  if (st == lbool::True && model != nullptr) {
    model->assign(solver.model().begin(),
                  solver.model().begin() + w.numVars());
  }
  return st;
}

/// True iff `v` occurs in some hard clause of `w`.
bool occursInHard(const WcnfFormula& w, Var v) {
  for (const std::span<const Lit> c : w.hard()) {
    for (const Lit p : c) {
      if (p.var() == v) return true;
    }
  }
  return false;
}

TEST(SimpTest, EquisatisfiableOnRandomFormulas) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const CnfFormula f = randomKSat(
        {.numVars = 14, .numClauses = 55, .clauseLen = 3, .seed = seed});
    const SimplifyResult pre = simplifyHard(asHard(f));
    const bool origSat = oracleSat(f).has_value();
    if (!pre.simplified) {
      EXPECT_FALSE(origSat) << "seed " << seed;
      continue;
    }
    const lbool simplifiedSat = solveHard(*pre.simplified);
    ASSERT_NE(simplifiedSat, lbool::Undef);
    EXPECT_EQ(simplifiedSat == lbool::True, origSat) << "seed " << seed;
  }
}

TEST(SimpTest, ReconstructedModelsSatisfyTheOriginal) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const CnfFormula f = randomKSat(
        {.numVars = 16, .numClauses = 40, .clauseLen = 3, .seed = seed * 17});
    const SimplifyResult pre = simplifyHard(asHard(f));
    if (!pre.simplified) {
      EXPECT_FALSE(oracleSat(f).has_value()) << "seed " << seed;
      continue;
    }
    Assignment model;
    if (solveHard(*pre.simplified, &model) != lbool::True) continue;
    EXPECT_TRUE(f.satisfies(pre.extend(model))) << "seed " << seed;
  }
}

TEST(SimpTest, FrozenVariablesAreNeverEliminated) {
  // Variables 0 and 2 are frozen by occurring in soft clauses.
  WcnfFormula w(4);
  w.addHard({posLit(0), posLit(1)});
  w.addHard({negLit(0), posLit(2)});
  w.addHard({negLit(2), posLit(3)});
  w.addSoft({posLit(0)});
  w.addSoft({negLit(2)});
  const SimplifyResult pre = simplifyHard(w);
  ASSERT_TRUE(pre.simplified.has_value());
  Assignment model;
  ASSERT_EQ(solveHard(*pre.simplified, &model), lbool::True);
  EXPECT_TRUE(w.cost(pre.extend(model)).has_value());

  // 0 and 2 kept their meaning: pinning them in the simplified formula
  // behaves as in the original.
  WcnfFormula g2 = *pre.simplified;
  g2.addHard({posLit(0)});
  g2.addHard({posLit(2)});
  // x0 ∧ x2 is consistent with the hards (x1 free, x3 follows x2).
  EXPECT_EQ(solveHard(g2), lbool::True);
  WcnfFormula g3 = *pre.simplified;
  g3.addHard({posLit(0)});
  g3.addHard({negLit(2)});
  // x0 ∧ ¬x2 falsifies (¬x0 ∨ x2): must stay unsatisfiable.
  EXPECT_EQ(solveHard(g3), lbool::False);
}

TEST(SimpTest, EquivalenceSurvivesAndExtendsToEqualValues) {
  // x ↔ y through two binaries. Whatever the passes do with x and y —
  // keep both, or eliminate one — the simplified formula plus the
  // witness stack must still force x == y. A clause longer than BVE's
  // clause limit and two short clauses give both variables further
  // occurrences; the other literals are frozen by soft clauses.
  constexpr Var x = 0;
  constexpr Var y = 1;
  constexpr int kLong = 30;
  WcnfFormula w(2 + kLong);
  w.addHard({negLit(x), posLit(y)});
  w.addHard({posLit(x), negLit(y)});
  Clause wide{posLit(x), posLit(y)};
  for (Var s = 2; s < 2 + kLong; ++s) {
    wide.push_back(posLit(s));
    w.addSoft({negLit(s)});
  }
  w.addHard(wide);
  w.addHard({posLit(y), negLit(2), posLit(3)});
  w.addHard({negLit(x), negLit(2), negLit(4)});

  const SimplifyResult pre = simplifyHard(w);
  ASSERT_TRUE(pre.simplified.has_value());
  const bool xKept = occursInHard(*pre.simplified, x);
  const bool yKept = occursInHard(*pre.simplified, y);
  ASSERT_TRUE(xKept || yKept);
  if (xKept && yKept) {
    // Both kept: the simplified formula itself still refutes x != y.
    for (const bool xValue : {false, true}) {
      WcnfFormula split = *pre.simplified;
      split.addHard({mkLit(x, !xValue)});
      split.addHard({mkLit(y, xValue)});
      EXPECT_EQ(solveHard(split), lbool::False) << "x " << xValue;
    }
  }

  for (const Var pin : {x, y}) {
    if (!occursInHard(*pre.simplified, pin)) continue;
    for (const bool value : {false, true}) {
      WcnfFormula pinned = *pre.simplified;
      pinned.addHard({mkLit(pin, !value)});
      Assignment model;
      ASSERT_EQ(solveHard(pinned, &model), lbool::True);
      // The engine's value of a removed variable is meaningless; make
      // it wrong so the witness replay has to fix it.
      for (const Var v : {x, y}) {
        if (!occursInHard(*pre.simplified, v)) model[v] = toLbool(!value);
      }
      const Assignment full = pre.extend(model);
      EXPECT_EQ(full[x], full[y]) << "pin " << pin << " = " << value;
      EXPECT_EQ(full[pin], toLbool(value));
      EXPECT_TRUE(w.cost(full).has_value()) << "pin " << pin;
    }
  }
}

TEST(SimpTest, UnsatDetectedByPropagation) {
  CnfFormula f(2);
  f.addClause({posLit(0)});
  f.addClause({negLit(0), posLit(1)});
  f.addClause({negLit(1)});
  EXPECT_FALSE(simplifyHard(asHard(f)).simplified.has_value());
}

TEST(SimpTest, UnsatDetectedThroughElimination) {
  const SimplifyResult pre = simplifyHard(asHard(pigeonhole(3, 2)));
  // Whether or not preprocessing alone refutes it, the result must
  // still be unsatisfiable.
  if (pre.simplified) {
    EXPECT_EQ(solveHard(*pre.simplified), lbool::False);
  }
}

TEST(SimpTest, DegenerateInputs) {
  {
    const SimplifyResult pre = simplifyHard(WcnfFormula(0));
    ASSERT_TRUE(pre.simplified.has_value());
    EXPECT_EQ(pre.simplified->numHard(), 0);
  }
  {
    WcnfFormula w(1);
    w.addHard(std::initializer_list<Lit>{});
    EXPECT_FALSE(simplifyHard(w).simplified.has_value());
  }
  {
    // Tautologies disappear; the unit stays as a unit hard clause.
    WcnfFormula w(2);
    w.addHard({posLit(0), negLit(0)});
    w.addHard({posLit(1)});
    const SimplifyResult pre = simplifyHard(w);
    ASSERT_TRUE(pre.simplified.has_value());
    ASSERT_EQ(pre.simplified->numHard(), 1);
    EXPECT_EQ(pre.simplified->hard()[0], Clause{posLit(1)});
  }
}

TEST(SimpTest, IdempotentOnItsOwnOutput) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const CnfFormula f = randomKSat(
        {.numVars = 12, .numClauses = 40, .clauseLen = 3, .seed = seed * 3});
    const SimplifyResult first = simplifyHard(asHard(f));
    if (!first.simplified) continue;
    const SimplifyResult second = simplifyHard(*first.simplified);
    ASSERT_TRUE(second.simplified.has_value()) << "seed " << seed;
    // A second run may still shuffle clauses but must not grow.
    EXPECT_LE(second.simplified->numHard(), first.simplified->numHard())
        << "seed " << seed;
  }
}

TEST(SimpTest, SimplifyHardPreservesTheOptimum) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 10; ++round) {
    WcnfFormula w(10);
    for (int i = 0; i < 14; ++i) {
      Clause c;
      for (int k = 0; k < 3; ++k) {
        c.push_back(mkLit(static_cast<Var>(rng() % 10), (rng() & 1) != 0));
      }
      w.addHard(c);
    }
    for (int i = 0; i < 12; ++i) {
      Clause c;
      for (int k = 0; k < 2; ++k) {
        c.push_back(mkLit(static_cast<Var>(rng() % 10), (rng() & 1) != 0));
      }
      w.addSoft(c, 1 + static_cast<Weight>(rng() % 4));
    }
    const SimplifyResult pre = simplifyHard(w);
    const OracleResult a = oracleMaxSat(w);
    ASSERT_EQ(a.optimumCost.has_value(), pre.simplified.has_value())
        << "round " << round;
    if (!a.optimumCost) continue;
    const OracleResult b = oracleMaxSat(*pre.simplified);
    ASSERT_TRUE(b.optimumCost.has_value()) << "round " << round;
    EXPECT_EQ(*a.optimumCost, *b.optimumCost) << "round " << round;
    // And an engine on the simplified instance agrees.
    auto solver = makeSolver("oll");
    const MaxSatResult r = solver->solve(*pre.simplified);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum);
    EXPECT_EQ(r.cost, *a.optimumCost) << "round " << round;
  }
}

TEST(SimpTest, SimplifyHardWeightedModelReconstructionFuzz) {
  // Weighted instances: simplifyHard must freeze every variable that
  // occurs in a soft clause (their values ARE the objective), the
  // optimum must match the plain oracle, and extend() must complete an
  // engine's model of the simplified instance to a full assignment
  // that satisfies the original hard clauses at the same cost.
  std::mt19937_64 rng(20260731);
  int checked = 0;
  for (int round = 0; round < 12; ++round) {
    WcnfFormula w(10);
    for (int i = 0; i < 16; ++i) {
      Clause c;
      for (int k = 0; k < 3; ++k) {
        c.push_back(mkLit(static_cast<Var>(rng() % 10), (rng() & 1) != 0));
      }
      w.addHard(c);
    }
    for (int i = 0; i < 12; ++i) {
      Clause c;
      const int len = 1 + static_cast<int>(rng() % 2);
      for (int k = 0; k < len; ++k) {
        c.push_back(mkLit(static_cast<Var>(rng() % 10), (rng() & 1) != 0));
      }
      w.addSoft(c, 1 + static_cast<Weight>(rng() % 6));
    }

    const SimplifyResult pre = simplifyHard(w);
    const OracleResult truth = oracleMaxSat(w);
    if (!pre.simplified) {
      EXPECT_FALSE(truth.optimumCost.has_value()) << "round " << round;
      continue;
    }
    ASSERT_TRUE(truth.optimumCost.has_value()) << "round " << round;
    const WcnfFormula& simplified = *pre.simplified;

    // The soft clauses come through verbatim.
    ASSERT_EQ(simplified.soft().size(), w.soft().size());
    for (std::size_t i = 0; i < w.soft().size(); ++i) {
      EXPECT_EQ(simplified.soft()[i].lits, w.soft()[i].lits)
          << "round " << round << " soft " << i;
      EXPECT_EQ(simplified.soft()[i].weight, w.soft()[i].weight);
    }

    auto solver = makeSolver("oll");
    const MaxSatResult r = solver->solve(simplified);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "round " << round;
    EXPECT_EQ(r.cost, *truth.optimumCost) << "round " << round;

    // Extension: complete the engine model (hard-only variables may
    // have been removed) and evaluate it on the ORIGINAL instance.
    const Assignment full = pre.extend(r.model);
    const std::optional<Weight> fullCost = w.cost(full);
    ASSERT_TRUE(fullCost.has_value())  // all original hards satisfied
        << "round " << round;
    EXPECT_EQ(*fullCost, *truth.optimumCost) << "round " << round;

    // Frozen variables pass through extension unchanged.
    for (const SoftClause& sc : w.soft()) {
      for (const Lit p : sc.lits) {
        const auto v = static_cast<std::size_t>(p.var());
        if (v < r.model.size() && r.model[v] != lbool::Undef) {
          EXPECT_EQ(full[v], r.model[v]) << "round " << round;
        }
      }
    }
    ++checked;
  }
  EXPECT_GT(checked, 0);  // the fuzz must exercise the satisfiable path
}

TEST(SimpTest, LargeRandomRoundTripUnderCdcl) {
  // Bigger instances than the oracle can check: compare CDCL verdicts.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const CnfFormula f = randomKSat(
        {.numVars = 60, .numClauses = 240, .clauseLen = 3, .seed = seed * 7});
    const SimplifyResult pre = simplifyHard(asHard(f));
    const lbool orig = solveHard(asHard(f));
    Assignment model;
    const lbool simp =
        pre.simplified ? solveHard(*pre.simplified, &model) : lbool::False;
    ASSERT_NE(orig, lbool::Undef);
    EXPECT_EQ(orig, simp) << "seed " << seed;
    if (simp == lbool::True) {
      EXPECT_TRUE(f.satisfies(pre.extend(model))) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace msu
