/// Tests for the branch-and-bound (maxsatz-like) engine and the WalkSAT
/// local search: oracle agreement, bound validity, budget behaviour and
/// the incompleteness contract of local search.

#include <gtest/gtest.h>

#include "bnb/bnb_solver.h"
#include "cnf/oracle.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "localsearch/walksat.h"

namespace msu {
namespace {

WcnfFormula randomPlain(int n, int m, std::uint64_t seed) {
  return WcnfFormula::allSoft(
      randomKSat({.numVars = n, .numClauses = m, .clauseLen = 3,
                  .seed = seed}));
}

TEST(Bnb, AgreesWithOracleOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const WcnfFormula w = randomPlain(9, 42, seed * 367);
    const OracleResult truth = oracleMaxSat(w);
    BnbSolver solver;
    const MaxSatResult r = solver.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "seed " << seed;
    EXPECT_EQ(r.cost, *truth.optimumCost) << "seed " << seed;
    const auto modelCost = w.cost(r.model);
    ASSERT_TRUE(modelCost.has_value());
    EXPECT_EQ(*modelCost, r.cost);
  }
}

TEST(Bnb, PartialMaxSatWithHardClauses) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    // Build a partial instance with a satisfiable hard part.
    const CnfFormula f = randomKSat(
        {.numVars = 8, .numClauses = 30, .clauseLen = 3, .seed = seed * 89});
    WcnfFormula w(f.numVars());
    CnfFormula hardPart(f.numVars());
    for (int i = 0; i < f.numClauses(); ++i) {
      if (i < 5) {
        hardPart.addClause(f.clause(i));
        if (oracleSat(hardPart)) {
          w.addHard(f.clause(i));
          continue;
        }
      }
      w.addSoft(f.clause(i), 1);
    }
    const OracleResult truth = oracleMaxSat(w);
    ASSERT_TRUE(truth.optimumCost.has_value());
    BnbSolver solver;
    const MaxSatResult r = solver.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum);
    EXPECT_EQ(r.cost, *truth.optimumCost) << "seed " << seed;
  }
}

TEST(Bnb, HardUnsatDetected) {
  WcnfFormula w(1);
  w.addHard({posLit(0)});
  w.addHard({negLit(0)});
  w.addSoft({posLit(0)}, 1);
  BnbSolver solver;
  EXPECT_EQ(solver.solve(w).status, MaxSatStatus::UnsatisfiableHard);
}

TEST(Bnb, NodeBudgetAborts) {
  BnbOptions o;
  o.budget.setMaxNodes(50);
  BnbSolver solver(o);
  const WcnfFormula w = WcnfFormula::allSoft(pigeonhole(8, 7));
  const MaxSatResult r = solver.solve(w);
  EXPECT_EQ(r.status, MaxSatStatus::Unknown);
  EXPECT_LE(r.lowerBound, r.upperBound);
  EXPECT_LE(r.iterations, 50);
}

TEST(Bnb, UpLowerBoundNeverOverestimates) {
  // With a fresh (large) upper bound, the UP-based lower bound must not
  // exceed the true optimum — otherwise optima would be pruned away.
  for (std::uint64_t seed = 100; seed <= 110; ++seed) {
    const WcnfFormula w = randomPlain(8, 44, seed);
    const OracleResult truth = oracleMaxSat(w);
    BnbSolver solver;
    const MaxSatResult r = solver.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum);
    EXPECT_EQ(r.cost, *truth.optimumCost)
        << "seed " << seed << " (lower bound unsound?)";
  }
}

TEST(WalkSat, FindsSatisfyingAssignmentWhenEasy) {
  // A satisfiable, under-constrained instance: local search should reach
  // cost 0 almost surely.
  const CnfFormula f = randomKSat(
      {.numVars = 30, .numClauses = 60, .clauseLen = 3, .seed = 5});
  const WalkSatResult r = walksatMaxSat(WcnfFormula::allSoft(f));
  ASSERT_TRUE(r.hardFeasible);
  EXPECT_EQ(r.bestCost, 0);
  EXPECT_TRUE(f.satisfies(r.model));
}

TEST(WalkSat, CostIsUpperBoundOnOptimum) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const WcnfFormula w = randomPlain(9, 45, seed * 47);
    const OracleResult truth = oracleMaxSat(w);
    const WalkSatResult r = walksatMaxSat(w);
    ASSERT_TRUE(r.hardFeasible);
    EXPECT_GE(r.bestCost, *truth.optimumCost) << "seed " << seed;
    const auto modelCost = w.cost(r.model);
    ASSERT_TRUE(modelCost.has_value());
    EXPECT_EQ(*modelCost, r.bestCost) << "seed " << seed;
  }
}

TEST(WalkSat, RespectsHardClauses) {
  WcnfFormula w(3);
  w.addHard({posLit(0)});
  w.addHard({negLit(0), posLit(1)});
  w.addSoft({negLit(1)}, 1);  // conflicts with the hards
  w.addSoft({posLit(2)}, 1);
  const WalkSatResult r = walksatMaxSat(w);
  ASSERT_TRUE(r.hardFeasible);
  EXPECT_EQ(r.bestCost, 1);
  EXPECT_EQ(r.model[0], lbool::True);
  EXPECT_EQ(r.model[1], lbool::True);
}

TEST(WalkSat, HardUnsatNeverFeasible) {
  WcnfFormula w(1);
  w.addHard({posLit(0)});
  w.addHard({negLit(0)});
  WalkSatOptions o;
  o.maxFlips = 2000;
  const WalkSatResult r = walksatMaxSat(w, o);
  EXPECT_FALSE(r.hardFeasible);
}

TEST(WalkSat, EmptySoftClausesCounted) {
  WcnfFormula w(1);
  w.addSoft(std::initializer_list<Lit>{}, 2);
  w.addSoft({posLit(0)}, 1);
  const WalkSatResult r = walksatMaxSat(w);
  ASSERT_TRUE(r.hardFeasible);
  EXPECT_EQ(r.bestCost, 2);
}

TEST(WalkSat, DeterministicForFixedSeed) {
  const WcnfFormula w = randomPlain(12, 60, 77);
  WalkSatOptions o;
  o.seed = 123;
  o.maxFlips = 5000;
  const WalkSatResult a = walksatMaxSat(w, o);
  const WalkSatResult b = walksatMaxSat(w, o);
  EXPECT_EQ(a.bestCost, b.bestCost);
  EXPECT_EQ(a.flips, b.flips);
}

}  // namespace
}  // namespace msu
