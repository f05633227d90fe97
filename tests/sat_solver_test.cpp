/// Unit and property tests for the CDCL solver: propagation, conflicts,
/// assumptions, core extraction, incremental use, budgets, and random
/// cross-checks against the exhaustive oracle.

#include <gtest/gtest.h>

#include <atomic>
#include <random>

#include "cnf/formula.h"
#include "cnf/oracle.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "sat/solver.h"

namespace msu {
namespace {

/// Loads a formula into a fresh solver.
void load(Solver& s, const CnfFormula& f) {
  while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());
  for (const Clause& c : f.clauses()) {
    if (!s.addClause(c)) return;
  }
}

TEST(SatSolver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(SatSolver, SingleUnit) {
  Solver s;
  const Var x = s.newVar();
  ASSERT_TRUE(s.addClause({posLit(x)}));
  EXPECT_EQ(s.solve(), lbool::True);
  EXPECT_EQ(s.model()[x], lbool::True);
}

TEST(SatSolver, ContradictoryUnitsDetectedAtAdd) {
  Solver s;
  const Var x = s.newVar();
  ASSERT_TRUE(s.addClause({posLit(x)}));
  EXPECT_FALSE(s.addClause({negLit(x)}));
  EXPECT_FALSE(s.okay());
  EXPECT_EQ(s.solve(), lbool::False);
}

TEST(SatSolver, EmptyClauseMakesUnsat) {
  Solver s;
  EXPECT_FALSE(s.addClause(std::initializer_list<Lit>{}));
  EXPECT_EQ(s.solve(), lbool::False);
}

TEST(SatSolver, SimpleChainPropagation) {
  // x0 & (x0 -> x1) & (x1 -> x2) ... forces all true.
  Solver s;
  const int n = 20;
  for (int i = 0; i < n; ++i) static_cast<void>(s.newVar());
  ASSERT_TRUE(s.addClause({posLit(0)}));
  for (int i = 0; i + 1 < n; ++i) {
    ASSERT_TRUE(s.addClause({negLit(i), posLit(i + 1)}));
  }
  ASSERT_EQ(s.solve(), lbool::True);
  for (int i = 0; i < n; ++i) EXPECT_EQ(s.model()[i], lbool::True);
}

TEST(SatSolver, SatisfiedAndTautologicalClausesIgnored) {
  Solver s;
  const Var x = s.newVar();
  const Var y = s.newVar();
  ASSERT_TRUE(s.addClause({posLit(x)}));
  ASSERT_TRUE(s.addClause({posLit(x), posLit(y)}));   // satisfied at add
  ASSERT_TRUE(s.addClause({posLit(y), negLit(y)}));   // tautology
  EXPECT_EQ(s.numClauses(), 0);  // nothing was attached
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(SatSolver, ModelSatisfiesFormula) {
  const CnfFormula f = randomKSat({.numVars = 30,
                                   .numClauses = 100,
                                   .clauseLen = 3,
                                   .seed = 7});
  Solver s;
  load(s, f);
  const lbool st = s.solve();
  if (st == lbool::True) {
    Assignment a(f.numVars());
    for (Var v = 0; v < f.numVars(); ++v) {
      a[v] = s.model()[v] == lbool::Undef ? lbool::False : s.model()[v];
    }
    EXPECT_TRUE(f.satisfies(a));
  }
}

TEST(SatSolver, PigeonholeUnsat) {
  for (int holes = 2; holes <= 5; ++holes) {
    Solver s;
    load(s, pigeonhole(holes + 1, holes));
    EXPECT_EQ(s.solve(), lbool::False) << "PHP(" << holes + 1 << "," << holes
                                       << ")";
  }
}

TEST(SatSolver, PigeonholeSatWhenEnoughHoles) {
  Solver s;
  load(s, pigeonhole(4, 4));
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(SatSolver, AssumptionsSatWhenConsistent) {
  Solver s;
  const Var x = s.newVar();
  const Var y = s.newVar();
  ASSERT_TRUE(s.addClause({posLit(x), posLit(y)}));
  const std::vector<Lit> assumps{negLit(x)};
  ASSERT_EQ(s.solve(assumps), lbool::True);
  EXPECT_EQ(s.model()[x], lbool::False);
  EXPECT_EQ(s.model()[y], lbool::True);
}

TEST(SatSolver, FailedAssumptionsGiveCore) {
  Solver s;
  const Var x = s.newVar();
  const Var y = s.newVar();
  const Var z = s.newVar();
  ASSERT_TRUE(s.addClause({posLit(x), posLit(y)}));
  // Assume ~x and ~y: jointly inconsistent with the clause; ~z is not
  // involved.
  const std::vector<Lit> assumps{negLit(x), negLit(y), negLit(z)};
  ASSERT_EQ(s.solve(assumps), lbool::False);
  const std::vector<Lit>& core = s.core();
  EXPECT_LE(core.size(), 2u);
  for (Lit p : core) {
    EXPECT_TRUE(p == negLit(x) || p == negLit(y))
        << "unexpected core literal " << toString(p);
  }
  // Solver remains usable.
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(SatSolver, ContradictingAssumptionsCore) {
  Solver s;
  const Var x = s.newVar();
  static_cast<void>(s.newVar());
  const std::vector<Lit> assumps{posLit(x), negLit(x)};
  ASSERT_EQ(s.solve(assumps), lbool::False);
  EXPECT_FALSE(s.core().empty());
}

TEST(SatSolver, UnsatWithoutAssumptionsGivesEmptyCore) {
  Solver s;
  const Var x = s.newVar();
  const Var a = s.newVar();
  ASSERT_TRUE(s.addClause({posLit(x)}));
  ASSERT_TRUE(s.addClause({negLit(x)}) == false || true);
  // The formula is unsat regardless of assumptions.
  const std::vector<Lit> assumps{posLit(a)};
  EXPECT_EQ(s.solve(assumps), lbool::False);
  EXPECT_TRUE(s.core().empty());
}

TEST(SatSolver, IncrementalAddBetweenSolves) {
  Solver s;
  const Var x = s.newVar();
  const Var y = s.newVar();
  ASSERT_TRUE(s.addClause({posLit(x), posLit(y)}));
  ASSERT_EQ(s.solve(), lbool::True);
  ASSERT_TRUE(s.addClause({negLit(x)}));
  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_EQ(s.model()[y], lbool::True);
  static_cast<void>(s.addClause({negLit(y)}));
  EXPECT_EQ(s.solve(), lbool::False);
}

TEST(SatSolver, ConflictBudgetReturnsUndef) {
  Solver s;
  load(s, pigeonhole(9, 8));  // hard enough to exceed a tiny budget
  Budget b;
  b.setMaxConflicts(10);
  s.setBudget(b);
  EXPECT_EQ(s.solve(), lbool::Undef);
}

TEST(SatSolver, WallClockBudgetReturnsUndef) {
  Solver s;
  load(s, pigeonhole(11, 10));
  Budget b = Budget::wallClock(0.05);
  s.setBudget(b);
  EXPECT_EQ(s.solve(), lbool::Undef);
}

TEST(SatSolver, APollStopsAConflictFreeDescent) {
  // Pairs (v | v+1) over 20000 variables: deciding v false implies v+1,
  // so the one search segment is 10000 decisions without a conflict.
  // Only the decision cadence polls inside it.
  const auto build = [](Solver& s) {
    s.newVars(20000);
    for (Var v = 0; v + 1 < s.numVars(); v += 2) {
      ASSERT_TRUE(s.addClause({posLit(v), posLit(v + 1)}));
    }
  };
  FaultInjector counting;
  Solver::Options countingOpts;
  countingOpts.fault = &counting;
  Solver reference(countingOpts);
  build(reference);
  ASSERT_EQ(reference.solve(), lbool::True);
  EXPECT_EQ(reference.stats().conflicts, 0);
  EXPECT_GE(reference.stats().decisions, 10000);
  // One poll entering solve(), one entering the segment, then one per
  // 4096 decisions.
  EXPECT_EQ(counting.polls(), 2 + reference.stats().decisions / 4096);

  FaultInjector fault;
  fault.expireAtPoll(3);  // the first decision-cadence poll
  Solver::Options opts;
  opts.fault = &fault;
  Solver s(opts);
  std::atomic<int> sink{static_cast<int>(AbortReason::kNone)};
  Budget b;
  b.setAbortSink(&sink);
  s.setBudget(b);
  build(s);
  EXPECT_EQ(s.solve(), lbool::Undef);
  EXPECT_EQ(static_cast<AbortReason>(sink.load()), AbortReason::kFault);
  EXPECT_EQ(s.stats().conflicts, 0);
  EXPECT_EQ(s.stats().decisions, 4096);
  EXPECT_TRUE(s.model().empty());
}

TEST(SatSolver, StatsAreMonotone) {
  Solver s;
  load(s, pigeonhole(6, 5));
  ASSERT_EQ(s.solve(), lbool::False);
  const SolverStats st = s.stats();
  EXPECT_GT(st.conflicts, 0);
  EXPECT_GT(st.decisions, 0);
  EXPECT_GT(st.propagations, 0);
}

// ---- Randomized cross-checks against the oracle -------------------------

struct RandomSatCase {
  int numVars;
  int numClauses;
  int clauseLen;
};

class SatSolverRandom : public ::testing::TestWithParam<RandomSatCase> {};

TEST_P(SatSolverRandom, AgreesWithOracle) {
  const RandomSatCase c = GetParam();
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const CnfFormula f = randomKSat(
        {.numVars = c.numVars, .numClauses = c.numClauses,
         .clauseLen = c.clauseLen, .seed = seed * 977});
    Solver s;
    load(s, f);
    const lbool st = s.solve();
    const bool oracleSatisfiable = oracleSat(f).has_value();
    ASSERT_NE(st, lbool::Undef);
    EXPECT_EQ(st == lbool::True, oracleSatisfiable)
        << "seed " << seed << " n=" << c.numVars << " m=" << c.numClauses;
    if (st == lbool::True) {
      Assignment a(f.numVars());
      for (Var v = 0; v < f.numVars(); ++v) {
        a[v] = s.model()[v] == lbool::Undef ? lbool::False : s.model()[v];
      }
      EXPECT_TRUE(f.satisfies(a));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SatSolverRandom,
    ::testing::Values(RandomSatCase{6, 20, 2}, RandomSatCase{8, 34, 3},
                      RandomSatCase{10, 42, 3}, RandomSatCase{12, 50, 3},
                      RandomSatCase{9, 25, 4}, RandomSatCase{14, 60, 3}),
    [](const ::testing::TestParamInfo<RandomSatCase>& info) {
      return "n" + std::to_string(info.param.numVars) + "m" +
             std::to_string(info.param.numClauses) + "k" +
             std::to_string(info.param.clauseLen);
    });

TEST(SatSolverCore, CoresAreActuallyUnsat) {
  // Property: a returned core, together with the clause database, is
  // unsatisfiable — verified by brute force on small random instances
  // with per-clause selector assumptions.
  std::mt19937_64 rng(42);
  for (int round = 0; round < 25; ++round) {
    const CnfFormula f =
        randomKSat({.numVars = 8, .numClauses = 36, .clauseLen = 3,
                    .seed = rng()});
    Solver s;
    while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());
    std::vector<Lit> selectors;
    for (const Clause& c : f.clauses()) {
      const Var sel = s.newVar();
      Clause aug = c;
      aug.push_back(posLit(sel));
      ASSERT_TRUE(s.addClause(aug));
      selectors.push_back(negLit(sel));
    }
    const lbool st = s.solve(selectors);
    ASSERT_NE(st, lbool::Undef);
    if (st == lbool::False) {
      // Map the core back to clause indices and check with the oracle.
      std::vector<int> coreIdx;
      for (Lit p : s.core()) {
        const int idx = p.var() - f.numVars();
        ASSERT_GE(idx, 0);
        ASSERT_LT(idx, f.numClauses());
        coreIdx.push_back(idx);
      }
      EXPECT_TRUE(oracleSubsetUnsat(f, coreIdx))
          << "core of size " << coreIdx.size() << " is not unsat";
    } else {
      EXPECT_TRUE(oracleSat(f).has_value());
    }
  }
}

TEST(SatSolverLuby, SequencePrefix) {
  // luby: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  const double expected[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8};
  for (int i = 0; i < 15; ++i) {
    EXPECT_DOUBLE_EQ(lubySequence(2.0, i), expected[i]) << "index " << i;
  }
}

}  // namespace
}  // namespace msu
