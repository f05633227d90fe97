/// Integration & property tests for every MaxSAT engine: agreement with
/// the exhaustive oracle on randomized plain and partial instances,
/// paper examples, pigeonhole optima, hard-unsat detection, budget
/// behaviour and weighted handling.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <random>
#include <string>

#include "cnf/dimacs.h"
#include "cnf/oracle.h"
#include "core/binary_search.h"
#include "core/msu1.h"
#include "core/msu3.h"
#include "core/msu4.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"

namespace msu {
namespace {

/// All engines under test, by factory name.
std::vector<std::string> allEngines() {
  return {"msu4-v1", "msu4-v2", "msu4-seq", "msu4-tot", "msu3",
          "msu1",    "wlinear", "binary",   "pbo",      "pbo-adder",
          "maxsatz"};
}

/// A plain MaxSAT instance from a random CNF.
WcnfFormula randomPlain(int n, int m, std::uint64_t seed) {
  return WcnfFormula::allSoft(
      randomKSat({.numVars = n, .numClauses = m, .clauseLen = 3,
                  .seed = seed}));
}

/// A random partial MaxSAT instance: the first `h` clauses become hard
/// only when they keep the hard part satisfiable.
WcnfFormula randomPartial(int n, int m, int h, std::uint64_t seed) {
  const CnfFormula f = randomKSat(
      {.numVars = n, .numClauses = m, .clauseLen = 3, .seed = seed});
  WcnfFormula w(f.numVars());
  CnfFormula hardPart(f.numVars());
  for (int i = 0; i < f.numClauses(); ++i) {
    if (i < h) {
      hardPart.addClause(f.clause(i));
      if (oracleSat(hardPart)) {
        w.addHard(f.clause(i));
        continue;
      }
      // Would make the hard part unsat: demote to soft.
    }
    w.addSoft(f.clause(i), 1);
  }
  return w;
}

void expectSolvesTo(MaxSatSolver& solver, const WcnfFormula& w,
                    const std::string& label) {
  const OracleResult truth = oracleMaxSat(w);
  const MaxSatResult r = solver.solve(w);
  if (!truth.optimumCost) {
    EXPECT_EQ(r.status, MaxSatStatus::UnsatisfiableHard) << label;
    return;
  }
  ASSERT_EQ(r.status, MaxSatStatus::Optimum)
      << label << ": expected optimum " << *truth.optimumCost;
  EXPECT_EQ(r.cost, *truth.optimumCost) << label;
  // The model must be feasible and achieve the reported cost.
  ASSERT_EQ(static_cast<int>(r.model.size()), w.numVars()) << label;
  const std::optional<Weight> modelCost = w.cost(r.model);
  ASSERT_TRUE(modelCost.has_value()) << label << ": model violates hards";
  EXPECT_EQ(*modelCost, r.cost) << label << ": model does not achieve cost";
  EXPECT_EQ(r.lowerBound, r.cost) << label;
  EXPECT_EQ(r.upperBound, r.cost) << label;
}

class EveryEngine : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<MaxSatSolver> make() {
    auto s = makeSolver(GetParam());
    EXPECT_NE(s, nullptr);
    return s;
  }
};

TEST_P(EveryEngine, PaperExample2) {
  // §3.3: optimum satisfies 6 of 8 clauses (cost 2).
  CnfFormula phi(4);
  phi.addClause({posLit(0)});
  phi.addClause({negLit(0), negLit(1)});
  phi.addClause({posLit(1)});
  phi.addClause({negLit(0), negLit(2)});
  phi.addClause({posLit(2)});
  phi.addClause({negLit(1), negLit(2)});
  phi.addClause({posLit(0), negLit(3)});
  phi.addClause({negLit(0), posLit(3)});
  auto solver = make();
  const MaxSatResult r = solver->solve(WcnfFormula::allSoft(phi));
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 2);
}

TEST_P(EveryEngine, SatisfiableInstanceHasCostZero) {
  CnfFormula f(3);
  f.addClause({posLit(0), posLit(1)});
  f.addClause({negLit(1), posLit(2)});
  auto solver = make();
  const MaxSatResult r = solver->solve(WcnfFormula::allSoft(f));
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 0);
}

TEST_P(EveryEngine, PigeonholeOptimumIsOne) {
  for (int holes : {2, 3, 4}) {
    auto solver = make();
    const MaxSatResult r =
        solver->solve(WcnfFormula::allSoft(pigeonhole(holes + 1, holes)));
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "holes " << holes;
    EXPECT_EQ(r.cost, pigeonholeOptCost(holes)) << "holes " << holes;
  }
}

TEST_P(EveryEngine, RandomPlainAgreesWithOracle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const WcnfFormula w = randomPlain(8, 40, seed * 131);
    auto solver = make();
    expectSolvesTo(*solver, w, GetParam() + " seed=" + std::to_string(seed));
  }
}

TEST_P(EveryEngine, RandomPartialAgreesWithOracle) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const WcnfFormula w = randomPartial(8, 36, 6, seed * 733);
    auto solver = make();
    expectSolvesTo(*solver,
                   w, GetParam() + " partial seed=" + std::to_string(seed));
  }
}

TEST_P(EveryEngine, UnsatisfiableHardDetected) {
  WcnfFormula w(2);
  w.addHard({posLit(0)});
  w.addHard({negLit(0)});
  w.addSoft({posLit(1)}, 1);
  auto solver = make();
  EXPECT_EQ(solver->solve(w).status, MaxSatStatus::UnsatisfiableHard);
}

TEST_P(EveryEngine, EmptySoftClauseContributesOne) {
  WcnfFormula w(1);
  w.addSoft(std::initializer_list<Lit>{}, 1);  // falsum: always costs 1
  w.addSoft({posLit(0)}, 1);
  auto solver = make();
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum) << GetParam();
  EXPECT_EQ(r.cost, 1) << GetParam();
}

TEST_P(EveryEngine, NoSoftClauses) {
  WcnfFormula w(1);
  w.addHard({posLit(0)});
  auto solver = make();
  const MaxSatResult r = solver->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 0);
}

TEST_P(EveryEngine, TinyBudgetReturnsUnknownOnHardInstance) {
  const WcnfFormula w = WcnfFormula::allSoft(pigeonhole(10, 9));
  MaxSatOptions o;
  o.budget = Budget::wallClock(0.02);
  auto solver = makeSolver(GetParam(), o);
  const MaxSatResult r = solver->solve(w);
  // Either it is genuinely that fast (fine) or it reports Unknown with
  // coherent bounds.
  if (r.status == MaxSatStatus::Unknown) {
    EXPECT_LE(r.lowerBound, r.upperBound);
    EXPECT_GE(r.lowerBound, 0);
  } else {
    EXPECT_EQ(r.status, MaxSatStatus::Optimum);
    EXPECT_EQ(r.cost, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EveryEngine,
                         ::testing::ValuesIn(allEngines()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string n = i.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// ---- Weighted instances (handled via duplication or natively) ----------

TEST(WeightedMaxSat, SmallWeightedAgreesWithOracle) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed * 17);
    const CnfFormula f = randomKSat(
        {.numVars = 7, .numClauses = 24, .clauseLen = 3, .seed = rng()});
    WcnfFormula w(f.numVars());
    for (const Clause& c : f.clauses()) {
      w.addSoft(c, 1 + static_cast<Weight>(rng() % 3));
    }
    const OracleResult truth = oracleMaxSat(w);
    ASSERT_TRUE(truth.optimumCost.has_value());
    for (const std::string& name :
         {std::string("msu4-v2"), std::string("pbo"), std::string("maxsatz")}) {
      auto solver = makeSolver(name);
      const MaxSatResult r = solver->solve(w);
      ASSERT_EQ(r.status, MaxSatStatus::Optimum) << name;
      EXPECT_EQ(r.cost, *truth.optimumCost) << name << " seed " << seed;
    }
  }
}

// ---- msu4-specific behaviour -------------------------------------------

TEST(Msu4, VariantNames) {
  EXPECT_EQ(Msu4Solver::v1().name(), "msu4-v1");
  EXPECT_EQ(Msu4Solver::v2().name(), "msu4-v2");
}

TEST(Msu4, OptionalAtLeastOneOffStillCorrect) {
  // The paper calls the line-19 constraint optional; correctness must not
  // depend on it.
  MaxSatOptions o;
  o.msu4AtLeastOne = false;
  Msu4Solver solver(o);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const WcnfFormula w = randomPlain(8, 40, seed * 271);
    expectSolvesTo(solver, w, "no-atleastone seed=" + std::to_string(seed));
  }
}

TEST(Msu4, NoEncodingReuseStillCorrect) {
  MaxSatOptions o;
  o.reuseEncodings = false;
  Msu4Solver solver(o);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const WcnfFormula w = randomPlain(8, 40, seed * 613);
    expectSolvesTo(solver, w, "no-reuse seed=" + std::to_string(seed));
  }
}

TEST(Msu4, PaperNuInsteadOfTightenedCost) {
  // Using the paper's raw blocking-variable count (instead of the
  // tightened model cost) must still find the optimum.
  MaxSatOptions o;
  o.tightenWithModelCost = false;
  Msu4Solver solver(o);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const WcnfFormula w = randomPlain(8, 40, seed * 997);
    expectSolvesTo(solver, w, "paper-nu seed=" + std::to_string(seed));
  }
}

TEST(Msu4, BoundsConvergeMonotonically) {
  const WcnfFormula w = randomPlain(10, 55, 4242);
  Msu4Solver solver;
  const MaxSatResult r = solver.solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_GE(r.coresFound, 1);
  EXPECT_GE(r.iterations, r.coresFound);
}

TEST(Msu4, APollInsideTheFinalDescentGivesSoundBounds) {
  // One core over two contradicting unit softs, then a satisfiable
  // descent of 10000 decisions without a conflict: hard pairs (v | v+1)
  // over 20000 variables. The last poll of an undisturbed run is a
  // decision-cadence poll inside that descent; forcing it to expire
  // must leave sound bounds around the optimum, 1.
  WcnfFormula w(20001);
  for (Var v = 1; v + 1 < w.numVars(); v += 2) {
    w.addHard({posLit(v), posLit(v + 1)});
  }
  w.addSoft({posLit(0)}, 1);
  w.addSoft({negLit(0)}, 1);

  FaultInjector counting;
  MaxSatOptions countingOpts;
  countingOpts.sat.fault = &counting;
  const MaxSatResult reference = makeSolver("msu4-v2", countingOpts)->solve(w);
  ASSERT_EQ(reference.status, MaxSatStatus::Optimum);
  ASSERT_EQ(reference.cost, 1);
  EXPECT_EQ(reference.satStats.conflicts, 0);
  EXPECT_GE(reference.satStats.decisions, 10000);

  FaultInjector fault;
  fault.expireAtPoll(counting.polls());
  std::atomic<int> sink{static_cast<int>(AbortReason::kNone)};
  MaxSatOptions o;
  o.sat.fault = &fault;
  o.budget.setAbortSink(&sink);
  const MaxSatResult r = makeSolver("msu4-v2", o)->solve(w);
  EXPECT_EQ(r.status, MaxSatStatus::Unknown);
  EXPECT_EQ(static_cast<AbortReason>(sink.load()), AbortReason::kFault);
  EXPECT_EQ(r.satStats.conflicts, 0);
  EXPECT_EQ(r.satStats.decisions % 4096, 0);
  EXPECT_LT(r.satStats.decisions, reference.satStats.decisions);
  EXPECT_LE(r.lowerBound, 1);
  EXPECT_GE(r.upperBound, 1);
  EXPECT_EQ(r.lowerBound, 1);  // the core before the descent counts
}

TEST(Pbo, ReportsBoundsAndRetiresScopes) {
  // `pbo` runs on the oracle session: every improving model reaches
  // onBounds, and each tightening retires the previous bound's scope.
  const WcnfFormula w = randomPlain(10, 55, 7);
  const OracleResult truth = oracleMaxSat(w);
  ASSERT_TRUE(truth.optimumCost.has_value());
  std::vector<Weight> uppers;
  MaxSatOptions o;
  o.onBounds = [&](Weight, Weight upper) { uppers.push_back(upper); };
  const MaxSatResult r = makeSolver("pbo", o)->solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_GE(r.iterations, 3);
  ASSERT_FALSE(uppers.empty());
  EXPECT_TRUE(std::is_sorted(uppers.rbegin(), uppers.rend()));
  EXPECT_EQ(uppers.back(), *truth.optimumCost);
  EXPECT_GT(r.satStats.retired_scopes, 0);
}

TEST(Factory, BoundsStaySoundPastTheWeightDuplicationCap) {
  // Total soft weight above what unweighted() duplicates: engines that
  // reduce by duplication give up, but their bounds must still bracket
  // the optimum, 3.
  WcnfFormula w(1);
  w.addSoft({posLit(0)}, 2'000'000);
  w.addSoft({negLit(0)}, 3);
  for (const std::string& name : solverNames()) {
    const MaxSatResult r = makeSolver(name)->solve(w);
    EXPECT_LE(r.lowerBound, 3) << name;
    EXPECT_GE(r.upperBound, 3) << name;
  }
}

TEST(Factory, KnowsAllNamesAndRejectsUnknown) {
  for (const std::string& name : solverNames()) {
    EXPECT_NE(makeSolver(name), nullptr) << name;
  }
  EXPECT_EQ(makeSolver("no-such-solver"), nullptr);
}

TEST(Factory, EveryListedNameBuildsADistinctEngine) {
  // solverNames() drives the CLI's --list and the all-engine sweeps; an
  // alias would run one engine twice under two names.
  std::map<std::string, std::string> listedAs;
  for (const std::string& name : solverNames()) {
    const std::string built = makeSolver(name)->name();
    const auto [it, fresh] = listedAs.emplace(built, name);
    EXPECT_TRUE(fresh) << name << " and " << it->second << " both build "
                       << built;
  }
}

// ---- The unit-weight path: storage does not steer the search -------------

/// A unit-weight partial instance with a planted model, as DIMACS text:
/// hard clauses that a hidden assignment satisfies plus random
/// unit-weight softs.
std::string plantedUnitWcnf(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const int vars = 10 + static_cast<int>(rng() % 5);
  std::vector<bool> hidden(static_cast<std::size_t>(vars));
  for (std::size_t v = 0; v < hidden.size(); ++v) hidden[v] = rng() % 2 == 0;
  const int hards = vars;
  const int softs = 3 * vars;
  std::string body;
  const auto clause = [&](bool planted) {
    const int len = 1 + static_cast<int>(rng() % 3);
    std::vector<int> lits;
    for (int k = 0; k < len; ++k) {
      const int v = static_cast<int>(rng() % static_cast<std::uint64_t>(vars));
      lits.push_back(rng() % 2 == 0 ? v + 1 : -(v + 1));
    }
    if (planted) {
      const int v = std::abs(lits[0]) - 1;
      lits[0] = hidden[static_cast<std::size_t>(v)] ? v + 1 : -(v + 1);
    }
    for (const int l : lits) body += std::to_string(l) + " ";
    body += "0\n";
  };
  for (int i = 0; i < hards; ++i) {
    body += "h ";
    clause(true);
  }
  for (int i = 0; i < softs; ++i) {
    body += "1 ";
    clause(false);
  }
  return "c planted unit-weight instance\n" + body;
}

TEST(UnitWeightPath, ParsedAndRebuiltFormulasSearchIdentically) {
  std::int64_t conflicts = 0;
  std::int64_t decisions = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const WcnfFormula parsed = parseDimacsWcnf(plantedUnitWcnf(seed));
    ASSERT_TRUE(parsed.isUnweighted());
    WcnfFormula rebuilt(parsed.numVars());
    for (const std::span<const Lit> h : parsed.hard()) rebuilt.addHard(h);
    for (const SoftClause& s : parsed.soft()) rebuilt.addSoft(s.lits, s.weight);
    const OracleResult ref = oracleMaxSat(parsed);
    ASSERT_TRUE(ref.optimumCost.has_value()) << "seed " << seed;
    for (const std::string name :
         {"msu4-v2", "msu3", "msu1", "binary", "maxsatz"}) {
      const MaxSatResult a = makeSolver(name, {})->solve(parsed);
      const MaxSatResult b = makeSolver(name, {})->solve(rebuilt);
      ASSERT_EQ(a.status, MaxSatStatus::Optimum) << name << " seed " << seed;
      EXPECT_EQ(a.cost, *ref.optimumCost) << name << " seed " << seed;
      EXPECT_EQ(parsed.cost(a.model), a.cost) << name << " seed " << seed;
      EXPECT_EQ(b.status, a.status) << name << " seed " << seed;
      EXPECT_EQ(b.cost, a.cost) << name << " seed " << seed;
      EXPECT_EQ(b.iterations, a.iterations) << name << " seed " << seed;
      EXPECT_EQ(b.satStats.conflicts, a.satStats.conflicts) << name;
      EXPECT_EQ(b.satStats.propagations, a.satStats.propagations) << name;
      EXPECT_EQ(b.satStats.decisions, a.satStats.decisions) << name;
      conflicts += a.satStats.conflicts;
      decisions += a.satStats.decisions;
    }
  }
  // The comparison covered real search, not just root propagation.
  EXPECT_GT(conflicts, 0);
  EXPECT_GT(decisions, 0);
}

}  // namespace
}  // namespace msu
