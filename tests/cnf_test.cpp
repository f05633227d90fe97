/// Unit tests for the cnf module: literals, formulas, WCNF, DIMACS I/O
/// and the exhaustive oracle.

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <vector>

#include "cnf/dimacs.h"
#include "cnf/formula.h"
#include "cnf/literal.h"
#include "cnf/oracle.h"
#include "cnf/wcnf.h"

namespace msu {
namespace {

TEST(Literal, EncodingRoundTrip) {
  const Lit p = posLit(3);
  EXPECT_EQ(p.var(), 3);
  EXPECT_TRUE(p.positive());
  EXPECT_FALSE(p.negative());
  EXPECT_EQ(p.index(), 6);
  const Lit n = ~p;
  EXPECT_EQ(n.var(), 3);
  EXPECT_TRUE(n.negative());
  EXPECT_EQ(n.index(), 7);
  EXPECT_EQ(~n, p);
}

TEST(Literal, DimacsConversion) {
  EXPECT_EQ(Lit::fromDimacs(5), posLit(4));
  EXPECT_EQ(Lit::fromDimacs(-5), negLit(4));
  EXPECT_EQ(posLit(4).toDimacs(), 5);
  EXPECT_EQ(negLit(4).toDimacs(), -5);
}

TEST(Literal, UndefIsNotDefined) {
  EXPECT_FALSE(kUndefLit.defined());
  EXPECT_TRUE(posLit(0).defined());
}

TEST(Literal, Ordering) {
  EXPECT_LT(posLit(0), negLit(0));
  EXPECT_LT(negLit(0), posLit(1));
}

TEST(Lbool, NegationAndSign) {
  EXPECT_EQ(~lbool::True, lbool::False);
  EXPECT_EQ(~lbool::False, lbool::True);
  EXPECT_EQ(~lbool::Undef, lbool::Undef);
  EXPECT_EQ(applySign(lbool::True, negLit(0)), lbool::False);
  EXPECT_EQ(applySign(lbool::False, negLit(0)), lbool::True);
  EXPECT_EQ(applySign(lbool::Undef, negLit(0)), lbool::Undef);
}

TEST(CnfFormula, AddClauseGrowsVariables) {
  CnfFormula f;
  f.addClause({posLit(2), negLit(5)});
  EXPECT_EQ(f.numVars(), 6);
  EXPECT_EQ(f.numClauses(), 1);
  EXPECT_EQ(f.numLiterals(), 2);
}

TEST(CnfFormula, SatisfactionCounting) {
  CnfFormula f(2);
  f.addClause({posLit(0)});
  f.addClause({negLit(0), posLit(1)});
  f.addClause({negLit(1)});
  Assignment a{lbool::True, lbool::True};
  EXPECT_EQ(f.numSatisfied(a), 2);
  EXPECT_FALSE(f.satisfies(a));
  Assignment b{lbool::True, lbool::False};
  EXPECT_EQ(f.numSatisfied(b), 2);
}

TEST(CnfFormula, NormalizedRemovesTautologiesAndDuplicates) {
  CnfFormula f(3);
  f.addClause({posLit(0), negLit(0)});          // tautology
  f.addClause({posLit(1), posLit(2), posLit(1)});  // dup literal
  f.addClause({posLit(2), posLit(1)});          // dup clause (reordered)
  const CnfFormula n = f.normalized();
  EXPECT_EQ(n.numClauses(), 1);
  EXPECT_EQ(n.clause(0).size(), 2u);
}

TEST(CnfFormula, NormalizeClauseSortsCollapsesAndFlagsTautologies) {
  Clause c{posLit(2), negLit(0), posLit(2), posLit(1)};
  ASSERT_TRUE(normalizeClause(c));
  EXPECT_EQ(c, (Clause{negLit(0), posLit(1), posLit(2)}));
  Clause t{posLit(1), negLit(0), posLit(0), posLit(0)};
  EXPECT_FALSE(normalizeClause(t));
  Clause empty;
  EXPECT_TRUE(normalizeClause(empty));
  EXPECT_TRUE(empty.empty());
}

TEST(ClauseIdTable, EveryIdRoundTripsAcrossGrowthSteps) {
  // Distinct normalized clauses: the first literal names the clause.
  std::vector<Clause> stored;
  ClauseIdTable table;
  const auto litsOf = [&](ClauseIdTable::Id i) -> const Clause& {
    return stored[i];
  };
  std::vector<std::size_t> capacities;
  for (int i = 0; i < 3000; ++i) {
    Clause c{posLit(i), negLit(3000 + i % 7), posLit(4000 + i % 5)};
    ASSERT_TRUE(normalizeClause(c));
    const auto id = static_cast<ClauseIdTable::Id>(stored.size());
    ASSERT_EQ(table.insert(c, id, litsOf), id);
    stored.push_back(c);
    if (capacities.empty() || capacities.back() != table.capacity()) {
      capacities.push_back(table.capacity());
    }
    ASSERT_GE(table.capacity(), 2 * table.size());
  }
  EXPECT_GE(capacities.size(), 5u);
  EXPECT_EQ(table.size(), stored.size());
  // A reordered copy normalizes to the same key and returns the stored
  // id instead of the offered one.
  const auto offered = static_cast<ClauseIdTable::Id>(stored.size());
  for (std::size_t i = 0; i < stored.size(); ++i) {
    Clause copy(stored[i].rbegin(), stored[i].rend());
    ASSERT_TRUE(normalizeClause(copy));
    EXPECT_EQ(table.insert(copy, offered, litsOf), i);
  }
  EXPECT_EQ(table.size(), stored.size());
  // A clause sharing every literal but one is a new key.
  Clause near{posLit(0), negLit(3000), posLit(4001)};
  ASSERT_TRUE(normalizeClause(near));
  stored.push_back(near);
  EXPECT_EQ(table.insert(near, offered, litsOf), offered);
  EXPECT_EQ(table.size(), stored.size());
}

TEST(CnfFormula, EmptyClauseAllowed) {
  CnfFormula f;
  f.addClause(std::initializer_list<Lit>{});
  EXPECT_EQ(f.numClauses(), 1);
  EXPECT_FALSE(f.satisfies(Assignment{}));
}

TEST(Wcnf, AllSoftLiftsEveryClause) {
  CnfFormula f(2);
  f.addClause({posLit(0)});
  f.addClause({negLit(0), posLit(1)});
  const WcnfFormula w = WcnfFormula::allSoft(f);
  EXPECT_EQ(w.numSoft(), 2);
  EXPECT_EQ(w.numHard(), 0);
  EXPECT_TRUE(w.isPlain());
  EXPECT_TRUE(w.isUnweighted());
}

TEST(Wcnf, CostCountsFalsifiedSoftWeight) {
  WcnfFormula w(2);
  w.addHard({posLit(0)});
  w.addSoft({posLit(1)}, 3);
  w.addSoft({negLit(1)}, 2);
  Assignment a{lbool::True, lbool::True};
  EXPECT_EQ(w.cost(a), 2);
  Assignment b{lbool::True, lbool::False};
  EXPECT_EQ(w.cost(b), 3);
  Assignment c{lbool::False, lbool::True};
  EXPECT_FALSE(w.cost(c).has_value());  // hard violated
}

TEST(Wcnf, UnweightedDuplication) {
  WcnfFormula w(1);
  w.addSoft({posLit(0)}, 3);
  const auto u = w.unweighted();
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->numSoft(), 3);
  EXPECT_TRUE(u->isUnweighted());
  EXPECT_FALSE(w.unweighted(2).has_value());  // exceeds the cap
}

TEST(Wcnf, NumSoftSatisfiedMatchesPaperObjective) {
  WcnfFormula w(1);
  w.addSoft({posLit(0)}, 1);
  w.addSoft({negLit(0)}, 1);
  Assignment a{lbool::True};
  EXPECT_EQ(w.numSoftSatisfied(a), 1);
}

TEST(Dimacs, ParseSimpleCnf) {
  const std::string text = R"(c a comment
p cnf 3 2
1 -2 0
2 3 0
)";
  const CnfFormula f = parseDimacsCnf(text);
  EXPECT_EQ(f.numVars(), 3);
  EXPECT_EQ(f.numClauses(), 2);
  EXPECT_EQ(f.clause(0), (Clause{posLit(0), negLit(1)}));
}

TEST(Dimacs, RoundTripCnf) {
  CnfFormula f(4);
  f.addClause({posLit(0), negLit(3)});
  f.addClause({posLit(1), posLit(2), negLit(0)});
  const CnfFormula g = parseDimacsCnf(toDimacsString(f));
  EXPECT_EQ(g.numVars(), f.numVars());
  ASSERT_EQ(g.numClauses(), f.numClauses());
  for (int i = 0; i < f.numClauses(); ++i) {
    EXPECT_EQ(g.clause(i), f.clause(i));
  }
}

TEST(Dimacs, ParseWcnfWithTop) {
  const std::string text = R"(p wcnf 2 3 10
10 1 0
1 2 0
3 -2 0
)";
  const WcnfFormula w = parseDimacsWcnf(text);
  EXPECT_EQ(w.numHard(), 1);
  EXPECT_EQ(w.numSoft(), 2);
  EXPECT_EQ(w.soft()[1].weight, 3);
}

TEST(Dimacs, PlainCnfReadAsWcnfBecomesAllSoft) {
  const std::string text = "p cnf 2 2\n1 0\n-1 2 0\n";
  const WcnfFormula w = parseDimacsWcnf(text);
  EXPECT_EQ(w.numHard(), 0);
  EXPECT_EQ(w.numSoft(), 2);
}

TEST(Dimacs, RoundTripWcnf) {
  WcnfFormula w(3);
  w.addHard({posLit(0), posLit(1)});
  w.addSoft({negLit(2)}, 2);
  w.addSoft({posLit(2), negLit(0)}, 1);
  const WcnfFormula v = parseDimacsWcnf(toDimacsString(w));
  EXPECT_EQ(v.numHard(), 1);
  EXPECT_EQ(v.numSoft(), 2);
  EXPECT_EQ(v.soft()[0].weight, 2);
  EXPECT_EQ(v.hard()[0], w.hard()[0]);
}

/// A random WCNF over `vars` variables with empty clauses, repeated
/// literals and weights 1..4, plus the clauses it was built from.
struct RandomWcnf {
  WcnfFormula formula;
  std::vector<Clause> hard;
  std::vector<std::pair<Clause, Weight>> soft;
};

RandomWcnf randomWcnf(std::mt19937& rng, int vars) {
  RandomWcnf r{WcnfFormula(vars), {}, {}};
  auto clause = [&] {
    Clause c(rng() % 5);  // length 0..4; empty clauses included
    for (Lit& p : c) p = Lit(static_cast<Var>(rng() % vars), rng() % 2 == 0);
    return c;
  };
  for (int i = 0, n = static_cast<int>(rng() % 12); i < n; ++i) {
    r.hard.push_back(clause());
    r.formula.addHard(r.hard.back());
  }
  for (int i = 0, n = static_cast<int>(rng() % 20); i < n; ++i) {
    r.soft.emplace_back(clause(), 1 + static_cast<Weight>(rng() % 4));
    r.formula.addSoft(r.soft.back().first, r.soft.back().second);
  }
  return r;
}

TEST(WcnfStore, HardAndSoftRoundTripThroughSpans) {
  std::mt19937 rng(18);
  int empties = 0;
  for (int round = 0; round < 200; ++round) {
    const RandomWcnf r = randomWcnf(rng, 1 + round % 9);
    const WcnfFormula& w = r.formula;
    ASSERT_EQ(w.numHard(), static_cast<int>(r.hard.size()));
    ASSERT_EQ(w.numSoft(), static_cast<int>(r.soft.size()));
    for (std::size_t i = 0; i < r.hard.size(); ++i) {
      EXPECT_EQ(w.hard()[i], r.hard[i]) << "round " << round;
      empties += r.hard[i].empty() ? 1 : 0;
    }
    std::size_t i = 0;
    for (const SoftClause& s : w.soft()) {
      EXPECT_EQ(s.lits, r.soft[i].first) << "round " << round;
      EXPECT_EQ(s.weight, r.soft[i].second) << "round " << round;
      empties += r.soft[i].first.empty() ? 1 : 0;
      ++i;
    }
    EXPECT_EQ(i, r.soft.size());
    Weight total = 0;
    for (const auto& [lits, weight] : r.soft) total += weight;
    EXPECT_EQ(w.totalSoftWeight(), total);
  }
  EXPECT_GT(empties, 0);
}

TEST(WcnfStore, AddingAClauseOfTheSameStoreCopiesIt) {
  WcnfFormula w(4);
  w.addHard({posLit(0), negLit(1), posLit(2)});
  w.addSoft({negLit(3), posLit(1)}, 2);
  // Enough appends to move both pools at least once.
  for (int k = 0; k < 64; ++k) {
    w.addHard(w.hard()[0]);
    w.addSoft(w.soft()[0].lits, 1);
  }
  for (const std::span<const Lit> h : w.hard()) {
    EXPECT_EQ(h, (Clause{posLit(0), negLit(1), posLit(2)}));
  }
  for (const SoftClause& s : w.soft()) {
    EXPECT_EQ(s.lits, (Clause{negLit(3), posLit(1)}));
  }
}

TEST(WcnfStore, MemBytesIsTheSumOfTheArrayCapacities) {
  std::mt19937 rng(7);
  for (int round = 0; round < 50; ++round) {
    RandomWcnf r = randomWcnf(rng, 6);
    for (int trim = 0; trim < 2; ++trim) {
      const WcnfFormula& w = r.formula;
      const ClauseStore& hard = w.hard();
      const ClauseStore& soft = w.soft().clauses();
      const std::size_t bytes =
          (hard.literalCapacity() + soft.literalCapacity()) * sizeof(Lit) +
          (hard.capacity() + soft.capacity()) * sizeof(ClauseStore::Offset) +
          w.soft().weights().capacity() * sizeof(Weight);
      EXPECT_EQ(w.memBytesEstimate(), static_cast<std::int64_t>(bytes));
      r.formula.shrinkToFit();
    }
    // Trimmed, the arrays hold exactly the clauses: no per-clause blocks.
    std::size_t lits = 0;
    for (const Clause& c : r.hard) lits += c.size();
    for (const auto& [c, weight] : r.soft) lits += c.size();
    const std::size_t clauses = r.hard.size() + r.soft.size();
    EXPECT_EQ(r.formula.memBytesEstimate(),
              static_cast<std::int64_t>(
                  lits * sizeof(Lit) + clauses * sizeof(ClauseStore::Offset) +
                  r.soft.size() * sizeof(Weight)));
  }
}

TEST(WcnfStore, CostAndSatisfiedCountMatchAPerClauseEvaluation) {
  std::mt19937 rng(3);
  const auto satisfied = [](const Clause& c, const Assignment& a) {
    return std::ranges::any_of(c, [&](Lit p) {
      return applySign(a[static_cast<std::size_t>(p.var())], p) == lbool::True;
    });
  };
  int feasible = 0;
  int infeasible = 0;
  for (int round = 0; round < 300; ++round) {
    const RandomWcnf r = randomWcnf(rng, 1 + round % 7);
    Assignment a(static_cast<std::size_t>(r.formula.numVars()));
    for (lbool& v : a) v = rng() % 2 == 0 ? lbool::True : lbool::False;
    bool hardOk = true;
    for (const Clause& c : r.hard) hardOk = hardOk && satisfied(c, a);
    Weight cost = 0;
    int sat = 0;
    for (const auto& [c, weight] : r.soft) {
      if (satisfied(c, a)) {
        ++sat;
      } else {
        cost += weight;
      }
    }
    if (!hardOk) {
      ++infeasible;
      EXPECT_FALSE(r.formula.cost(a).has_value()) << "round " << round;
      EXPECT_FALSE(r.formula.numSoftSatisfied(a).has_value());
      continue;
    }
    ++feasible;
    EXPECT_EQ(r.formula.cost(a), cost) << "round " << round;
    EXPECT_EQ(r.formula.numSoftSatisfied(a), sat) << "round " << round;
  }
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0);
}

TEST(Dimacs, ErrorOnMissingHeader) {
  EXPECT_THROW(parseDimacsCnf("1 2 0\n"), DimacsError);
}

TEST(Dimacs, ErrorOnLiteralOutOfRange) {
  EXPECT_THROW(parseDimacsCnf("p cnf 2 1\n3 0\n"), DimacsError);
}

TEST(Dimacs, ErrorOnUnterminatedClause) {
  EXPECT_THROW(parseDimacsCnf("p cnf 2 1\n1 2\n"), DimacsError);
}

TEST(Oracle, SatAndUnsat) {
  CnfFormula sat(2);
  sat.addClause({posLit(0), posLit(1)});
  EXPECT_TRUE(oracleSat(sat).has_value());

  CnfFormula unsat(1);
  unsat.addClause({posLit(0)});
  unsat.addClause({negLit(0)});
  EXPECT_TRUE(oracleUnsat(unsat));
}

TEST(Oracle, MaxSatOptimum) {
  // The paper's Example 1: (x1)(x2 + ~x1)(~x2) — one clause must fall.
  CnfFormula f(2);
  f.addClause({posLit(0)});
  f.addClause({posLit(1), negLit(0)});
  f.addClause({negLit(1)});
  const OracleResult r = oracleMaxSat(WcnfFormula::allSoft(f));
  ASSERT_TRUE(r.optimumCost.has_value());
  EXPECT_EQ(*r.optimumCost, 1);
}

TEST(Oracle, MaxSatRespectsHardClauses) {
  WcnfFormula w(1);
  w.addHard({posLit(0)});
  w.addSoft({negLit(0)}, 1);
  const OracleResult r = oracleMaxSat(w);
  ASSERT_TRUE(r.optimumCost.has_value());
  EXPECT_EQ(*r.optimumCost, 1);
  EXPECT_EQ(r.model[0], lbool::True);
}

TEST(Oracle, MaxSatUnsatHard) {
  WcnfFormula w(1);
  w.addHard({posLit(0)});
  w.addHard({negLit(0)});
  w.addSoft({posLit(0)}, 1);
  EXPECT_FALSE(oracleMaxSat(w).optimumCost.has_value());
}

TEST(Oracle, SubsetUnsat) {
  CnfFormula f(2);
  f.addClause({posLit(0)});
  f.addClause({negLit(0)});
  f.addClause({posLit(1)});
  const std::vector<int> core{0, 1};
  EXPECT_TRUE(oracleSubsetUnsat(f, core));
  const std::vector<int> notCore{0, 2};
  EXPECT_FALSE(oracleSubsetUnsat(f, notCore));
}

}  // namespace
}  // namespace msu
