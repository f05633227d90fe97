/// Tests for the core-module infrastructure: SoftTracker selector
/// bookkeeping and the IncrementalAtMost / AssumableAtMost reuse
/// helpers.

#include <gtest/gtest.h>

#include <bit>

#include "core/incremental_atmost.h"
#include "core/soft_tracker.h"
#include "encodings/sink.h"

namespace msu {
namespace {

TEST(SoftTracker, SelectorsEnforceAndRelax) {
  WcnfFormula w(2);
  w.addSoft({posLit(0)}, 1);
  w.addSoft({negLit(0)}, 1);
  w.addSoft({posLit(1)}, 1);
  Solver s;
  SoftTracker t(s, w);
  EXPECT_EQ(t.numSoft(), 3);
  EXPECT_EQ(t.numOriginalVars(), 2);

  // All enforced: clauses 0 and 1 conflict.
  ASSERT_EQ(s.solve(t.assumptions()), lbool::False);
  const std::vector<int> core = t.coreSoftIndices(s.core());
  ASSERT_FALSE(core.empty());
  for (int i : core) EXPECT_LT(i, 2);  // clause 2 is irrelevant

  // Relax the core: now satisfiable.
  for (int i : core) t.relax(i);
  EXPECT_EQ(t.numRelaxed(), static_cast<int>(core.size()));
  ASSERT_EQ(s.solve(t.assumptions()), lbool::True);
  EXPECT_EQ(t.blockingLits().size(), core.size());
}

TEST(SoftTracker, RelaxedFalsifiedCostMatchesModel) {
  WcnfFormula w(1);
  w.addSoft({posLit(0)}, 1);
  w.addSoft({negLit(0)}, 1);
  Solver s;
  SoftTracker t(s, w);
  t.relax(0);
  t.relax(1);
  ASSERT_EQ(s.solve(t.assumptions()), lbool::True);
  // Exactly one of the two unit clauses is falsified by any assignment.
  EXPECT_EQ(t.relaxedFalsifiedCost(w, s.model()), 1);
  EXPECT_GE(t.blockingAssignedTrue(s.model()), 1);
}

TEST(SoftTracker, SoftOfVarMapsOnlySelectors) {
  WcnfFormula w(3);
  w.addSoft({posLit(0), posLit(1)}, 1);
  w.addSoft({posLit(2)}, 1);
  Solver s;
  SoftTracker t(s, w);
  EXPECT_FALSE(t.softOfVar(0).has_value());
  EXPECT_FALSE(t.softOfVar(2).has_value());
  EXPECT_EQ(t.softOfVar(t.selector(0).var()), 0);
  EXPECT_EQ(t.softOfVar(t.selector(1).var()), 1);
  EXPECT_FALSE(t.softOfVar(999).has_value());
}

TEST(IncrementalAtMost, GrowingSetWithTighteningBounds) {
  for (CardEncoding enc :
       {CardEncoding::Bdd, CardEncoding::Sorter, CardEncoding::Sequential,
        CardEncoding::Totalizer}) {
    for (bool reuse : {true, false}) {
      Solver s;
      SolverSink sink(s);
      std::vector<Lit> lits;
      for (int i = 0; i < 6; ++i) lits.push_back(posLit(s.newVar()));
      IncrementalAtMost inc(enc, reuse);

      std::vector<Lit> firstFour(lits.begin(), lits.begin() + 4);
      inc.assertAtMost(sink, firstFour, 2);
      inc.assertAtMost(sink, lits, 3);  // grown set
      inc.assertAtMost(sink, lits, 2);  // tightened

      // Now: at most 2 of first four, at most 2 of all six.
      auto popOk = [&](std::uint32_t mask) {
        const int firstPop = std::popcount(mask & 0xFu);
        const int allPop = std::popcount(mask);
        return firstPop <= 2 && allPop <= 2;
      };
      for (std::uint32_t mask = 0; mask < 64; ++mask) {
        std::vector<Lit> assumps;
        for (int i = 0; i < 6; ++i) {
          assumps.push_back(((mask >> i) & 1u) != 0 ? lits[i] : ~lits[i]);
        }
        EXPECT_EQ(s.solve(assumps) == lbool::True, popOk(mask))
            << toString(enc) << " reuse=" << reuse << " mask=" << mask;
      }
    }
  }
}

TEST(SoftTracker, BlockingLitsFollowRelaxationOrder) {
  // Regression: blocking literals must be append-only in *relaxation*
  // order — soft-index order breaks incremental totalizer extension
  // (a later-relaxed lower index used to shift the whole vector).
  WcnfFormula w(3);
  w.addSoft({posLit(0)}, 1);
  w.addSoft({posLit(1)}, 1);
  w.addSoft({posLit(2)}, 1);
  Solver s;
  SoftTracker t(s, w);
  t.relax(2);
  const std::vector<Lit> first = t.blockingLits();
  t.relax(0);  // lower soft index relaxed later
  const std::vector<Lit> second = t.blockingLits();
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0], first[0]) << "prefix changed: not append-only";
  EXPECT_EQ(second[1], t.selector(0));
}

TEST(IncrementalAtMost, TotalizerSurvivesNonPrefixGrowth) {
  // Even if a caller hands over literals that do NOT extend the previous
  // set as a prefix, the constraint must stay correct (fallback path).
  Solver s;
  SolverSink sink(s);
  std::vector<Lit> lits;
  for (int i = 0; i < 4; ++i) lits.push_back(posLit(s.newVar()));
  IncrementalAtMost inc(CardEncoding::Totalizer, /*reuse=*/true);
  const std::vector<Lit> firstSet{lits[2], lits[3]};
  inc.assertAtMost(sink, firstSet, 1);
  const std::vector<Lit> secondSet{lits[0], lits[2], lits[3]};  // no prefix
  inc.assertAtMost(sink, secondSet, 1);
  for (std::uint32_t mask = 0; mask < 16; ++mask) {
    std::vector<Lit> assumps;
    for (int i = 0; i < 4; ++i) {
      assumps.push_back(((mask >> i) & 1u) != 0 ? lits[i] : ~lits[i]);
    }
    const bool okFirst =
        ((mask >> 2) & 1u) + ((mask >> 3) & 1u) <= 1;
    const bool okSecond =
        (mask & 1u) + ((mask >> 2) & 1u) + ((mask >> 3) & 1u) <= 1;
    EXPECT_EQ(s.solve(assumps) == lbool::True, okFirst && okSecond)
        << "mask " << mask;
  }
}

TEST(AssumableAtMost, BoundLitsEnforceWhenAssumed) {
  for (CardEncoding enc :
       {CardEncoding::Bdd, CardEncoding::Sorter, CardEncoding::Sequential,
        CardEncoding::Totalizer}) {
    Solver s;
    SolverSink sink(s);
    std::vector<Lit> lits;
    for (int i = 0; i < 5; ++i) lits.push_back(posLit(s.newVar()));
    AssumableAtMost am(sink, lits, enc);

    EXPECT_FALSE(am.boundLit(5).has_value());  // trivial
    for (int k : {1, 3, 2}) {  // out of order on purpose
      const std::optional<Lit> b = am.boundLit(k);
      ASSERT_TRUE(b.has_value());
      for (std::uint32_t mask = 0; mask < 32; ++mask) {
        std::vector<Lit> assumps{*b};
        for (int i = 0; i < 5; ++i) {
          assumps.push_back(((mask >> i) & 1u) != 0 ? lits[i] : ~lits[i]);
        }
        EXPECT_EQ(s.solve(assumps) == lbool::True,
                  std::popcount(mask) <= k)
            << toString(enc) << " k=" << k << " mask=" << mask;
      }
    }
    // Without any bound assumption everything is allowed.
    std::vector<Lit> all(lits);
    EXPECT_EQ(s.solve(all), lbool::True) << toString(enc);
  }
}

}  // namespace
}  // namespace msu
