/// Tests of failed-literal probing with hyper-binary resolution and of
/// SCC-based equivalent-literal substitution (inprocessing round two):
/// a failed probe becomes a root unit, hyper-binary resolvents are
/// attached once and deduplicated across passes, binary-equivalent
/// literals collapse onto one representative (frozen members win the
/// representative election), a cycle through a complement refutes the
/// database, and assumptions over substituted variables are mapped in
/// and their cores mapped back out.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sat/solver.h"

namespace msu {
namespace {

/// Probing isolated: elimination and substitution off.
Solver::Options probeOpts() {
  Solver::Options o;
  o.inprocess = true;
  o.inprocess_bve_occ_limit = 0;
  o.inprocess_scc = false;
  return o;
}

/// Substitution isolated: elimination and probing off.
Solver::Options sccOpts() {
  Solver::Options o;
  o.inprocess = true;
  o.inprocess_bve_occ_limit = 0;
  o.inprocess_probe_props = 0;
  return o;
}

void addVars(Solver& s, int n) {
  while (s.numVars() < n) static_cast<void>(s.newVar());
}

TEST(Probing, FailedLiteralBecomesARootUnit) {
  // p implies a and b through binaries (p is a root of the binary
  // implication graph), and {a,b} refute themselves through two long
  // clauses — so probing p must fail and fix ~p at the root.
  Solver s(probeOpts());
  addVars(s, 4);
  const Lit p = posLit(0);
  const Lit a = posLit(1);
  const Lit b = posLit(2);
  const Lit c = posLit(3);
  ASSERT_TRUE(s.addClause({~p, a}));
  ASSERT_TRUE(s.addClause({~p, b}));
  ASSERT_TRUE(s.addClause({~a, ~b, c}));
  ASSERT_TRUE(s.addClause({~a, ~b, ~c}));

  ASSERT_TRUE(s.inprocessNow());
  EXPECT_GE(s.stats().inproc_probe_probes, 1);
  EXPECT_EQ(s.stats().inproc_probe_failed, 1);
  EXPECT_GT(s.stats().inproc_props, 0);

  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_EQ(s.modelValue(p), lbool::False);
}

TEST(Probing, HyperBinaryResolventAttachedOnceAndDeduplicated) {
  // Probing p propagates a through a binary and then u through the
  // long clause (~p|~a|u): the hyper-binary resolvent (~p|u) is new
  // and must be attached exactly once. On a second pass u travels
  // through the attached binary itself, so no duplicate appears.
  Solver s(probeOpts());
  addVars(s, 3);
  const Lit p = posLit(0);
  const Lit a = posLit(1);
  const Lit u = posLit(2);
  ASSERT_TRUE(s.addClause({~p, a}));
  ASSERT_TRUE(s.addClause({~p, ~a, u}));

  ASSERT_TRUE(s.inprocessNow());
  EXPECT_GE(s.stats().inproc_probe_probes, 1);
  EXPECT_EQ(s.stats().inproc_probe_hbr, 1);

  ASSERT_TRUE(s.inprocessNow());
  EXPECT_EQ(s.stats().inproc_probe_hbr, 1);  // deduplicated, not re-added
  EXPECT_EQ(s.solve(), lbool::True);
}

TEST(Probing, HyperBinaryResolventThatSubsumesAnOriginalIsPromoted) {
  // Probing p reaches u through (~a|~b|u), so (~p|u) is a hyper-binary
  // resolvent. It subsumes the original (~p|u|z), which is deleted, so
  // the binary must become irredundant: BVE deletes learnt binaries,
  // and extraction (irredundantClauses) leaves them out.
  Solver s(probeOpts());
  addVars(s, 5);
  const Lit p = posLit(0);
  const Lit a = posLit(1);
  const Lit b = posLit(2);
  const Lit u = posLit(3);
  const Lit z = posLit(4);
  ASSERT_TRUE(s.addClause({~p, a}));
  ASSERT_TRUE(s.addClause({~p, b}));
  ASSERT_TRUE(s.addClause({~a, ~b, u}));
  ASSERT_TRUE(s.addClause({~p, u, z}));

  ASSERT_TRUE(s.inprocessNow());
  EXPECT_EQ(s.stats().inproc_probe_hbr, 1);
  EXPECT_EQ(s.stats().inproc_subsumed, 1);
  EXPECT_EQ(s.numLearnts(), 0);
  EXPECT_EQ(s.numClauses(), 4);
  const std::vector<std::vector<Lit>> db = s.irredundantClauses();
  EXPECT_EQ(db.size(), 4u);
  EXPECT_NE(std::find(db.begin(), db.end(), std::vector<Lit>{~p, u}),
            db.end());
}

TEST(Probing, SccCollapsesAnEquivalenceOntoOneRepresentative) {
  // x <-> y through two binaries; the smaller-index literal x wins the
  // election, y is substituted away, and the long clause over y is
  // rewritten in place.
  Solver s(sccOpts());
  addVars(s, 4);
  const Lit x = posLit(0);
  const Lit y = posLit(1);
  const Lit z = posLit(2);
  const Lit w = posLit(3);
  ASSERT_TRUE(s.addClause({~x, y}));
  ASSERT_TRUE(s.addClause({~y, x}));
  ASSERT_TRUE(s.addClause({y, z, w}));

  ASSERT_TRUE(s.inprocessNow());
  EXPECT_EQ(s.stats().inproc_scc_vars, 1);
  EXPECT_GE(s.stats().inproc_scc_rewritten, 1);

  // The substitution is invisible from outside: models keep both
  // variables, and they agree.
  ASSERT_EQ(s.solve(), lbool::True);
  EXPECT_NE(s.modelValue(x), lbool::Undef);
  EXPECT_EQ(s.modelValue(x), s.modelValue(y));
}

TEST(Probing, SccCycleThroughAComplementRefutesTheDatabase) {
  // x -> y -> ~x and ~x -> w -> x put x and ~x in one strongly
  // connected component: the formula is unsatisfiable and the pass
  // must detect it without search.
  Solver s(sccOpts());
  addVars(s, 3);
  const Lit x = posLit(0);
  const Lit y = posLit(1);
  const Lit w = posLit(2);
  ASSERT_TRUE(s.addClause({~x, y}));
  ASSERT_TRUE(s.addClause({~y, ~x}));
  ASSERT_TRUE(s.addClause({x, w}));
  ASSERT_TRUE(s.addClause({~w, x}));

  EXPECT_FALSE(s.inprocessNow());
  EXPECT_FALSE(s.okay());
  EXPECT_EQ(s.solve(), lbool::False);
}

TEST(Probing, FrozenMemberWinsTheRepresentativeElection) {
  // x <-> y with y frozen: the pass must keep y (a tracker-style
  // selector) and substitute x, even though x has the smaller index.
  // Assumptions over x are mapped to y on the way in, and the core is
  // mapped back to the caller's literal on the way out.
  Solver s(sccOpts());
  addVars(s, 2);
  const Lit x = posLit(0);
  const Lit y = posLit(1);
  s.setFrozen(y.var(), true);
  ASSERT_TRUE(s.addClause({~x, y}));
  ASSERT_TRUE(s.addClause({~y, x}));

  ASSERT_TRUE(s.inprocessNow());
  EXPECT_EQ(s.stats().inproc_scc_vars, 1);

  // Assuming the substituted literal still works, and forces its
  // representative.
  const std::vector<Lit> assumeX{x};
  ASSERT_EQ(s.solve(assumeX), lbool::True);
  EXPECT_EQ(s.modelValue(x), lbool::True);
  EXPECT_EQ(s.modelValue(y), lbool::True);

  // Refute y: assuming x must now fail, and the core must name x — the
  // literal the caller assumed — not the internal representative.
  ASSERT_TRUE(s.addClause({~y}));
  ASSERT_EQ(s.solve(assumeX), lbool::False);
  ASSERT_EQ(s.core().size(), 1u);
  EXPECT_TRUE(s.core()[0] == x);
}

}  // namespace
}  // namespace msu
