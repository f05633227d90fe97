/// Tests of failed-literal probing with hyper-binary resolution
/// (inprocessing round two): a failed probe becomes a root unit, and
/// hyper-binary resolvents are attached once, deduplicated across
/// passes, and promoted when they subsume an original clause.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sat/solver.h"

namespace msu {
namespace {

/// Probing isolated: elimination off.
Solver::Options probeOpts() {
  Solver::Options o;
  o.inprocess = true;
  o.inprocess_bve_occ_limit = 0;
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

}  // namespace
}  // namespace msu
