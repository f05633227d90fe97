/// White-box tests of the SAT substrate's internals: the clause arena
/// (allocation, views, relocation GC), the indexed activity heap, and
/// the Budget type. Plus stress tests that force reduceDB and GC through
/// the public interface, bulk variable creation (newVars) against the
/// one-at-a-time path, and final-conflict cores against a reference
/// walk of the implication graph.

#include <gtest/gtest.h>

#include <random>

#include "cnf/oracle.h"
#include "proof/checker.h"
#include "proof/drup.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "harness/suite.h"
#include "sat/arena.h"
#include "sat/watches.h"
#include "sat/budget.h"
#include "sat/heap.h"
#include "sat/solver.h"

namespace msu {
namespace {

TEST(Arena, AllocAndView) {
  ClauseArena arena;
  const std::vector<Lit> lits{posLit(0), negLit(1), posLit(2)};
  const CRef ref = arena.alloc(lits, /*learnt=*/false);
  ClauseRefView c = arena[ref];
  EXPECT_EQ(c.size(), 3);
  EXPECT_FALSE(c.learnt());
  EXPECT_FALSE(c.deleted());
  EXPECT_EQ(c[0], posLit(0));
  EXPECT_EQ(c[1], negLit(1));
  EXPECT_EQ(c[2], posLit(2));
}

TEST(Arena, LearntActivity) {
  ClauseArena arena;
  const std::vector<Lit> lits{posLit(0), negLit(1)};
  const CRef ref = arena.alloc(lits, /*learnt=*/true);
  ClauseRefView c = arena[ref];
  EXPECT_TRUE(c.learnt());
  EXPECT_FLOAT_EQ(c.activity(), 0.0f);
  c.setActivity(3.5f);
  EXPECT_FLOAT_EQ(c.activity(), 3.5f);
}

TEST(Arena, LiteralMutationAndShrink) {
  ClauseArena arena;
  const std::vector<Lit> lits{posLit(0), posLit(1), posLit(2), posLit(3)};
  const CRef ref = arena.alloc(lits, false);
  ClauseRefView c = arena[ref];
  c[0] = negLit(7);
  EXPECT_EQ(c[0], negLit(7));
  c.shrink(2);
  EXPECT_EQ(c.size(), 2);
  EXPECT_EQ(c[1], posLit(1));
}

TEST(Arena, RelocationPreservesContent) {
  ClauseArena from;
  std::vector<CRef> refs;
  for (int i = 0; i < 50; ++i) {
    std::vector<Lit> lits;
    for (int j = 0; j <= i % 5 + 1; ++j) lits.push_back(posLit(i + j));
    refs.push_back(from.alloc(lits, i % 3 == 0));
  }
  // Mark some deleted (GC keeps them; deletion flag carries over).
  from[refs[4]].markDeleted();

  ClauseArena to;
  std::vector<CRef> moved = refs;
  for (CRef& r : moved) from.reloc(r, to);
  // Re-relocating through the forwarding pointer gives the same target.
  std::vector<CRef> again = refs;
  for (CRef& r : again) from.reloc(r, to);
  EXPECT_EQ(moved, again);

  for (std::size_t i = 0; i < refs.size(); ++i) {
    ClauseRefView c = to[moved[i]];
    EXPECT_EQ(c.size(), static_cast<int>(i % 5 + 2));
    EXPECT_EQ(c[0], posLit(static_cast<Var>(i)));
    EXPECT_EQ(c.learnt(), i % 3 == 0);
  }
  EXPECT_TRUE(to[moved[4]].deleted());
}

TEST(Arena, LearntClauseSurvivesRelocation) {
  // A learnt clause of n literals is stored as header + activity word +
  // literals, plus the trailing activator tag word when tagged; GC
  // relocation carries activity, literals and tag.
  ClauseArena arena;
  const std::vector<Lit> lits{posLit(0), negLit(1), posLit(2)};
  const std::size_t n = lits.size();
  CRef plain = arena.alloc(lits, /*learnt=*/true);
  EXPECT_EQ(arena.size(), n + 2);
  CRef tagged = arena.alloc(lits, /*learnt=*/true, /*tagVar=*/7);
  EXPECT_EQ(arena.size() - tagged, n + 3);
  EXPECT_EQ(arena[tagged].headerWords(), 3);
  arena[plain].setActivity(3.5f);
  arena[tagged].setActivity(1.25f);

  ClauseArena to;
  arena.reloc(plain, to);
  arena.reloc(tagged, to);
  EXPECT_EQ(to.size(), 2 * n + 5);
  for (const CRef ref : {plain, tagged}) {
    const ClauseRefView c = to[ref];
    EXPECT_TRUE(c.learnt());
    ASSERT_EQ(c.size(), 3);
    EXPECT_EQ(c[0], posLit(0));
    EXPECT_EQ(c[1], negLit(1));
    EXPECT_EQ(c[2], posLit(2));
  }
  EXPECT_FLOAT_EQ(to[plain].activity(), 3.5f);
  EXPECT_FLOAT_EQ(to[tagged].activity(), 1.25f);
  EXPECT_FALSE(to[plain].tagged());
  ASSERT_TRUE(to[tagged].tagged());
  EXPECT_EQ(to[tagged].tag(), 7);
}

TEST(Arena, WastedAccounting) {
  ClauseArena arena;
  const std::vector<Lit> lits{posLit(0), posLit(1)};
  const CRef a = arena.alloc(lits, false);
  EXPECT_EQ(arena.wasted(), 0u);
  arena[a].markDeleted();
  arena.markWasted(2, false);
  EXPECT_EQ(arena.wasted(), 3u);  // header + 2 lits
}

TEST(Heap, MaxActivityComesFirst) {
  std::vector<double> act{1.0, 5.0, 3.0, 4.0, 2.0};
  VarOrderHeap heap(act);
  for (Var v = 0; v < 5; ++v) heap.insert(v);
  EXPECT_EQ(heap.removeMax(), 1);
  EXPECT_EQ(heap.removeMax(), 3);
  EXPECT_EQ(heap.removeMax(), 2);
  EXPECT_EQ(heap.removeMax(), 4);
  EXPECT_EQ(heap.removeMax(), 0);
  EXPECT_TRUE(heap.empty());
}

TEST(Heap, UpdateAfterActivityBump) {
  std::vector<double> act{1.0, 2.0, 3.0};
  VarOrderHeap heap(act);
  for (Var v = 0; v < 3; ++v) heap.insert(v);
  act[0] = 10.0;
  heap.update(0);
  EXPECT_EQ(heap.removeMax(), 0);
}

TEST(Heap, ContainsAndReinsert) {
  std::vector<double> act{1.0, 2.0};
  VarOrderHeap heap(act);
  heap.insert(0);
  EXPECT_TRUE(heap.contains(0));
  EXPECT_FALSE(heap.contains(1));
  EXPECT_EQ(heap.removeMax(), 0);
  EXPECT_FALSE(heap.contains(0));
  heap.insert(0);
  heap.insert(1);
  EXPECT_EQ(heap.removeMax(), 1);
}

TEST(Heap, BuildFromList) {
  std::vector<double> act{5.0, 1.0, 9.0, 2.0};
  VarOrderHeap heap(act);
  heap.insert(0);
  heap.build({1, 2, 3});  // replaces content
  EXPECT_FALSE(heap.contains(0));
  EXPECT_EQ(heap.removeMax(), 2);
  EXPECT_EQ(heap.removeMax(), 3);
  EXPECT_EQ(heap.removeMax(), 1);
}

TEST(Heap, RandomizedAgainstSort) {
  std::mt19937_64 rng(5);
  for (int round = 0; round < 20; ++round) {
    const int n = 1 + static_cast<int>(rng() % 40);
    std::vector<double> act(static_cast<std::size_t>(n));
    for (double& a : act) {
      a = static_cast<double>(rng() % 1000);
    }
    VarOrderHeap heap(act);
    for (Var v = 0; v < n; ++v) heap.insert(v);
    std::vector<Var> order;
    while (!heap.empty()) order.push_back(heap.removeMax());
    for (std::size_t i = 1; i < order.size(); ++i) {
      EXPECT_GE(act[order[i - 1]], act[order[i]]) << "round " << round;
    }
  }
}

TEST(Budget, UnlimitedByDefault) {
  const Budget b;
  EXPECT_TRUE(b.isUnlimited());
  EXPECT_FALSE(b.timeExpired());
  EXPECT_FALSE(b.conflictsExhausted(1'000'000'000));
  EXPECT_FALSE(b.nodesExhausted(1'000'000'000));
}

TEST(Budget, ConflictLimit) {
  const Budget b = Budget::conflicts(100);
  EXPECT_FALSE(b.conflictsExhausted(99));
  EXPECT_TRUE(b.conflictsExhausted(100));
  EXPECT_FALSE(b.isUnlimited());
}

TEST(Budget, WallClockExpires) {
  Budget b = Budget::wallClock(0.0);
  EXPECT_TRUE(b.timeExpired());
  Budget c = Budget::wallClock(60.0);
  EXPECT_FALSE(c.timeExpired());
}

TEST(Budget, NodeLimit) {
  Budget b;
  b.setMaxNodes(10);
  EXPECT_FALSE(b.nodesExhausted(9));
  EXPECT_TRUE(b.nodesExhausted(10));
}

// ---- stress through the public interface ---------------------------------

TEST(SolverStress, ManySolvesExerciseReduceDbAndGc) {
  // A long incremental session: repeatedly add constraints and solve, so
  // learnt clauses accumulate, reduceDB fires, and the arena GC runs.
  Solver s;
  const CnfFormula base = randomKSat(
      {.numVars = 60, .numClauses = 240, .clauseLen = 3, .seed = 99});
  while (s.numVars() < base.numVars()) static_cast<void>(s.newVar());
  for (const Clause& c : base.clauses()) ASSERT_TRUE(s.addClause(c));

  std::mt19937_64 rng(123);
  int satCount = 0;
  for (int round = 0; round < 60 && s.okay(); ++round) {
    // Random assumption pair each round.
    std::vector<Lit> assumps;
    for (int i = 0; i < 3; ++i) {
      assumps.push_back(Lit(static_cast<Var>(rng() % 60), (rng() & 1) != 0));
    }
    const lbool st = s.solve(assumps);
    ASSERT_NE(st, lbool::Undef);
    if (st == lbool::True) ++satCount;
    // Periodically grow the formula.
    if (round % 7 == 3) {
      const Var a = static_cast<Var>(rng() % 60);
      const Var b = static_cast<Var>(rng() % 60);
      if (a != b) {
        static_cast<void>(
            s.addClause({Lit(a, (rng() & 1) != 0), Lit(b, (rng() & 1) != 0)}));
      }
    }
  }
  EXPECT_GT(satCount, 0);
  EXPECT_GT(s.stats().solves, 50);
}

TEST(SolverStress, DeepIncrementalMatchesOracle) {
  // Add clauses one at a time, solving after each addition; the verdict
  // must track the oracle at every step (catches stale-state bugs in
  // incremental paths).
  const CnfFormula f = randomKSat(
      {.numVars = 9, .numClauses = 50, .clauseLen = 3, .seed = 321});
  Solver s;
  while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());
  CnfFormula sofar(f.numVars());
  for (int i = 0; i < f.numClauses(); ++i) {
    static_cast<void>(s.addClause(f.clause(i)));
    sofar.addClause(f.clause(i));
    const lbool st = s.solve();
    ASSERT_NE(st, lbool::Undef);
    EXPECT_EQ(st == lbool::True, oracleSat(sofar).has_value())
        << "after clause " << i;
    if (st == lbool::False) break;
  }
}

TEST(ReduceDb, FrequentDeletionStaysCorrectOnRandomInstances) {
  // Learnt-clause deletion must not change verdicts or models. The
  // learnt-DB limit never drops below 100 clauses, so the instances are
  // threshold 3-SAT large enough to learn past it (too large for the
  // exhaustive oracle): the reference verdict comes from a solver whose
  // limit is never reached.
  const auto solveWith = [](const CnfFormula& f, Solver& s) {
    while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());
    bool ok = true;
    for (const Clause& c : f.clauses()) ok = ok && s.addClause(c);
    return ok ? s.solve() : lbool::False;
  };
  std::int64_t removed = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const CnfFormula f = randomKSat(
        {.numVars = 100, .numClauses = 426, .clauseLen = 3, .seed = seed * 5});
    Solver::Options opts;
    opts.learntsize_factor = 0.05;  // force frequent reductions
    Solver s(opts);
    const lbool st = solveWith(f, s);
    ASSERT_NE(st, lbool::Undef);
    Solver::Options keepAll;
    keepAll.learntsize_factor = 1e9;
    Solver reference(keepAll);
    EXPECT_EQ(st, solveWith(f, reference)) << "seed " << seed;
    EXPECT_EQ(reference.stats().removed_clauses, 0);
    if (st == lbool::True) {
      Assignment model(static_cast<std::size_t>(f.numVars()));
      for (Var v = 0; v < f.numVars(); ++v) {
        model[static_cast<std::size_t>(v)] =
            s.model()[static_cast<std::size_t>(v)];
      }
      EXPECT_TRUE(f.satisfies(model)) << "seed " << seed;
    }
    removed += s.stats().removed_clauses;
  }
  EXPECT_GT(removed, 0);  // deletion really fired
}

TEST(ReduceDb, FrequentDeletionKeepsProofsValid) {
  // Clause deletions must still leave an RUP-checkable trace.
  const CnfFormula f = pigeonhole(7, 6);
  InMemoryProof proof;
  Solver::Options opts;
  opts.learntsize_factor = 0.02;
  opts.tracer = &proof;
  Solver s(opts);
  while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());
  for (const Clause& c : f.clauses()) {
    if (!s.addClause(c)) break;
  }
  ASSERT_EQ(s.okay() ? s.solve() : lbool::False, lbool::False);
  EXPECT_GT(s.stats().removed_clauses, 0);  // deletion really fired
  const ProofCheckResult r = checkProof(proof.lines());
  EXPECT_TRUE(r.ok) << "bad line " << r.firstBadLine;
  EXPECT_TRUE(r.refutationVerified);
}

TEST(FlatWatches, PushGrowRemoveCompact) {
  // Direct exercise of the flat occurrence lists: interleaved growth
  // relocates segments within the pool; compact() defragments without
  // losing entries.
  FlatOccLists<Watcher> lists;
  constexpr int kLits = 10;
  for (int i = 0; i < kLits; ++i) lists.addLiteral();
  for (std::uint32_t round = 0; round < 20; ++round) {
    for (int i = 0; i < kLits; ++i) {
      lists.push(Lit::fromIndex(i), Watcher{round * kLits + i, kUndefLit});
    }
  }
  for (int i = 0; i < kLits; ++i) {
    ASSERT_EQ(lists.sizeOf(Lit::fromIndex(i)), 20u);
  }
  EXPECT_GT(lists.wasted(), 0u);

  // Swap-with-back removal of one entry per list.
  for (int i = 0; i < kLits; ++i) {
    const CRef target = 5u * kLits + static_cast<CRef>(i);
    EXPECT_TRUE(lists.removeOne(Lit::fromIndex(i), [&](const Watcher& w) {
      return w.cref == target;
    }));
  }

  lists.compact();
  EXPECT_EQ(lists.wasted(), 0u);
  for (int i = 0; i < kLits; ++i) {
    const auto ws = lists.list(Lit::fromIndex(i));
    ASSERT_EQ(ws.size(), 19u);
    for (const Watcher& w : ws) {
      EXPECT_EQ(static_cast<int>(w.cref) % kLits, i);
      EXPECT_NE(w.cref / static_cast<CRef>(kLits), 5u);
    }
  }
}

TEST(BinaryFastPath, GcWithBinaryAndLongClausesKeepsWatchesIntact) {
  // Force reduceDB + arena GC while binary and long clauses coexist;
  // every verdict must keep matching the oracle (a stale or dropped
  // watcher would show up as a wrong SAT/UNSAT answer).
  const int n = 16;
  std::mt19937_64 rng(2024);
  CnfFormula base(n);
  for (int i = 0; i < 26; ++i) {  // binary layer
    const Var a = static_cast<Var>(rng() % n);
    const Var b = static_cast<Var>(rng() % n);
    if (a == b) continue;
    base.addClause({Lit(a, (rng() & 1) != 0), Lit(b, (rng() & 1) != 0)});
  }
  for (int i = 0; i < 40; ++i) {  // long layer
    const Var a = static_cast<Var>(rng() % n);
    const Var b = static_cast<Var>(rng() % n);
    const Var c = static_cast<Var>(rng() % n);
    if (a == b || b == c || a == c) continue;
    base.addClause({Lit(a, (rng() & 1) != 0), Lit(b, (rng() & 1) != 0),
                    Lit(c, (rng() & 1) != 0)});
  }

  Solver::Options opts;
  opts.garbage_frac = 0.01;       // GC at the slightest waste
  opts.learntsize_factor = 0.02;  // reduceDB constantly
  Solver s(opts);
  while (s.numVars() < n) static_cast<void>(s.newVar());
  bool ok = true;
  for (const Clause& c : base.clauses()) ok = ok && s.addClause(c);
  ASSERT_TRUE(ok);

  for (int round = 0; round < 40 && s.okay(); ++round) {
    std::vector<Lit> assumps;
    for (int i = 0; i < 2; ++i) {
      assumps.push_back(Lit(static_cast<Var>(rng() % n), (rng() & 1) != 0));
    }
    const lbool st = s.solve(assumps);
    ASSERT_NE(st, lbool::Undef);

    CnfFormula augmented = base;
    for (Lit p : assumps) augmented.addClause({p});
    EXPECT_EQ(st == lbool::True, oracleSat(augmented).has_value())
        << "round " << round;
  }
}

TEST(BinaryFastPath, CoreThroughBinaryReasonChain) {
  // The final conflict is driven entirely through binary reasons:
  // a -> x0 -> x1 -> ... -> xk -> ~b with both a and b assumed. Core
  // extraction must walk the inline binary reasons back to {a, b}.
  constexpr int kChain = 6;
  Solver s;
  const Var a = s.newVar();
  const Var b = s.newVar();
  std::vector<Var> x;
  for (int i = 0; i < kChain; ++i) x.push_back(s.newVar());

  ASSERT_TRUE(s.addClause({negLit(a), posLit(x[0])}));
  for (int i = 0; i + 1 < kChain; ++i) {
    ASSERT_TRUE(s.addClause({negLit(x[i]), posLit(x[i + 1])}));
  }
  ASSERT_TRUE(s.addClause({negLit(x[kChain - 1]), negLit(b)}));

  const std::vector<Lit> assumps{posLit(a), posLit(b)};
  ASSERT_EQ(s.solve(assumps), lbool::False);
  std::vector<Lit> core = s.core();
  std::sort(core.begin(), core.end());
  ASSERT_EQ(core.size(), 2u);
  EXPECT_EQ(core[0], posLit(a));
  EXPECT_EQ(core[1], posLit(b));

  // The database itself stays satisfiable without the assumptions.
  EXPECT_EQ(s.solve(), lbool::True);
}

// ---- Bulk variable creation ------------------------------------------------

/// Loads `w` with one selector variable per soft clause (after the
/// original variables), creating the variables one newVar() at a time
/// or with two newVars() calls. Returns the selector assumptions.
std::vector<Lit> loadWithSelectors(Solver& s, const WcnfFormula& w,
                                   bool bulk) {
  if (bulk) {
    s.newVars(w.numVars());
    s.newVars(w.numSoft());
  } else {
    for (int i = 0; i < w.numVars() + w.numSoft(); ++i) {
      static_cast<void>(s.newVar());
    }
  }
  for (const std::span<const Lit> h : w.hard()) {
    static_cast<void>(s.addClause(h));
  }
  std::vector<Lit> assumps;
  Clause c;
  for (int i = 0; i < w.numSoft(); ++i) {
    const std::span<const Lit> lits =
        w.soft()[static_cast<std::size_t>(i)].lits;
    c.assign(lits.begin(), lits.end());
    const Var selector = w.numVars() + i;
    c.push_back(posLit(selector));
    static_cast<void>(s.addClause(c));
    assumps.push_back(negLit(selector));
  }
  return assumps;
}

/// Both solvers are in the same search state so far.
void expectSameSearch(const Solver& a, const Solver& b,
                      const std::string& what) {
  EXPECT_EQ(a.numVars(), b.numVars()) << what;
  EXPECT_EQ(a.stats().decisions, b.stats().decisions) << what;
  EXPECT_EQ(a.stats().propagations, b.stats().propagations) << what;
  EXPECT_EQ(a.stats().conflicts, b.stats().conflicts) << what;
  EXPECT_EQ(a.model(), b.model()) << what;
  EXPECT_EQ(a.core(), b.core()) << what;
}

TEST(NewVars, MatchesANewVarLoopOnTheMixedSuite) {
  const std::vector<Instance> suite =
      buildMixedSuite({.sizeScale = 0.3, .perFamily = 2, .seed = 19});
  std::int64_t conflicts = 0;
  for (const Instance& inst : suite) {
    Solver loop;
    Solver bulk;
    const std::vector<Lit> assumps = loadWithSelectors(loop, inst.wcnf, false);
    ASSERT_EQ(loadWithSelectors(bulk, inst.wcnf, true), assumps);
    ASSERT_EQ(bulk.numVars(), inst.wcnf.numVars() + inst.wcnf.numSoft());
    expectSameSearch(loop, bulk, inst.name + " loaded");
    // Every soft enforced (the suite is unsatisfiable: a core), then
    // half of them, then none (a model of the hard clauses).
    ASSERT_EQ(bulk.solve(assumps), loop.solve(assumps)) << inst.name;
    expectSameSearch(loop, bulk, inst.name + " all softs");
    const std::span<const Lit> half(assumps.data(), assumps.size() / 2);
    ASSERT_EQ(bulk.solve(half), loop.solve(half)) << inst.name;
    expectSameSearch(loop, bulk, inst.name + " half the softs");
    ASSERT_EQ(bulk.solve(), loop.solve()) << inst.name;
    expectSameSearch(loop, bulk, inst.name + " hard clauses");
    conflicts += loop.stats().conflicts;
  }
  EXPECT_GE(suite.size(), 10u);
  EXPECT_GT(conflicts, 0);  // real search, not only root propagation
}

TEST(NewVars, RecycledVariablesAndAnOpenScopeKeepNewVarSemantics) {
  // Two solvers in the same state: a retired scope left recycled
  // variables behind.
  const auto prepare = [](Solver& s) {
    s.newVars(8);
    const Lit act = s.newActivator();
    s.openScope(act);
    for (int i = 0; i < 5; ++i) {
      const Var v = s.newVar();
      ASSERT_TRUE(s.addClause({negLit(0), posLit(v)}));
    }
    s.closeScope(act);
    s.retire(act);
  };
  Solver loop;
  Solver bulk;
  prepare(loop);
  prepare(bulk);
  ASSERT_GT(loop.numFreeVars(), 0);
  ASSERT_EQ(bulk.numFreeVars(), loop.numFreeVars());

  // Recycles every free variable, then grows.
  const int n = loop.numFreeVars() + 4;
  for (int i = 0; i < n; ++i) static_cast<void>(loop.newVar());
  bulk.newVars(n);
  EXPECT_EQ(bulk.numVars(), loop.numVars());
  EXPECT_EQ(bulk.numFreeVars(), 0);
  EXPECT_EQ(loop.numFreeVars(), 0);

  // With a scope open the new variables belong to it: its retirement
  // recycles them.
  const Lit loopAct = loop.newActivator();
  const Lit bulkAct = bulk.newActivator();
  loop.openScope(loopAct);
  bulk.openScope(bulkAct);
  for (int i = 0; i < 6; ++i) static_cast<void>(loop.newVar());
  bulk.newVars(6);
  loop.closeScope(loopAct);
  bulk.closeScope(bulkAct);
  loop.retire(loopAct);
  bulk.retire(bulkAct);
  EXPECT_EQ(bulk.numVars(), loop.numVars());
  EXPECT_EQ(bulk.numFreeVars(), loop.numFreeVars());
  EXPECT_GE(bulk.numFreeVars(), 6);

  // The same search over every variable afterwards.
  const CnfFormula f = randomKSat({.numVars = loop.numVars(),
                                   .numClauses = 4 * loop.numVars(),
                                   .clauseLen = 3,
                                   .seed = 5});
  for (const Clause& c : f.clauses()) {
    const bool added = loop.addClause(c);
    ASSERT_EQ(bulk.addClause(c), added);
    if (!added) break;
  }
  ASSERT_EQ(bulk.solve(), loop.solve());
  expectSameSearch(loop, bulk, "after recycling");
}

// ---- Final-conflict cores --------------------------------------------------

TEST(AnalyzeFinal, CoreMatchesAReverseWalkOfTheImplicationGraph) {
  // Assumptions x_0..x_{k-1} then q. Derived variables y_j each have a
  // single clause that implies them from one to three antecedents among
  // a root fact z, the x and earlier y, so every y has one reason and
  // the trail's implication graph is fixed. A final clause (~y_m | ~q)
  // makes q false when its turn comes. The core is then q followed by
  // the x in y_m's cone, latest first: what a walk of the whole trail
  // from its top down to the first decision collects. Cones that skip
  // most of the x exercise the walk's early stop.
  std::mt19937_64 rng(19);
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::size_t skipped = 0;
  for (int round = 0; round < 300; ++round) {
    const std::size_t k = 3 + below(40);
    const std::size_t d = 1 + below(60);
    const Var z = 0;
    const auto x = [](std::size_t i) { return static_cast<Var>(1 + i); };
    const auto y = [&](std::size_t j) { return static_cast<Var>(1 + k + j); };
    const Var q = static_cast<Var>(1 + k + d);
    Solver s;
    s.newVars(q + 1);
    ASSERT_TRUE(s.addClause({posLit(z)}));
    // ante[j]: y_j's antecedents; some rounds draw the x only from the
    // last few, so the cone lies high on the trail.
    const std::size_t xFrom = round % 2 == 0 ? 0 : below(k);
    std::vector<std::vector<Var>> ante(d);
    for (std::size_t j = 0; j < d; ++j) {
      for (std::size_t a = 0, n = 1 + below(3); a < n; ++a) {
        const std::size_t pick = below(4);
        if (pick == 0) {
          ante[j].push_back(z);
        } else if (pick == 1 && j > 0) {
          ante[j].push_back(y(below(j)));
        } else {
          ante[j].push_back(x(xFrom + below(k - xFrom)));
        }
      }
      Clause c;
      for (const Var v : ante[j]) c.push_back(negLit(v));
      c.push_back(posLit(y(j)));
      ASSERT_TRUE(s.addClause(c));
    }
    const std::size_t m = below(d);
    const bool rootFalse = round % 10 == 9;  // q false at level 0
    ASSERT_TRUE(rootFalse ? s.addClause({negLit(q)})
                          : s.addClause({negLit(y(m)), negLit(q)}));

    // Reference: y_m's cone over the antecedent lists.
    std::vector<char> inCone(static_cast<std::size_t>(q + 1), 0);
    std::vector<Var> stack{y(m)};
    while (!stack.empty()) {
      const Var v = stack.back();
      stack.pop_back();
      if (inCone[static_cast<std::size_t>(v)] != 0) continue;
      inCone[static_cast<std::size_t>(v)] = 1;
      if (v > static_cast<Var>(k)) {
        for (const Var a : ante[static_cast<std::size_t>(v - y(0))]) {
          stack.push_back(a);
        }
      }
    }
    std::vector<Lit> want{posLit(q)};
    if (!rootFalse) {
      for (std::size_t i = k; i-- > 0;) {
        if (inCone[static_cast<std::size_t>(x(i))] != 0) {
          want.push_back(posLit(x(i)));
        }
      }
      skipped += k + 1 - want.size();
    }

    std::vector<Lit> assumps;
    for (std::size_t i = 0; i < k; ++i) assumps.push_back(posLit(x(i)));
    assumps.push_back(posLit(q));
    ASSERT_EQ(s.solve(assumps), lbool::False) << "round " << round;
    EXPECT_EQ(s.core(), want) << "round " << round;
  }
  EXPECT_GT(skipped, 0u);
}

}  // namespace
}  // namespace msu
