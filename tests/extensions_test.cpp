/// Tests for the extension modules beyond the paper's core algorithm:
/// core trimming/minimization, weighted Fu-Malik (wmsu1), MaxSAT-safe
/// preprocessing, and the test-pattern-generation instance family.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "cnf/oracle.h"
#include "core/core_trim.h"
#include "core/msu4.h"
#include "core/preprocess.h"
#include "core/wmsu1.h"
#include "gen/random_cnf.h"
#include "gen/tpg.h"
#include "harness/factory.h"
#include "sat/solver.h"

namespace msu {
namespace {

// ---- core trimming --------------------------------------------------------

/// Builds a solver with selector-augmented clauses of `f`; returns the
/// selector assumptions (negated selectors).
std::vector<Lit> loadWithSelectors(Solver& s, const CnfFormula& f) {
  while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());
  std::vector<Lit> assumps;
  for (const Clause& c : f.clauses()) {
    const Var sel = s.newVar();
    Clause aug = c;
    aug.push_back(posLit(sel));
    static_cast<void>(s.addClause(aug));
    assumps.push_back(negLit(sel));
  }
  return assumps;
}

TEST(CoreTrim, TrimmedCoreStillFails) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 10; ++round) {
    const CnfFormula f = randomKSat(
        {.numVars = 8, .numClauses = 40, .clauseLen = 3, .seed = rng()});
    Solver s;
    const std::vector<Lit> assumps = loadWithSelectors(s, f);
    if (s.solve(assumps) != lbool::False) continue;
    const std::vector<Lit> original = s.core();
    const std::vector<Lit> trimmed = trimCore(s, original, /*rounds=*/4);
    EXPECT_LE(trimmed.size(), original.size());
    // The trimmed set must still be a failing assumption set.
    EXPECT_EQ(s.solve(trimmed), lbool::False);
  }
}

TEST(CoreTrim, Msu4WithTrimmingAgreesWithOracle) {
  MaxSatOptions o;
  o.trimCoreRounds = 3;
  Msu4Solver solver(o);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const WcnfFormula w = WcnfFormula::allSoft(randomKSat(
        {.numVars = 8, .numClauses = 40, .clauseLen = 3, .seed = seed * 37}));
    const OracleResult truth = oracleMaxSat(w);
    const MaxSatResult r = solver.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "seed " << seed;
    EXPECT_EQ(r.cost, *truth.optimumCost) << "seed " << seed;
  }
}

// ---- wmsu1 ----------------------------------------------------------------

TEST(Wmsu1, WeightedAgreesWithOracle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed * 59);
    const CnfFormula f = randomKSat(
        {.numVars = 7, .numClauses = 26, .clauseLen = 3, .seed = rng()});
    WcnfFormula w(f.numVars());
    for (const Clause& c : f.clauses()) {
      w.addSoft(c, 1 + static_cast<Weight>(rng() % 5));
    }
    const OracleResult truth = oracleMaxSat(w);
    ASSERT_TRUE(truth.optimumCost.has_value());
    Wmsu1Solver solver;
    const MaxSatResult r = solver.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "seed " << seed;
    EXPECT_EQ(r.cost, *truth.optimumCost) << "seed " << seed;
    const auto mc = w.cost(r.model);
    ASSERT_TRUE(mc.has_value());
    EXPECT_EQ(*mc, r.cost);
  }
}

TEST(Wmsu1, LargeWeightsNoDuplicationNeeded) {
  // Weights far beyond the duplication cap still solve natively.
  WcnfFormula w(2);
  w.addSoft({posLit(0)}, 1'000'000'000);
  w.addSoft({negLit(0)}, 2'000'000'000);
  w.addSoft({posLit(1)}, 5);
  Wmsu1Solver solver;
  const MaxSatResult r = solver.solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 1'000'000'000);
  EXPECT_EQ(r.model[0], lbool::False);
}

TEST(Wmsu1, PartialWeightedWithHards) {
  WcnfFormula w(2);
  w.addHard({posLit(0)});
  w.addSoft({negLit(0)}, 7);       // must fall
  w.addSoft({posLit(1)}, 3);
  const OracleResult truth = oracleMaxSat(w);
  Wmsu1Solver solver;
  const MaxSatResult r = solver.solve(w);
  ASSERT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, *truth.optimumCost);
  EXPECT_EQ(r.cost, 7);
}

TEST(Wmsu1, UnweightedReducesToMsu1Behaviour) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const WcnfFormula w = WcnfFormula::allSoft(randomKSat(
        {.numVars = 8, .numClauses = 38, .clauseLen = 3, .seed = seed * 97}));
    const OracleResult truth = oracleMaxSat(w);
    Wmsu1Solver solver;
    const MaxSatResult r = solver.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum);
    EXPECT_EQ(r.cost, *truth.optimumCost) << "seed " << seed;
  }
}

TEST(Wmsu1, HardUnsat) {
  WcnfFormula w(1);
  w.addHard({posLit(0)});
  w.addHard({negLit(0)});
  w.addSoft({posLit(0)}, 4);
  Wmsu1Solver solver;
  EXPECT_EQ(solver.solve(w).status, MaxSatStatus::UnsatisfiableHard);
}

// ---- preprocessing --------------------------------------------------------

TEST(Preprocess, HardUnitsPropagateIntoSofts) {
  WcnfFormula w(3);
  w.addHard({posLit(0)});                 // x0 = 1
  w.addHard({negLit(0), posLit(1)});      // -> x1 = 1
  w.addSoft({negLit(1)}, 5);              // falsified: forced cost 5
  w.addSoft({posLit(1), posLit(2)}, 2);   // satisfied: dropped
  w.addSoft({negLit(0), posLit(2)}, 3);   // shrinks to (x2)
  const PreprocessResult r = preprocessWcnf(w);
  ASSERT_TRUE(r.simplified.has_value());
  EXPECT_EQ(r.forcedCost, 5);
  EXPECT_EQ(r.fixedVars, 2);
  EXPECT_EQ(r.simplified->numHard(), 0);
  ASSERT_EQ(r.simplified->numSoft(), 1);
  EXPECT_EQ(r.simplified->soft()[0].lits, (Clause{posLit(2)}));
  EXPECT_EQ(r.forced[0], lbool::True);
  EXPECT_EQ(r.forced[1], lbool::True);
  EXPECT_EQ(r.forced[2], lbool::Undef);
}

TEST(Preprocess, LiftResultReportsOnTheOriginalInstance) {
  WcnfFormula w(3);
  w.addHard({posLit(0)});                // x0 = 1
  w.addHard({negLit(0), posLit(1)});     // -> x1 = 1
  w.addSoft({negLit(1)}, 5);             // falsified: forced cost 5
  w.addSoft({negLit(2)}, 2);
  w.addSoft({posLit(2), negLit(0)}, 3);  // shrinks to (x2)
  const PreprocessResult pre = preprocessWcnf(w);
  ASSERT_TRUE(pre.simplified.has_value());
  ASSERT_EQ(pre.forcedCost, 5);

  // Unknown: the bounds on the simplified instance move by forcedCost.
  MaxSatResult unknown;
  unknown.status = MaxSatStatus::Unknown;
  unknown.lowerBound = 1;
  unknown.upperBound = 3;
  liftResult(pre, unknown);
  EXPECT_EQ(unknown.lowerBound, 6);
  EXPECT_EQ(unknown.upperBound, 8);

  // Optimum: cost and model are those of the original instance.
  MaxSatResult opt = makeSolver("msu4-v2")->solve(*pre.simplified);
  ASSERT_EQ(opt.status, MaxSatStatus::Optimum);
  liftResult(pre, opt);
  EXPECT_EQ(opt.cost, 7);
  EXPECT_EQ(opt.lowerBound, 7);
  EXPECT_EQ(opt.upperBound, 7);
  EXPECT_EQ(opt.model[0], lbool::True);
  EXPECT_EQ(opt.model[1], lbool::True);
  EXPECT_EQ(w.cost(opt.model), std::optional<Weight>(7));
}

TEST(Preprocess, RefutedHardsReported) {
  WcnfFormula w(1);
  w.addHard({posLit(0)});
  w.addHard({negLit(0)});
  const PreprocessResult r = preprocessWcnf(w);
  EXPECT_FALSE(r.simplified.has_value());
}

TEST(Preprocess, DuplicateSoftsMergeWeights) {
  WcnfFormula w(2);
  w.addSoft({posLit(0), posLit(1)}, 2);
  w.addSoft({posLit(1), posLit(0)}, 3);  // same clause, reordered
  const PreprocessResult r = preprocessWcnf(w);
  ASSERT_TRUE(r.simplified.has_value());
  ASSERT_EQ(r.simplified->numSoft(), 1);
  EXPECT_EQ(r.simplified->soft()[0].weight, 5);
  EXPECT_EQ(r.mergedSoft, 1);
}

TEST(Preprocess, TautologiesDropped) {
  WcnfFormula w(2);
  w.addHard({posLit(0), negLit(0)});
  w.addSoft({posLit(1), negLit(1)}, 9);
  const PreprocessResult r = preprocessWcnf(w);
  ASSERT_TRUE(r.simplified.has_value());
  EXPECT_EQ(r.simplified->numHard(), 0);
  EXPECT_EQ(r.simplified->numSoft(), 0);
  EXPECT_EQ(r.forcedCost, 0);
}

TEST(Preprocess, OptimumIsPreserved) {
  // opt(original) == forcedCost + opt(simplified), randomized.
  std::mt19937_64 rng(31);
  for (int round = 0; round < 12; ++round) {
    const CnfFormula f = randomKSat(
        {.numVars = 8, .numClauses = 30, .clauseLen = 2, .seed = rng()});
    WcnfFormula w(f.numVars());
    // A couple of hard units to trigger propagation.
    w.addHard({Lit(static_cast<Var>(rng() % 8), (rng() & 1) != 0)});
    CnfFormula hardCheck(8);
    hardCheck.addClause(w.hard()[0]);
    for (const Clause& c : f.clauses()) {
      w.addSoft(c, 1 + static_cast<Weight>(rng() % 3));
    }
    const OracleResult truth = oracleMaxSat(w);
    ASSERT_TRUE(truth.optimumCost.has_value());
    const PreprocessResult r = preprocessWcnf(w);
    ASSERT_TRUE(r.simplified.has_value());
    const OracleResult simplifiedTruth = oracleMaxSat(*r.simplified);
    ASSERT_TRUE(simplifiedTruth.optimumCost.has_value());
    EXPECT_EQ(*truth.optimumCost,
              r.forcedCost + *simplifiedTruth.optimumCost)
        << "round " << round;
  }
}

/// preprocessWcnf as it was specified before the flat rewrite: naive
/// unit propagation to a fixpoint, then std::map-keyed de-duplication
/// of sorted literal copies. The differential test below pins the real
/// one to this, field by field.
PreprocessResult referencePreprocess(const WcnfFormula& w) {
  const auto n = static_cast<std::size_t>(w.numVars());
  PreprocessResult r;
  r.forced.assign(n, lbool::Undef);
  auto litValue = [&](Lit p) {
    return applySign(r.forced[static_cast<std::size_t>(p.var())], p);
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (const std::span<const Lit> c : w.hard()) {
      std::set<Lit> open;
      bool sat = false;
      for (const Lit p : c) {
        sat |= litValue(p) == lbool::True;
        if (litValue(p) == lbool::Undef) open.insert(p);
      }
      if (sat) continue;
      if (open.empty()) {
        r.forced.assign(n, lbool::Undef);
        return r;  // refuted
      }
      if (open.size() == 1) {
        const Lit p = *open.begin();
        r.forced[static_cast<std::size_t>(p.var())] = toLbool(p.positive());
        changed = true;
      }
    }
  }
  r.fixedVars = static_cast<int>(n) -
                static_cast<int>(std::ranges::count(r.forced, lbool::Undef));

  auto reduce = [&](std::span<const Lit> c) -> std::optional<Clause> {
    Clause out;
    for (const Lit p : c) {
      if (litValue(p) == lbool::True) return std::nullopt;
      if (litValue(p) == lbool::Undef) out.push_back(p);
    }
    std::ranges::sort(out);
    out.erase(std::unique(out.begin(), out.end()), out.end());
    for (std::size_t i = 1; i < out.size(); ++i) {
      if (out[i] == ~out[i - 1]) return std::nullopt;
    }
    return out;
  };
  WcnfFormula simplified(w.numVars());
  std::map<Clause, bool> seenHard;
  for (const std::span<const Lit> h : w.hard()) {
    const std::optional<Clause> c = reduce(h);
    if (!c || !seenHard.emplace(*c, true).second) {
      ++r.removedHard;
      continue;
    }
    simplified.addHard(*c);
  }
  std::map<Clause, std::size_t> softIndex;
  std::vector<std::pair<Clause, Weight>> softOut;
  for (const SoftClause& s : w.soft()) {
    const std::optional<Clause> c = reduce(s.lits);
    if (!c || c->empty()) {
      if (c) r.forcedCost += s.weight;
      ++r.removedSoft;
      continue;
    }
    if (auto it = softIndex.find(*c); it != softIndex.end()) {
      softOut[it->second].second += s.weight;
      ++r.mergedSoft;
      continue;
    }
    softIndex.emplace(*c, softOut.size());
    softOut.emplace_back(*c, s.weight);
  }
  for (const auto& [lits, weight] : softOut) simplified.addSoft(lits, weight);
  r.simplified = std::move(simplified);
  return r;
}

/// A WCNF built to hit every branch of preprocessWcnf: hard units and
/// implications a hidden assignment satisfies, duplicate literals,
/// tautologies, clauses that turn empty, satisfied or into duplicates
/// only once the forced literals are applied, and the same clause
/// reordered as hard and as soft at different weights. One round in
/// eight adds a hard unit against the hidden assignment, which usually
/// refutes the hard clauses.
WcnfFormula duplicateHeavyWcnf(std::mt19937_64& rng) {
  const int vars = 6 + static_cast<int>(rng() % 14);
  auto below = [&](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  std::vector<bool> hidden(static_cast<std::size_t>(vars));
  for (std::size_t v = 0; v < hidden.size(); ++v) hidden[v] = (rng() & 1) != 0;
  auto truthful = [&](Var v) { return Lit(v, !hidden[v]); };
  auto weight = [&] { return Weight{1} + below(5); };
  auto shuffled = [&](Clause c) {
    std::shuffle(c.begin(), c.end(), rng);
    return c;
  };

  WcnfFormula w(vars);
  for (int i = 0, units = 1 + below(3); i < units; ++i) {
    w.addHard({truthful(below(vars))});
  }
  if (below(8) == 0) w.addHard({~truthful(0)});

  std::vector<Clause> pool(static_cast<std::size_t>(10 + below(20)));
  for (Clause& c : pool) {
    for (int k = 0, len = 1 + below(4); k < len; ++k) {
      c.push_back(Lit(below(vars), below(2) == 1));
    }
    if (below(5) == 0) c.push_back(c[0]);   // duplicate literal
    if (below(9) == 0) c.push_back(~c[0]);  // tautology
  }
  for (int i = 0, n = 15 + below(30); i < n; ++i) {
    Clause c = pool[rng() % pool.size()];
    switch (below(4)) {
      case 0:
        // Hard, made true under the hidden assignment; sometimes twice.
        c.push_back(truthful(c[0].var()));
        w.addHard(shuffled(c));
        if (below(3) == 0) w.addHard(shuffled(c));
        break;
      case 1:
        // Soft, possibly falsified by the forced values.
        w.addSoft(shuffled(c), weight());
        break;
      case 2:
        // Soft, repeated at other weights.
        for (int k = 0, copies = 2 + below(2); k < copies; ++k) {
          w.addSoft(shuffled(c), weight());
        }
        break;
      default:
        // Soft, plus a copy widened by a literal the hidden assignment
        // falsifies: a duplicate once that literal is forced.
        w.addSoft(shuffled(c), weight());
        c.push_back(~truthful(below(vars)));
        w.addSoft(shuffled(c), weight());
        break;
    }
  }
  return w;
}

TEST(Preprocess, MatchesTheMapBasedReferenceExactly) {
  std::mt19937_64 rng(15);
  PreprocessResult totals;
  int refuted = 0;
  for (int round = 0; round < 400; ++round) {
    const WcnfFormula w = duplicateHeavyWcnf(rng);
    const PreprocessResult want = referencePreprocess(w);
    const PreprocessResult got = preprocessWcnf(w);
    ASSERT_EQ(got.simplified.has_value(), want.simplified.has_value())
        << "round " << round;
    EXPECT_EQ(got.forced, want.forced) << "round " << round;
    EXPECT_EQ(got.forcedCost, want.forcedCost) << "round " << round;
    EXPECT_EQ(got.fixedVars, want.fixedVars) << "round " << round;
    EXPECT_EQ(got.removedHard, want.removedHard) << "round " << round;
    EXPECT_EQ(got.removedSoft, want.removedSoft) << "round " << round;
    EXPECT_EQ(got.mergedSoft, want.mergedSoft) << "round " << round;
    if (!want.simplified) {
      ++refuted;
      continue;
    }
    EXPECT_EQ(got.simplified->numVars(), want.simplified->numVars());
    EXPECT_EQ(got.simplified->hard(), want.simplified->hard())
        << "round " << round;
    ASSERT_EQ(got.simplified->numSoft(), want.simplified->numSoft())
        << "round " << round;
    for (std::size_t i = 0; i < want.simplified->soft().size(); ++i) {
      const SoftClause& g = got.simplified->soft()[i];
      const SoftClause& e = want.simplified->soft()[i];
      EXPECT_EQ(g.lits, e.lits) << "round " << round << " soft " << i;
      EXPECT_EQ(g.weight, e.weight) << "round " << round << " soft " << i;
    }
    totals.forcedCost += want.forcedCost;
    totals.fixedVars += want.fixedVars;
    totals.removedHard += want.removedHard;
    totals.removedSoft += want.removedSoft;
    totals.mergedSoft += want.mergedSoft;
  }
  // Every path was taken.
  EXPECT_GT(refuted, 0);
  EXPECT_GT(totals.forcedCost, 0);
  EXPECT_GT(totals.fixedVars, 0);
  EXPECT_GT(totals.removedHard, 0);
  EXPECT_GT(totals.removedSoft, 0);
  EXPECT_GT(totals.mergedSoft, 0);
}

// ---- TPG ------------------------------------------------------------------

TEST(Tpg, DeadGatesFound) {
  Circuit c(2);
  const int a = c.addGate(GateType::And, {0, 1});
  const int dead = c.addGate(GateType::Or, {0, 1});
  c.addOutput(a);
  const std::vector<int> dg = deadGates(c);
  ASSERT_EQ(dg.size(), 1u);
  EXPECT_EQ(dg[0], dead);
}

TEST(Tpg, RedundantFaultIsUntestable) {
  Solver::Options so;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RandomCircuitParams p;
    p.numInputs = 6;
    p.numGates = 40;
    p.numOutputs = 2;
    p.seed = seed;
    const CnfFormula miter = untestableFaultInstance(p, seed + 50);
    Solver s;
    while (s.numVars() < miter.numVars()) static_cast<void>(s.newVar());
    for (const Clause& c : miter.clauses()) {
      if (!s.addClause(c)) break;
    }
    EXPECT_EQ(s.solve(), lbool::False) << "seed " << seed;
  }
}

TEST(Tpg, TestableFaultIsSat) {
  // The stuck-at-1 twin of the redundant site is exposed when o == 0 and
  // should be testable on typical circuits.
  int satSeen = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RandomCircuitParams p;
    p.numInputs = 6;
    p.numGates = 40;
    p.numOutputs = 2;
    p.seed = seed;
    const RedundantFaultCircuit rf = redundantFaultCircuit(p, seed + 90);
    const CnfFormula miter = buildTpgMiter(rf.circuit, rf.testable);
    Solver s;
    while (s.numVars() < miter.numVars()) static_cast<void>(s.newVar());
    bool ok = true;
    for (const Clause& c : miter.clauses()) {
      if (!s.addClause(c)) {
        ok = false;
        break;
      }
    }
    if (ok && s.solve() == lbool::True) ++satSeen;
  }
  EXPECT_GE(satSeen, 3);  // most sites are exposable
}

TEST(Tpg, MiterConsistentWithSimulation) {
  // For a testable fault, the SAT model's inputs must actually
  // distinguish the two circuits in simulation.
  RandomCircuitParams p;
  p.numInputs = 5;
  p.numGates = 30;
  p.numOutputs = 2;
  p.seed = 77;
  const RedundantFaultCircuit rf = redundantFaultCircuit(p, 123);
  const CnfFormula miter = buildTpgMiter(rf.circuit, rf.testable);
  Solver s;
  while (s.numVars() < miter.numVars()) static_cast<void>(s.newVar());
  for (const Clause& c : miter.clauses()) ASSERT_TRUE(s.addClause(c));
  if (s.solve() != lbool::True) GTEST_SKIP() << "fault not testable here";
  std::vector<bool> in(5);
  for (int i = 0; i < 5; ++i) {
    in[static_cast<std::size_t>(i)] = s.model()[i] == lbool::True;
  }
  // Faulty simulation: force the gate to the stuck value by rebuilding.
  const std::vector<bool> goodVals = rf.circuit.simulate(in);
  // Simulate faulty by hand: recompute with the fault applied.
  std::vector<bool> vals = goodVals;
  vals[static_cast<std::size_t>(rf.testable.gate)] = rf.testable.stuckAt;
  for (int g = rf.testable.gate + 1; g < rf.circuit.numGates(); ++g) {
    const Gate& gate = rf.circuit.gate(g);
    if (gate.type == GateType::Input) continue;
    bool v = false;
    switch (gate.type) {
      case GateType::And:
      case GateType::Nand:
        v = true;
        for (int f : gate.fanin) v = v && vals[static_cast<std::size_t>(f)];
        if (gate.type == GateType::Nand) v = !v;
        break;
      case GateType::Or:
      case GateType::Nor:
        v = false;
        for (int f : gate.fanin) v = v || vals[static_cast<std::size_t>(f)];
        if (gate.type == GateType::Nor) v = !v;
        break;
      case GateType::Xor:
        v = false;
        for (int f : gate.fanin) v = v != vals[static_cast<std::size_t>(f)];
        break;
      case GateType::Not:
        v = !vals[static_cast<std::size_t>(gate.fanin[0])];
        break;
      case GateType::Buf:
        v = vals[static_cast<std::size_t>(gate.fanin[0])];
        break;
      case GateType::Input:
        break;
    }
    if (g != rf.testable.gate) vals[static_cast<std::size_t>(g)] = v;
  }
  bool differs = false;
  for (int o : rf.circuit.outputs()) {
    if (vals[static_cast<std::size_t>(o)] !=
        goodVals[static_cast<std::size_t>(o)]) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace msu
