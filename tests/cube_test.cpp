/// \file cube_test.cpp
/// \brief Tests of the cube-and-conquer subsystem: the Chase–Lev
///        work-stealing deque (LIFO owner / FIFO thief contract, full
///        behavior, exactly-once partitioning under concurrent theft),
///        the lookahead splitter (coverage of every hard model, root
///        refutation), and the CubeSolver itself (single-root-cube
///        delegation bit-for-bit equal to the base engine, fuzzed
///        answer agreement with the exhaustive oracle, hard-UNSAT
///        detection, cooperative interruption).

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "cnf/oracle.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "par/cube.h"
#include "par/worksteal.h"

namespace msu {
namespace {

TEST(WorkSteal, OwnerIsLifoThievesAreFifo) {
  WorkStealingDeque<int> dq(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(dq.push(i));
  EXPECT_EQ(dq.sizeApprox(), 5);

  // A thief takes the oldest item, the owner the newest.
  auto s = dq.steal();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, 0);
  auto p = dq.pop();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, 4);
  EXPECT_EQ(*dq.steal(), 1);
  EXPECT_EQ(*dq.pop(), 3);
  EXPECT_EQ(*dq.pop(), 2);
  EXPECT_FALSE(dq.pop().has_value());
  EXPECT_FALSE(dq.steal().has_value());
  EXPECT_EQ(dq.sizeApprox(), 0);
}

TEST(WorkSteal, PushFailsWhenFullAndRecoversAfterPop) {
  WorkStealingDeque<int> dq(4);  // capacity rounds to exactly 4
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(dq.push(i));
  EXPECT_FALSE(dq.push(99));
  EXPECT_EQ(*dq.pop(), 3);
  EXPECT_TRUE(dq.push(99));
  EXPECT_EQ(*dq.pop(), 99);
}

TEST(WorkSteal, ConcurrentThievesPartitionExactlyOnce) {
  // The owner pushes N items then drains its own deque while three
  // thieves steal concurrently; every item must be taken exactly once,
  // none lost, none duplicated. Run under TSan in CI.
  constexpr int kItems = 1 << 12;
  constexpr int kThieves = 3;
  WorkStealingDeque<int> dq(kItems);
  std::vector<std::atomic<int>> taken_count(kItems);
  std::atomic<int> taken_total{0};
  std::atomic<bool> start{false};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int i = 0; i < kThieves; ++i) {
    thieves.emplace_back([&] {
      while (!start.load()) std::this_thread::yield();
      while (taken_total.load() < kItems) {
        if (auto v = dq.steal()) {
          taken_count[static_cast<std::size_t>(*v)].fetch_add(1);
          taken_total.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  for (int i = 0; i < kItems; ++i) ASSERT_TRUE(dq.push(i));
  start.store(true);
  while (taken_total.load() < kItems) {
    if (auto v = dq.pop()) {
      taken_count[static_cast<std::size_t>(*v)].fetch_add(1);
      taken_total.fetch_add(1);
    }
  }
  for (std::thread& t : thieves) t.join();

  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(taken_count[static_cast<std::size_t>(i)].load(), 1)
        << "item " << i;
  }
  EXPECT_EQ(dq.sizeApprox(), 0);
}

/// Evaluates `lits` as a clause under the assignment encoded in the
/// low numVars bits of `mask`.
bool clauseTrue(std::span<const Lit> lits, std::uint32_t mask) {
  for (const Lit p : lits) {
    const bool v = ((mask >> p.var()) & 1u) != 0;
    if (p.positive() == v) return true;
  }
  return false;
}

TEST(CubeSplit, CubesCoverEveryHardModel) {
  // The correctness keystone of cube-and-conquer: the emitted cube set
  // must cover every model of the hard clauses (failed literals and
  // pruned nodes may only cut hard-UNSAT space). Check exhaustively on
  // a 12-variable instance.
  const CnfFormula base = randomKSat(
      {.numVars = 12, .numClauses = 30, .clauseLen = 3, .seed = 77});
  WcnfFormula w(base.numVars());
  for (int i = 0; i < base.numClauses(); ++i) w.addHard(base.clause(i));

  CubeSplitOptions so;
  so.maxCubes = 8;
  so.maxDepth = 6;
  const CubeSplitResult split = splitCubes(w, so);
  ASSERT_FALSE(split.rootConflict);
  ASSERT_FALSE(split.cubes.empty());
  // The target is soft (open siblings still emit leaves) but bounded.
  EXPECT_LE(static_cast<int>(split.cubes.size()), so.maxCubes + so.maxDepth);
  for (const auto& cube : split.cubes) {
    EXPECT_LE(static_cast<int>(cube.size()),
              so.maxDepth + 64);  // decisions + asserted failed literals
  }

  int hardModels = 0;
  for (std::uint32_t mask = 0; mask < (1u << w.numVars()); ++mask) {
    bool sat = true;
    for (const std::span<const Lit> c : w.hard()) {
      if (!clauseTrue(c, mask)) {
        sat = false;
        break;
      }
    }
    if (!sat) continue;
    ++hardModels;
    bool covered = false;
    for (const auto& cube : split.cubes) {
      bool consistent = true;
      for (const Lit p : cube) {
        const bool v = ((mask >> p.var()) & 1u) != 0;
        if (p.positive() != v) {
          consistent = false;
          break;
        }
      }
      if (consistent) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "hard model " << mask << " not under any cube";
  }
  ASSERT_GT(hardModels, 0) << "instance accidentally hard-UNSAT";
}

TEST(CubeSplit, RootConflictOnBcpRefutableHards) {
  WcnfFormula w(3);
  w.addHard({posLit(0)});
  w.addHard({negLit(0), posLit(1)});
  w.addHard({negLit(1)});
  const CubeSplitResult split = splitCubes(w, CubeSplitOptions{});
  EXPECT_TRUE(split.rootConflict);
  EXPECT_TRUE(split.cubes.empty());
}

TEST(CubeSolver, SingleRootCubeDelegatesToBaseEngineBitForBit) {
  // maxDepth = 0 forces a single empty root cube, which the solver
  // answers by delegating to the wlinear base engine — the determinism
  // gate: identical answer *and* identical search trace.
  std::mt19937_64 rng(11);
  const CnfFormula base = randomKSat(
      {.numVars = 10, .numClauses = 44, .clauseLen = 3, .seed = 501});
  WcnfFormula w(base.numVars());
  for (int i = 0; i < base.numClauses(); ++i) {
    if (i % 6 == 0) {
      w.addHard(base.clause(i));
    } else {
      w.addSoft(base.clause(i), static_cast<Weight>(1 + rng() % 5));
    }
  }

  CubeOptions co;
  co.threads = 1;
  co.split.maxCubes = 1;
  co.split.maxDepth = 0;
  CubeSolver cubes(co);
  const MaxSatResult rc = cubes.solve(w);
  EXPECT_EQ(cubes.lastNumCubes(), 1);
  EXPECT_EQ(cubes.lastSteals(), 0);

  auto wlinear = makeSolver("wlinear", MaxSatOptions{});
  ASSERT_NE(wlinear, nullptr);
  const MaxSatResult rw = wlinear->solve(w);
  ASSERT_EQ(rc.status, rw.status);
  EXPECT_EQ(rc.cost, rw.cost);
  EXPECT_EQ(rc.satCalls, rw.satCalls);
  EXPECT_EQ(rc.iterations, rw.iterations);
  EXPECT_EQ(rc.satStats.conflicts, rw.satStats.conflicts);
  EXPECT_EQ(rc.satStats.decisions, rw.satStats.decisions);
  EXPECT_EQ(rc.satStats.propagations, rw.satStats.propagations);
  EXPECT_EQ(rc.satStats.shared_exported, 0);
  EXPECT_EQ(rc.satStats.shared_imported, 0);
}

TEST(CubeSolver, FuzzAgreesWithExhaustiveOracle) {
  // Random WCNFs, weighted and unweighted, conquered by 3 workers with
  // clause sharing: the reported optimum must match the exhaustive
  // oracle and the model must certify the cost.
  std::mt19937_64 rng(23);
  for (int round = 0; round < 6; ++round) {
    const CnfFormula base =
        randomKSat({.numVars = 9,
                    .numClauses = 40,
                    .clauseLen = 3,
                    .seed = 7100 + static_cast<std::uint64_t>(round)});
    WcnfFormula w(base.numVars());
    const bool weighted = (round % 2) == 1;
    for (int i = 0; i < base.numClauses(); ++i) {
      if (i % 5 == 0) {
        w.addHard(base.clause(i));
      } else {
        w.addSoft(base.clause(i),
                  weighted ? static_cast<Weight>(1 + rng() % 4) : 1);
      }
    }
    const OracleResult truth = oracleMaxSat(w);
    if (!truth.optimumCost.has_value()) continue;  // hards unsat: skip

    CubeOptions co;
    co.threads = 3;
    co.base.sat.check_cross_scope = true;
    CubeSolver cubes(co);
    const MaxSatResult r = cubes.solve(w);
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "round " << round;
    EXPECT_EQ(r.cost, *truth.optimumCost) << "round " << round;
    const auto modelCost = w.cost(r.model);
    ASSERT_TRUE(modelCost.has_value()) << "round " << round;
    EXPECT_EQ(*modelCost, r.cost) << "round " << round;
    EXPECT_GE(cubes.lastNumCubes(), 1) << "round " << round;
  }
}

TEST(CubeSolver, HardUnsatIsDetected) {
  // Pigeonhole hards have no BCP-visible conflict at the root, so the
  // splitter emits cubes and every one must come back UNSAT with no
  // bound constraint involved — only then may the solver answer
  // UnsatisfiableHard.
  const CnfFormula php = pigeonhole(5, 4);
  WcnfFormula w(php.numVars());
  for (const Clause& c : php.clauses()) w.addHard(c);
  w.addSoft({posLit(0)}, 1);
  CubeOptions co;
  co.threads = 2;
  CubeSolver cubes(co);
  const MaxSatResult r = cubes.solve(w);
  EXPECT_EQ(r.status, MaxSatStatus::UnsatisfiableHard);
}

TEST(CubeSolver, ExternalInterruptStopsWorkersWithUnknown) {
  // A pre-raised caller interrupt flag must stop the conquest early —
  // chained to the workers through the monitor thread, since worker
  // budget copies rewire their own interrupt slot to the shared stop
  // flag. Large enough pigeonhole that cubes cannot all finish first.
  const CnfFormula php = pigeonhole(8, 7);
  WcnfFormula w(php.numVars());
  for (const Clause& c : php.clauses()) w.addHard(c);
  w.addSoft({posLit(0)}, 1);

  std::atomic<bool> stop{true};
  CubeOptions co;
  co.threads = 2;
  co.base.budget.setInterrupt(&stop);
  CubeSolver cubes(co);
  const MaxSatResult r = cubes.solve(w);
  EXPECT_EQ(r.status, MaxSatStatus::Unknown);
}

TEST(CubeSolver, FactorySpellingsAndName) {
  EXPECT_NE(makeSolver("cubes", MaxSatOptions{}), nullptr);
  auto c2 = makeSolver("cubes2", MaxSatOptions{});
  ASSERT_NE(c2, nullptr);
  EXPECT_EQ(c2->name(), "cubes-2");
  EXPECT_EQ(makeSolver("cubesx", MaxSatOptions{}), nullptr);
  EXPECT_EQ(makeSolver("cubes1234", MaxSatOptions{}), nullptr);
}

}  // namespace
}  // namespace msu
