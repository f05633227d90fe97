/// Exhaustive property tests for the second wave of encodings:
///  * cardinality networks accept exactly popcount <= k (all masks, all
///    k), including inside encodeAtMost and inside msu4;
///  * truncated outputs propagate forward like the full sorter's;
///  * emitted-size sanity: cardinality networks never exceed the full
///    sorter; pairwise AMO emits exactly n(n-1)/2 clauses and the
///    ladder form stays linear.

#include <gtest/gtest.h>

#include <bit>

#include "cnf/oracle.h"
#include "encodings/cardinality.h"
#include "encodings/cardnet.h"
#include "encodings/sink.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "sat/solver.h"

namespace msu {
namespace {

struct Fixture {
  Solver solver;
  SolverSink sink{solver};
  std::vector<Lit> inputs;

  explicit Fixture(int n) {
    for (int i = 0; i < n; ++i) inputs.push_back(posLit(solver.newVar()));
  }

  [[nodiscard]] lbool solveMask(std::uint32_t mask,
                                std::optional<Lit> extra = std::nullopt) {
    std::vector<Lit> assumps;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const bool bit = ((mask >> i) & 1u) != 0;
      assumps.push_back(bit ? inputs[i] : ~inputs[i]);
    }
    if (extra) assumps.push_back(*extra);
    return solver.solve(assumps);
  }
};

// ---------------------------------------------------------------------
// Cardinality networks
// ---------------------------------------------------------------------

struct NkCase {
  int n;
  int k;
};

class CardNetExhaustive : public ::testing::TestWithParam<NkCase> {};

TEST_P(CardNetExhaustive, EncodeAtMostAcceptsExactlyPopcountLeK) {
  const auto [n, k] = GetParam();
  Fixture f(n);
  encodeAtMost(f.sink, f.inputs, k, CardEncoding::CardNet);
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    const bool expect = std::popcount(mask) <= static_cast<unsigned>(k);
    const lbool st = f.solveMask(mask);
    ASSERT_NE(st, lbool::Undef);
    EXPECT_EQ(st == lbool::True, expect) << "n=" << n << " k=" << k
                                         << " mask=" << mask;
  }
}

TEST_P(CardNetExhaustive, OutputsPropagateForward) {
  // out[i] must be forced true whenever more than i inputs are true.
  const auto [n, k] = GetParam();
  Fixture f(n);
  const std::vector<Lit> out = buildCardinalityNetwork(f.sink, f.inputs, k);
  ASSERT_EQ(static_cast<int>(out.size()), std::min(n, k + 1));
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    const int count = std::popcount(mask);
    ASSERT_EQ(f.solveMask(mask), lbool::True);
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (count >= static_cast<int>(i) + 1) {
        EXPECT_EQ(f.solver.modelValue(out[i]), lbool::True)
            << "n=" << n << " k=" << k << " mask=" << mask << " i=" << i;
      }
    }
  }
}

std::vector<NkCase> cardNetCases() {
  std::vector<NkCase> cases;
  for (int n : {1, 2, 3, 4, 5, 7, 8, 9}) {
    for (int k = 0; k < n; ++k) cases.push_back({n, k});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CardNetExhaustive,
                         ::testing::ValuesIn(cardNetCases()),
                         [](const ::testing::TestParamInfo<NkCase>& info) {
                           return "n" + std::to_string(info.param.n) + "_k" +
                                  std::to_string(info.param.k);
                         });

TEST(CardNetTest, ActivatorGuardsTheBound) {
  Fixture f(5);
  const Lit act = posLit(f.solver.newVar());
  encodeAtMost(f.sink, f.inputs, 1, CardEncoding::CardNet, act);
  // Guard off: any mask accepted.
  EXPECT_EQ(f.solveMask(0b11111, ~act), lbool::True);
  // Guard on: bound enforced.
  EXPECT_EQ(f.solveMask(0b11000, act), lbool::False);
  EXPECT_EQ(f.solveMask(0b10000, act), lbool::True);
}

TEST(CardNetTest, NeverLargerThanFullSorter) {
  for (int n : {8, 16, 24, 40}) {
    for (int k : {1, 2, 4}) {
      const EncodingSize net = measureAtMost(n, k, CardEncoding::CardNet);
      const EncodingSize sorter = measureAtMost(n, k, CardEncoding::Sorter);
      EXPECT_LE(net.clauses, sorter.clauses) << "n=" << n << " k=" << k;
      EXPECT_LE(net.auxVars, sorter.auxVars) << "n=" << n << " k=" << k;
    }
  }
}

TEST(CardNetTest, Msu4WithCardinalityNetworksMatchesOracle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const CnfFormula f = randomUnsat3Sat(10, 6.0, seed);
    const WcnfFormula w = WcnfFormula::allSoft(f);
    auto solver = makeSolver("msu4-cnet");
    ASSERT_NE(solver, nullptr);
    const MaxSatResult r = solver->solve(w);
    const OracleResult oracle = oracleMaxSat(w);
    ASSERT_TRUE(oracle.optimumCost.has_value());
    ASSERT_EQ(r.status, MaxSatStatus::Optimum) << "seed " << seed;
    EXPECT_EQ(r.cost, *oracle.optimumCost) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// At-most-one sizes
// ---------------------------------------------------------------------

TEST(AmoSizeTest, PairwiseIsQuadraticLadderLinear) {
  const int n = 60;
  CnfFormula pw(n), ld(n);
  std::vector<Lit> lits;
  for (Var v = 0; v < n; ++v) lits.push_back(posLit(v));
  {
    FormulaSink sink(pw);
    encodeAtMostOnePairwise(sink, lits);
  }
  {
    FormulaSink sink(ld);
    encodeAtMostOneLadder(sink, lits);
  }
  EXPECT_EQ(pw.numClauses(), n * (n - 1) / 2);
  EXPECT_LT(ld.numClauses(), pw.numClauses() / 3);
}

}  // namespace
}  // namespace msu
