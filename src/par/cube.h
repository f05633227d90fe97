/// \file cube.h
/// \brief Cube-and-conquer MaxSAT: a lookahead splitter partitions one
///        hard instance into cubes (assumption prefixes over the
///        original variables), and workers conquer them over a
///        work-stealing scheduler with a shared incumbent.
///
/// The portfolio (par/portfolio.h) buys wall-clock time by *racing*
/// diversified engines on the whole instance; it helps latency but
/// every worker still walks the whole search space. Cube-and-conquer
/// is the complementary sharding story: split the space itself, solve
/// the pieces independently, and combine. For MaxSAT the combination
/// rule is branch-and-bound shaped:
///
///   opt(F) = min over cubes c of opt(F ∧ c),
///
/// valid because the cube set covers every model of the hard clauses
/// (the splitter branches both polarities of each chosen variable;
/// failed-literal assertions and pruned nodes are BCP-refutations over
/// the hard clauses, so they exclude no hard-model). Workers maintain
/// one global incumbent (cost + model). A cube that comes back UNSAT
/// under a bound constraint `cost <= UB-1` is *pruned*: its own
/// minimum is >= UB at prune time >= the final UB (the incumbent only
/// improves), so it cannot beat the final answer. A cube UNSAT with no
/// bound constraint has no hard-model at all; if every cube ends that
/// way and no model was ever found, the hard clauses are
/// unsatisfiable. Otherwise, once every cube is pruned or exhausted,
/// the incumbent is the optimum.
///
/// Each worker runs the wlinear engine's encoding on one persistent
/// OracleSession — toPbo()'s blocking variable per soft clause, loaded
/// by loadPbo(), and an ObjectiveBound asserting `cost <= UB-1` as the
/// incumbent improves (core/wlinear.h) — and passes its current cube as
/// extra assumptions. Sibling cubes
/// share long assumption prefixes, which the PR 5 warm-start contract
/// (reuse_trail) turns into nearly-free re-solves; the LIFO/FIFO split
/// of the work-stealing deque (par/worksteal.h) is chosen to maximise
/// exactly that prefix sharing. Workers also exchange learnt clauses
/// over the original-variable prefix through the same sharded pool the
/// portfolio uses — every worker loads identical hard clauses, keeps
/// blocking variables above the prefix and bound constraints
/// scope-guarded, so the par/clause_pool.h argument applies verbatim.
///
/// With one worker and a single root cube the solver *is* the base
/// engine (it delegates, bit for bit); with one worker and many cubes
/// it is a deterministic sequential cube loop (no threads, no atomics
/// on the hot path).

#pragma once

#include <string>
#include <vector>

#include "core/maxsat.h"
#include "encodings/pb.h"

namespace msu {

/// Tuning of the lookahead splitter.
struct CubeSplitOptions {
  /// Target number of leaf cubes; 0 = auto (8 per worker, min 16). The
  /// splitter stops branching once the target is reached; open sibling
  /// branches still emit one leaf each (coverage requires it), so the
  /// result can exceed the target by up to maxDepth cubes, and pruning
  /// can leave it below.
  int maxCubes = 0;
  /// Hard cap on cube length in decisions (splitting depth).
  int maxDepth = 12;
  /// Lookahead candidates probed per node (by occurrence count).
  int candidates = 8;
};

/// Output of the splitter. Cubes are emitted in DFS order, so
/// consecutive cubes are siblings sharing long prefixes.
struct CubeSplitResult {
  std::vector<std::vector<Lit>> cubes;
  /// BCP on the hard clauses refuted the root: the hard part is
  /// unsatisfiable outright and `cubes` is empty.
  bool rootConflict = false;
  std::int64_t failedLiterals = 0;  ///< single-polarity refutations
  std::int64_t prunedNodes = 0;     ///< both-polarity refutations
};

/// Splits `formula`'s hard clauses into covering cubes with a
/// counter-based BCP lookahead: candidates are ranked by occurrence,
/// each is probed in both polarities, failed literals are asserted,
/// both-failed nodes pruned, and the branch variable maximises the
/// product of propagation counts (favouring balanced, constrained
/// splits). Pure over the formula — exposed separately for tests.
[[nodiscard]] CubeSplitResult splitCubes(const WcnfFormula& formula,
                                         const CubeSplitOptions& opts);

/// Configuration of a CubeSolver.
struct CubeOptions {
  /// Options for every worker's oracle session (budget, encodings, ...).
  MaxSatOptions base;

  /// Number of conquering workers.
  int threads = 4;

  /// Splitter tuning (maxCubes = 0 scales with `threads`).
  CubeSplitOptions split;

  /// PB encoding of the weighted bound constraint (unweighted bounds
  /// use base.encoding), matching the wlinear engine's knob.
  PbEncoding pb = PbEncoding::Bdd;

  /// Inter-worker learnt-clause sharing over the original variables
  /// (same fabric and ceilings as the portfolio).
  bool shareClauses = true;
  int shareMaxSize = 8;
  int shareMaxLbd = 4;
};

/// The cube-and-conquer runner. Answer-correct for any thread count;
/// delegates to the base wlinear engine when splitting yields a single
/// root cube.
class CubeSolver final : public MaxSatSolver {
 public:
  explicit CubeSolver(CubeOptions options);

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] MaxSatResult solve(const WcnfFormula& formula) override;

  /// Diagnostics of the last solve.
  [[nodiscard]] int lastNumCubes() const { return last_num_cubes_; }
  [[nodiscard]] std::int64_t lastSteals() const { return last_steals_; }

 private:
  CubeOptions opts_;
  int last_num_cubes_ = 0;
  std::int64_t last_steals_ = 0;
};

}  // namespace msu
