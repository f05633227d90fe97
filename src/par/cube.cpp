#include "par/cube.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "core/oracle_session.h"
#include "core/wlinear.h"
#include "obs/trace.h"
#include "par/clause_pool.h"
#include "par/worksteal.h"

namespace msu {

namespace {

/// Counter-based BCP lookahead over the hard clauses only: per clause a
/// true/false literal count, per literal an occurrence list, a trail
/// with mark/undo. Deliberately tiny — the splitter runs once per
/// solve, on the original formula, before any worker starts.
class Lookahead {
 public:
  explicit Lookahead(const WcnfFormula& f)
      : clauses_(f.hard()),
        values_(static_cast<std::size_t>(f.numVars()), lbool::Undef),
        occ_(static_cast<std::size_t>(f.numVars()) * 2),
        occ_count_(static_cast<std::size_t>(f.numVars()), 0) {
    n_true_.assign(clauses_.size(), 0);
    n_false_.assign(clauses_.size(), 0);
    for (std::size_t ci = 0; ci < clauses_.size(); ++ci) {
      for (const Lit p : clauses_[ci]) {
        occ_[static_cast<std::size_t>(p.index())].push_back(
            static_cast<int>(ci));
        ++occ_count_[static_cast<std::size_t>(p.var())];
      }
    }
    // Variables in descending occurrence order: the node-level
    // candidate scan walks this once and takes the first unassigned k.
    by_occ_.resize(values_.size());
    for (std::size_t v = 0; v < by_occ_.size(); ++v) {
      by_occ_[v] = static_cast<Var>(v);
    }
    std::stable_sort(by_occ_.begin(), by_occ_.end(), [&](Var a, Var b) {
      return occ_count_[static_cast<std::size_t>(a)] >
             occ_count_[static_cast<std::size_t>(b)];
    });
  }

  /// Asserts the root facts: empty hard clauses refute outright, unit
  /// hard clauses propagate. Returns false on a root conflict.
  bool assertRoot() {
    for (std::size_t ci = 0; ci < clauses_.size(); ++ci) {
      if (clauses_[ci].empty()) return false;
      if (clauses_[ci].size() == 1 && !enqueue(clauses_[ci][0])) return false;
    }
    return propagate();
  }

  [[nodiscard]] lbool value(Lit p) const {
    const lbool v = values_[static_cast<std::size_t>(p.var())];
    if (v == lbool::Undef) return lbool::Undef;
    return (v == lbool::True) != p.negative() ? lbool::True : lbool::False;
  }

  [[nodiscard]] std::size_t mark() const { return trail_.size(); }

  void undoTo(std::size_t mark) {
    while (trail_.size() > mark) {
      const Lit p = trail_.back();
      trail_.pop_back();
      values_[static_cast<std::size_t>(p.var())] = lbool::Undef;
      for (const int ci : occ_[static_cast<std::size_t>(p.index())]) {
        --n_true_[static_cast<std::size_t>(ci)];
      }
      for (const int ci : occ_[static_cast<std::size_t>((~p).index())]) {
        --n_false_[static_cast<std::size_t>(ci)];
      }
    }
    qhead_ = trail_.size();
  }

  /// Assigns `p` and runs BCP to fixpoint. Returns false on conflict
  /// (state is NOT rolled back; the caller undoes to its mark).
  bool assign(Lit p) { return enqueue(p) && propagate(); }

  /// Propagations caused since `mark` (the lookahead score input).
  [[nodiscard]] std::size_t propsSince(std::size_t mark) const {
    return trail_.size() - mark;
  }

  /// First `k` unassigned variables in descending occurrence order,
  /// skipping variables that occur in no hard clause (branching on them
  /// cannot split anything).
  void candidates(int k, std::vector<Var>& out) const {
    out.clear();
    for (const Var v : by_occ_) {
      if (static_cast<int>(out.size()) >= k) break;
      if (occ_count_[static_cast<std::size_t>(v)] == 0) break;  // sorted
      if (values_[static_cast<std::size_t>(v)] == lbool::Undef) {
        out.push_back(v);
      }
    }
  }

 private:
  bool enqueue(Lit p) {
    const lbool v = value(p);
    if (v == lbool::True) return true;
    if (v == lbool::False) return false;
    values_[static_cast<std::size_t>(p.var())] =
        p.positive() ? lbool::True : lbool::False;
    trail_.push_back(p);
    for (const int ci : occ_[static_cast<std::size_t>(p.index())]) {
      ++n_true_[static_cast<std::size_t>(ci)];
    }
    for (const int ci : occ_[static_cast<std::size_t>((~p).index())]) {
      ++n_false_[static_cast<std::size_t>(ci)];
    }
    return true;
  }

  bool propagate() {
    while (qhead_ < trail_.size()) {
      const Lit p = trail_[qhead_++];
      // Clauses where ~p just got falsified may have become unit/empty.
      for (const int ci : occ_[static_cast<std::size_t>((~p).index())]) {
        const auto i = static_cast<std::size_t>(ci);
        if (n_true_[i] > 0) continue;
        const std::size_t sz = clauses_[i].size();
        const std::size_t nf = static_cast<std::size_t>(n_false_[i]);
        if (nf == sz) return false;  // conflict
        if (nf + 1 == sz) {
          // Unit: find and enqueue the single unassigned literal.
          for (const Lit q : clauses_[i]) {
            if (value(q) == lbool::Undef) {
              if (!enqueue(q)) return false;
              break;
            }
          }
        }
      }
    }
    return true;
  }

  const ClauseStore& clauses_;
  std::vector<lbool> values_;
  std::vector<std::vector<int>> occ_;  // lit index -> clause indices
  std::vector<int> occ_count_;         // var -> total occurrences
  std::vector<Var> by_occ_;            // vars, descending occurrence
  std::vector<int> n_true_;
  std::vector<int> n_false_;
  std::vector<Lit> trail_;
  std::size_t qhead_ = 0;
};

/// Recursive DFS splitter state.
struct Splitter {
  Lookahead la;
  CubeSplitOptions opts;
  CubeSplitResult out;
  std::vector<Lit> path;  // decisions + failed-literal assertions
  std::vector<Var> cand_buf;

  Splitter(const WcnfFormula& f, const CubeSplitOptions& o) : la(f), opts(o) {}

  void emitLeaf() { out.cubes.push_back(path); }

  /// Expands the current node. The lookahead state holds the node's
  /// assignment; `path` holds the cube-so-far. Refuted subtrees emit
  /// nothing (BCP already proved them hard-model-free).
  void node(int depth) {
    while (true) {
      if (static_cast<int>(out.cubes.size()) >= opts.maxCubes ||
          depth >= opts.maxDepth) {
        emitLeaf();
        return;
      }
      la.candidates(opts.candidates, cand_buf);
      if (cand_buf.empty()) {
        emitLeaf();
        return;
      }
      // Probe each candidate in both polarities; failed literals are
      // asserted and restart the loop (the node shrank), a
      // both-polarity failure refutes the node.
      Var bestVar = kUndefVar;
      std::uint64_t bestScore = 0;
      for (const Var v : cand_buf) {
        const std::size_t m = la.mark();
        const bool okPos = la.assign(posLit(v));
        const std::size_t propsPos = la.propsSince(m);
        la.undoTo(m);
        const bool okNeg = la.assign(negLit(v));
        const std::size_t propsNeg = la.propsSince(m);
        la.undoTo(m);
        if (!okPos && !okNeg) {
          ++out.prunedNodes;
          return;  // node refuted
        }
        if (!okPos || !okNeg) {
          const Lit forced = okPos ? posLit(v) : negLit(v);
          ++out.failedLiterals;
          const bool ok = la.assign(forced);
          assert(ok);
          static_cast<void>(ok);
          path.push_back(forced);
          bestVar = kUndefVar;
          break;  // re-rank candidates against the grown assignment
        }
        const std::uint64_t score =
            (static_cast<std::uint64_t>(propsPos) + 1) *
            (static_cast<std::uint64_t>(propsNeg) + 1);
        if (bestVar == kUndefVar || score > bestScore) {
          bestVar = v;
          bestScore = score;
        }
      }
      if (bestVar == kUndefVar) continue;  // failed literal asserted
      // Branch: positive child first (DFS order keeps siblings
      // adjacent in the emitted cube list). The child may have grown
      // `path` with failed-literal assertions of its own, so restore
      // to the pre-decision length, not by a single pop — the sibling
      // branch must not inherit the other subtree's assertions.
      const std::size_t pathMark = path.size();
      for (const Lit dec : {posLit(bestVar), negLit(bestVar)}) {
        const std::size_t m = la.mark();
        path.push_back(dec);
        if (la.assign(dec)) {
          node(depth + 1);
        } else {
          ++out.prunedNodes;  // child refuted by BCP alone
        }
        path.resize(pathMark);
        la.undoTo(m);
      }
      return;
    }
  }
};

constexpr Weight kNoBound = std::numeric_limits<Weight>::max();

/// Conquest state shared by all workers of one solve.
struct SharedState {
  std::atomic<Weight> best_cost{kNoBound};  // incumbent cost (authoritative)
  std::mutex best_mx;                       // guards best_model
  Assignment best_model;
  std::atomic<bool> stop{false};
  std::atomic<bool> early_optimum{false};  // stop because incumbent cost == 0
  std::atomic<std::int64_t> cubes_unsat{0};   // UNSAT with no bound encoded
  std::atomic<std::int64_t> cubes_pruned{0};  // UNSAT under a bound
  std::atomic<std::int64_t> steals{0};
};

/// Per-worker accumulators folded into the merged result at the end.
struct WorkerOut {
  SolverStats stats;
  std::int64_t iterations = 0;
  std::int64_t sat_calls = 0;
  bool unknown = false;  // budget ran out mid-cube
};

}  // namespace

CubeSplitResult splitCubes(const WcnfFormula& formula,
                           const CubeSplitOptions& opts) {
  CubeSplitOptions o = opts;
  if (o.maxCubes <= 0) o.maxCubes = 16;
  if (o.maxDepth < 0) o.maxDepth = 0;
  if (o.candidates < 1) o.candidates = 1;
  Splitter sp(formula, o);
  if (!sp.la.assertRoot()) {
    sp.out.rootConflict = true;
    return std::move(sp.out);
  }
  sp.node(0);
  // A splitter tree whose every leaf was BCP-refuted is a refutation of
  // the hard clauses themselves.
  if (sp.out.cubes.empty()) sp.out.rootConflict = true;
  return std::move(sp.out);
}

CubeSolver::CubeSolver(CubeOptions options) : opts_(std::move(options)) {
  if (opts_.threads < 1) opts_.threads = 1;
}

std::string CubeSolver::name() const {
  std::ostringstream os;
  os << "cubes-" << opts_.threads;
  return os.str();
}

MaxSatResult CubeSolver::solve(const WcnfFormula& formula) {
  last_num_cubes_ = 0;
  last_steals_ = 0;
  const Weight total = formula.totalSoftWeight();

  CubeSplitOptions split = opts_.split;
  if (split.maxCubes <= 0) split.maxCubes = std::max(16, 8 * opts_.threads);
  obs::Tracer* const tracer = opts_.base.sat.trace;
  CubeSplitResult sr;
  {
    obs::TraceSpan splitSpan(tracer, obs::TraceCat::kCube, "cube-split");
    sr = splitCubes(formula, split);
    splitSpan.arg("cubes", static_cast<std::int64_t>(sr.cubes.size()));
  }
  last_num_cubes_ = static_cast<int>(sr.cubes.size());

  if (sr.rootConflict) {
    // BCP on the hard clauses alone (or a fully refuted split tree)
    // is a genuine refutation: no assignment satisfies the hards.
    MaxSatResult r;
    r.status = MaxSatStatus::UnsatisfiableHard;
    r.upperBound = total;
    return r;
  }

  if (sr.cubes.size() <= 1) {
    // Nothing to conquer in parallel. Delegate to the base engine the
    // per-cube loop mirrors — this is what makes the 1-worker
    // root-cube configuration bit-for-bit the base engine (the
    // determinism gate in tests/cube_test.cpp holds the other side).
    WeightedLinearSolver base(opts_.base, opts_.pb);
    return base.solve(formula);
  }

  const int numCubes = static_cast<int>(sr.cubes.size());
  const int n = std::max(1, std::min(opts_.threads, numCubes));
  SharedState shared;
  const PboProblem problem = toPbo(formula);

  // DFS-ordered cubes are dealt to workers in contiguous blocks, pushed
  // in reverse so the owner's LIFO pop walks its block in ascending DFS
  // order — consecutive sibling cubes, maximal warm-start prefix reuse.
  std::vector<std::unique_ptr<WorkStealingDeque<int>>> deques;
  deques.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    deques.push_back(std::make_unique<WorkStealingDeque<int>>(
        static_cast<std::size_t>(numCubes)));
  }
  {
    const int per = (numCubes + n - 1) / n;
    for (int w = 0; w < n; ++w) {
      const int lo = w * per;
      const int hi = std::min(numCubes, lo + per);
      for (int c = hi - 1; c >= lo; --c) {
        const bool ok = deques[static_cast<std::size_t>(w)]->push(c);
        assert(ok);
        static_cast<void>(ok);
      }
    }
  }

  const bool sharing = opts_.shareClauses && n > 1;
  std::optional<SharedClausePool> pool;
  if (sharing) pool.emplace(n, formula.numVars());

  std::vector<WorkerOut> outs(static_cast<std::size_t>(n));

  auto workerRun = [&](int w, const Budget& budget) {
    obs::TraceSpan workerSpan(tracer, obs::TraceCat::kWorker, "cube-worker");
    workerSpan.arg("worker", w);
    WorkerOut& out = outs[static_cast<std::size_t>(w)];
    MaxSatOptions wopts = opts_.base;
    wopts.budget = budget;
    if (sharing) {
      wopts.sat.share = pool->endpoint(w);
      wopts.sat.share_max_size = opts_.shareMaxSize;
      wopts.sat.share_max_lbd = opts_.shareMaxLbd;
      wopts.sat.share_num_vars = formula.numVars();
    }
    // The wlinear engine's encoding: blocking variables above the
    // original-variable prefix (so clause sharing stays sound) and one
    // ObjectiveBound, shared across this worker's cubes (the bound
    // `cost <= encodedUb - 1` is cube-independent).
    OracleSession session(wopts);
    loadPbo(session, problem, opts_.pb);
    ObjectiveBound bound(problem.objective, wopts, opts_.pb,
                         BoundEncoding::Mixed);
    Weight encodedUb = kNoBound;
    auto syncBound = [&] {
      const Weight ub = shared.best_cost.load(std::memory_order_acquire);
      if (ub >= encodedUb || ub > total || ub < 1) return;
      bound.tighten(session, ub);
      encodedUb = ub;
    };

    // Take the next cube: own deque first (LIFO — deepest, warmest),
    // then steal round-robin. A lost steal race retries while any
    // deque still looks non-empty; all work is pre-pushed, so a clean
    // empty scan is a definitive exit.
    auto nextCube = [&]() -> std::optional<int> {
      while (true) {
        if (auto c = deques[static_cast<std::size_t>(w)]->pop()) return c;
        bool sawWork = false;
        for (int i = 1; i < n; ++i) {
          const auto v = static_cast<std::size_t>((w + i) % n);
          if (deques[v]->sizeApprox() <= 0) continue;
          sawWork = true;
          if (auto c = deques[v]->steal()) {
            shared.steals.fetch_add(1, std::memory_order_relaxed);
            obs::traceInstant(tracer, obs::TraceCat::kCube, "steal", "cube",
                              *c);
            return c;
          }
        }
        if (!sawWork) return std::nullopt;
      }
    };

    while (!shared.stop.load(std::memory_order_acquire)) {
      const std::optional<int> ci = nextCube();
      if (!ci) break;
      obs::TraceSpan cubeSpan(tracer, obs::TraceCat::kCube, "cube");
      cubeSpan.arg("cube", *ci);
      const std::vector<Lit>& cube = sr.cubes[static_cast<std::size_t>(*ci)];
      while (true) {
        if (shared.stop.load(std::memory_order_acquire)) goto done;
        syncBound();
        ++out.iterations;
        const bool bounded = encodedUb != kNoBound;
        const lbool st = session.solve(cube);
        if (st == lbool::Undef) {
          out.unknown = true;
          goto done;  // budget gone; the whole worker unwinds
        }
        if (st == lbool::False) {
          // Bounded: cube minimum >= encodedUb >= final UB — pruned.
          // Unbounded: the cube has no hard-model at all.
          (bounded ? shared.cubes_pruned : shared.cubes_unsat)
              .fetch_add(1, std::memory_order_relaxed);
          break;
        }
        Assignment model(static_cast<std::size_t>(formula.numVars()));
        for (Var v = 0; v < formula.numVars(); ++v) {
          model[static_cast<std::size_t>(v)] =
              session.sat().model()[static_cast<std::size_t>(v)];
        }
        const std::optional<Weight> cost = formula.cost(model);
        assert(cost.has_value());
        Weight c = *cost;
        {
          std::lock_guard<std::mutex> lock(shared.best_mx);
          if (c < shared.best_cost.load(std::memory_order_relaxed)) {
            shared.best_cost.store(c, std::memory_order_release);
            shared.best_model = std::move(model);
            if (opts_.base.onBounds) opts_.base.onBounds(0, c);
          }
        }
        if (shared.best_cost.load(std::memory_order_acquire) == 0) {
          // A zero-cost model is globally optimal; all cubes are moot.
          shared.early_optimum.store(true, std::memory_order_release);
          shared.stop.store(true, std::memory_order_release);
          goto done;
        }
        // Loop: syncBound() will demand a strictly better model.
      }
    }
  done:
    out.stats = session.sat().stats();
    out.sat_calls = session.satCalls();
  };

  if (n == 1) {
    // Sequential cube loop: no threads, no interrupt override — the
    // base budget (and any external canceller on it) applies directly,
    // and the run is deterministic.
    workerRun(0, opts_.base.budget);
  } else {
    // Workers share a stop flag; a monitor thread chains the *caller's*
    // budget (external interrupt / deadline) onto it, since installing
    // our flag on the worker copies overwrites any caller-installed
    // one (Budget copies share interrupt pointers — see sat/budget.h).
    Budget ext = opts_.base.budget;  // pristine copy: caller's signals
    std::atomic<bool> monitorDone{false};
    std::thread monitor;
    if (!ext.isUnlimited()) {
      monitor = std::thread([&] {
        while (!monitorDone.load(std::memory_order_acquire)) {
          if (ext.timeExpired()) {
            shared.stop.store(true, std::memory_order_release);
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
    }
    {
      std::vector<std::thread> workers;
      workers.reserve(static_cast<std::size_t>(n));
      for (int w = 0; w < n; ++w) {
        Budget b = opts_.base.budget;
        b.setInterrupt(&shared.stop);
        workers.emplace_back([&workerRun, w, b] { workerRun(w, b); });
      }
      for (std::thread& t : workers) t.join();
    }
    monitorDone.store(true, std::memory_order_release);
    if (monitor.joinable()) monitor.join();
  }

  last_steals_ = shared.steals.load(std::memory_order_relaxed);

  // Aggregate. Every decided cube is either pruned (cannot beat the
  // final incumbent) or hard-model-free; with all of them decided the
  // incumbent is the optimum — or, if no model was ever found, the
  // hard clauses are unsatisfiable (the cubes cover every hard-model).
  MaxSatResult merged;
  const Weight best = shared.best_cost.load(std::memory_order_acquire);
  const bool haveModel = best != kNoBound;
  const std::int64_t decided =
      shared.cubes_unsat.load(std::memory_order_relaxed) +
      shared.cubes_pruned.load(std::memory_order_relaxed);
  bool anyUnknown = false;
  for (const WorkerOut& out : outs) anyUnknown |= out.unknown;

  if (shared.early_optimum.load(std::memory_order_acquire) ||
      (!anyUnknown && decided == numCubes && haveModel)) {
    merged.status = MaxSatStatus::Optimum;
    merged.cost = best;
    merged.lowerBound = best;
    merged.upperBound = best;
    merged.model = std::move(shared.best_model);
  } else if (!anyUnknown && decided == numCubes) {
    assert(shared.cubes_pruned.load(std::memory_order_relaxed) == 0 &&
           "pruning requires an incumbent");
    merged.status = MaxSatStatus::UnsatisfiableHard;
    merged.upperBound = total;
  } else {
    merged.status = MaxSatStatus::Unknown;
    merged.lowerBound = 0;
    merged.upperBound = haveModel ? best : total;
    if (haveModel) merged.model = std::move(shared.best_model);
  }
  for (const WorkerOut& out : outs) {
    merged.iterations += out.iterations;
    merged.satCalls += out.sat_calls;
    merged.satStats += out.stats;
  }
  return merged;
}

}  // namespace msu
