/// \file workloads.cpp
/// \brief The four benchmark workloads. Each one generates its inputs
///        from the seed, runs a fixed amount of work sized to the
///        requested seconds, verifies every answer, and reduces the
///        per-operation records to the metrics named in BENCHMARK.json.
///
/// An operation is one (engine, instance) pair for `paper-core` and
/// `model-improving`, one file for `ingest`, and one job for
/// `service`. Every operation has a wall limit; PAR-2 charges an
/// operation that misses it 2 x limit.
///
/// With `trace` on, a run does half the work, each part twice: an
/// instrumented run (metrics registry attached, no tracer), then a
/// replay of exactly the same operations with an obs::Tracer attached
/// (each batch pass and each file right after it; the service's
/// nominal segment after the sweep). Per-layer numbers come from the
/// instrumented run and the trace; the replay's extra wall time over
/// the instrumented run is the tracing overhead.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "bench.h"
#include "cnf/dimacs.h"
#include "core/preprocess.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "harness/suite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/service.h"

namespace perfbench {
namespace {

using msu::MaxSatResult;
using msu::MaxSatStatus;
using msu::Weight;
using msu::WcnfFormula;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  // splitmix64 of the pair: distinct, well-spread sub-seeds.
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Instrumentation attached to one pass (both null: plain run).
struct Hooks {
  msu::obs::MetricsRegistry* metrics = nullptr;
  msu::obs::Tracer* tracer = nullptr;
};

// ---- metric tables ---------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& endToEndNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"par2_s", "s"},
      {"goodput_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return names;
}

// Engines whose aborted counts are reported one by one (Table 1 order
// plus the OracleSession SAT-UNSAT path).
const std::vector<std::string> kReportedEngines = {"maxsatz", "pbo", "msu4-v1",
                                                   "msu4-v2", "wlinear"};

const std::vector<std::pair<std::string, std::string>>& perLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> n = {
        {"sat.busy_s", "s"},
        {"sat.calls", "count"},
        {"sat.busy_share", "ratio"},
        {"sat.conflicts", "count"},
        {"sat.propagations", "count"},
        {"sat.mem_mb", "MB"},
        {"core.solve_s", "s"},
        {"core.cores", "count"},
        {"core.iterations", "count"},
        {"core.non_oracle_s", "s"},
        {"core.preprocess_s", "s"},
        {"encodings.retired_clauses", "count"},
        {"encodings.recycled_vars", "count"},
        {"pbo.solve_s", "s"},
        {"bnb.solve_s", "s"},
        {"cnf.load_s", "s"},
        {"cnf.mb_per_s", "MB/s"},
        {"cnf.formula_mb", "MB"},
        {"svc.queue_ms.p50", "ms"},
        {"svc.queue_ms.p99", "ms"},
        {"svc.run_ms.p50", "ms"},
        {"svc.queue_depth.max", "count"},
        {"svc.deadline_aborts", "count"},
        {"svc.generator_late_ms.max", "ms"},
        {"latency_ms.p50", "ms"},
        {"latency_ms.p99", "ms"},
        {"max_rate_per_s", "1/s"},
        {"shed_share", "ratio"},
        {"solve_ms.p50", "ms"},
        {"solve_ms.p75", "ms"},
        {"aborted_share", "ratio"},
        {"overshoot_ms.max", "ms"},
        {"error_share", "ratio"},
        {"trace.oracle_self_s", "s"},
        {"trace.trim_s", "s"},
        {"trace.inprocess_s", "s"},
        {"trace.other_s", "s"},
        {"trace.overhead_share", "ratio"},
    };
    for (const std::string& e : kReportedEngines) {
      n.emplace_back("core.aborted." + e, "count");
    }
    return n;
  }();
  return names;
}

void put(MetricMap& m, const std::string& name, double value) {
  for (const auto* table : {&endToEndNames(), &perLayerNames()}) {
    for (const auto& [n, unit] : *table) {
      if (n == name) {
        m[name] = Metric{value, unit};
        return;
      }
    }
  }
  throw std::logic_error("metric not declared: " + name);
}

// ---- reduction of op records to metrics ------------------------------------

/// Layer figures every workload derives from its op records and the
/// instrumented pass's hooks.
void layerMetrics(const std::vector<Op>& ops, msu::obs::MetricsRegistry* reg,
                  MetricMap& out) {
  double core = 0, pbo = 0, bnb = 0, load = 0, pre = 0, bytes = 0;
  double satMem = 0, formula = 0;
  double cores = 0, iters = 0, confl = 0, props = 0, retired = 0, recycled = 0;
  std::map<std::string, double> aborted;
  for (const std::string& e : kReportedEngines) aborted[e] = 0;
  for (const Op& op : ops) {
    if (op.engine == "pbo") {
      pbo += op.solve_s;
    } else if (op.engine == "maxsatz") {
      bnb += op.solve_s;
    } else {
      core += op.solve_s;
    }
    load += op.load_s;
    pre += op.preprocess_s;
    bytes += op.load_bytes;
    satMem = std::max(satMem, static_cast<double>(op.mem_bytes));
    formula = std::max(formula, op.formula_bytes);
    cores += static_cast<double>(op.cores);
    iters += static_cast<double>(op.iterations);
    confl += static_cast<double>(op.conflicts);
    props += static_cast<double>(op.propagations);
    retired += static_cast<double>(op.retired_clauses);
    recycled += static_cast<double>(op.recycled_vars);
    if (!op.solved && aborted.count(op.engine) != 0) aborted[op.engine] += 1;
  }
  double busy = 0, calls = 0;
  if (reg != nullptr) {
    const msu::obs::Histogram& h = reg->histogram("msu_oracle_solve_us");
    busy = static_cast<double>(h.sum()) * 1e-6;
    calls = static_cast<double>(h.count());
  }
  put(out, "sat.busy_s", busy);
  put(out, "sat.calls", calls);
  put(out, "sat.busy_share", core > 0 ? busy / core : 0.0);
  put(out, "sat.conflicts", confl);
  put(out, "sat.propagations", props);
  put(out, "sat.mem_mb", satMem / 1e6);
  put(out, "core.solve_s", core);
  put(out, "core.cores", cores);
  put(out, "core.iterations", iters);
  put(out, "core.non_oracle_s", std::max(0.0, core - busy));
  put(out, "core.preprocess_s", pre);
  put(out, "encodings.retired_clauses", retired);
  put(out, "encodings.recycled_vars", recycled);
  put(out, "pbo.solve_s", pbo);
  put(out, "bnb.solve_s", bnb);
  put(out, "cnf.load_s", load);
  put(out, "cnf.mb_per_s", load > 0 ? bytes / 1e6 / load : 0.0);
  put(out, "cnf.formula_mb", formula / 1e6);
  for (const auto& [e, n] : aborted) put(out, "core.aborted." + e, n);
}

}  // namespace

void Op::take(const MaxSatResult& r) {
  iterations = r.iterations;
  cores = r.coresFound;
  conflicts = r.satStats.conflicts;
  propagations = r.satStats.propagations;
  retired_clauses = r.satStats.retired_clauses;
  recycled_vars = r.satStats.recycled_vars;
  mem_bytes = r.satStats.mem_bytes;
}

// The percentiles and the abort and overshoot figures go to the
// per-layer table: see perfbench/README.md for why they carry no bound.
void endToEndMetrics(const std::vector<Op>& ops, double goodputPerSecond,
                     RunReport& rep) {
  MetricMap& e2e = rep.endToEnd;
  MetricMap& extra = rep.perLayer;
  std::vector<double> wall;
  double par2 = 0, aborted = 0, overshoot = 0;
  for (const Op& op : ops) {
    // A shed operation never ran: it has no wall time, and it misses
    // its limit.
    if (!op.shed) wall.push_back(op.wall_s * 1e3);
    par2 += op.withinLimit() ? op.wall_s : 2.0 * op.limit_s;
    if (!op.solved || op.error) {
      aborted += 1;
      if (!op.shed) {
        overshoot = std::max(overshoot, (op.wall_s - op.limit_s) * 1e3);
      }
    }
  }
  const double dn = ops.empty() ? 1.0 : static_cast<double>(ops.size());
  put(e2e, "par2_s", par2 / dn);
  put(extra, "solve_ms.p50", percentile(wall, 0.50));
  put(extra, "solve_ms.p75", percentile(wall, 0.75));
  put(e2e, "goodput_per_s", goodputPerSecond);
  put(e2e, "peak_rss_mb",
      static_cast<double>(msu::obs::peakRssBytes()) / 1e6);
  put(extra, "aborted_share", aborted / dn);
  put(extra, "overshoot_ms.max", overshoot);
}

void traceMetrics(const msu::obs::Tracer& tracer, double untracedWall,
                  double tracedWall, const std::string& tracePath,
                  Verifier& verifier, RunReport& rep) {
  std::ostringstream json;
  tracer.exportChromeTrace(json);
  {
    std::ofstream file(tracePath);
    file << json.str();
    rep.notes.push_back("trace written to " + tracePath + " (" +
                        std::to_string(tracer.retained()) + " events, " +
                        std::to_string(tracer.dropped()) + " dropped)");
  }
  if (tracer.dropped() > 0) {
    verifier.fail("tracer dropped " + std::to_string(tracer.dropped()) +
                  " events: the trace.* self times would cover only part "
                  "of the run");
  }
  std::vector<SpanEvent> spans = parseChromeTrace(json.str());
  // Latency spans (queue waits, the benchmark's due-to-outcome span)
  // overlap other work on their thread; they are not layer work.
  std::erase_if(spans, [](const SpanEvent& s) {
    return s.name == "job-queue" || s.name == "bench-job";
  });
  const std::map<std::string, double> self = selfSeconds(std::move(spans));
  auto sum = [&](std::initializer_list<const char*> names) {
    double s = 0;
    for (const char* n : names) {
      auto it = self.find(n);
      if (it != self.end()) s += it->second;
    }
    return s;
  };
  MetricMap& out = rep.perLayer;
  put(out, "trace.oracle_self_s", sum({"solve", "restart", "import-drain"}));
  put(out, "trace.trim_s", sum({"trim-core", "minimize-core"}));
  put(out, "trace.inprocess_s", sum({"inprocess"}));
  put(out, "trace.other_s", sum({"bench-op", "job-run"}));
  put(out, "trace.overhead_share",
      untracedWall > 0 ? (tracedWall - untracedWall) / untracedWall : 0.0);
}

namespace {

/// setup_s is the median time of one set-up unit, sampled at points
/// spread over the whole run (between a pass's instances, before each
/// file, around each service segment). On a shared machine the same
/// unit runs up to 1.5x slower on one vCPU than on another, and the
/// process keeps its vCPU for seconds, so samples taken back to back at
/// the start would all see the same one.
class SetupTimes {
 public:
  void time(const std::function<void()>& unit) {
    const Clock::time_point t0 = Clock::now();
    unit();
    seconds_.push_back(since(t0));
  }
  /// Puts setup_s and a note on the samples (`unit` names them).
  void report(const std::string& unit, RunReport& rep) const {
    put(rep.endToEnd, "setup_s", percentile(seconds_, 0.5));
    rep.notes.push_back("setup_s: median of " + std::to_string(seconds_.size()) +
                        " " + unit + " (quartiles " +
                        std::to_string(percentile(seconds_, 0.25)) + " - " +
                        std::to_string(percentile(seconds_, 0.75)) + " s)");
  }

 private:
  std::vector<double> seconds_;
};

/// Sub-seed of the reference set-up unit of the batch and service
/// workloads, the same in every run. The run's own units (a suite, a
/// job sub-pool) cost from 0.05 to 0.63 s depending on their sub-seed,
/// which would hide a change in set-up cost behind the choice of seed.
constexpr std::uint64_t kReferenceSeed = 0;

/// Reference suites timed per batch pass. Fewer samples per run left
/// the run-to-run spread of setup_s near its bound.
constexpr std::size_t kSetupSamplesPerPass = 8;

/// Current resident set, in MB (0 where /proc is missing).
double currentRssMb() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0, resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

std::string mb(double bytes) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f MB", bytes / 1e6);
  return buf;
}

/// Rings large enough that no span of a traced run is dropped.
const msu::obs::Tracer::Options kTracerOptions{std::size_t{1} << 17};

// ---- paper-core and model-improving -----------------------------------------

/// Shape of a batch workload over buildMixedSuite.
struct BatchSpec {
  double sizeScale = 1.0;
  int perFamily = 4;
  double limit_s = 1.0;
  std::vector<std::string> engines;
  /// One thread per engine (each runs its engine over the same
  /// instance stream) instead of one pair at a time.
  bool lanePerEngine = false;
  /// Wall time of one pass on the reference machine (see README);
  /// a run makes seconds / passSeconds passes.
  double passSeconds = 1.0;
};

/// One pass of a batch run: buildMixedSuite seeded from (seed, j),
/// in a seeded order.
struct Pass {
  std::vector<msu::Instance> suite;
  std::vector<std::size_t> order;
};

Pass buildPass(const BatchSpec& spec, std::uint64_t seed, std::size_t j) {
  Pass p;
  msu::SuiteParams sp;
  sp.sizeScale = spec.sizeScale;
  sp.perFamily = spec.perFamily;
  sp.seed = mix(seed, j);
  p.suite = msu::buildMixedSuite(sp);
  p.order.resize(p.suite.size());
  for (std::size_t i = 0; i < p.order.size(); ++i) p.order[i] = i;
  std::mt19937_64 rng(mix(seed, j + 1000));
  std::shuffle(p.order.begin(), p.order.end(), rng);
  return p;
}

/// Runs one (engine, instance) pair under the pass's wall limit and
/// verifies the answer. `key` names the instance for the verifier's
/// cross-check; `id` is the pair's span identifier.
Op runPair(const BatchSpec& spec, const msu::Instance& inst,
           const std::string& engine, const std::string& key, Hooks hooks,
           std::int64_t id, Verifier& verifier, std::mutex& verifyMu) {
  msu::MaxSatOptions o;
  o.budget = msu::Budget::wallClock(spec.limit_s);
  o.metrics = hooks.metrics;
  o.sat.trace = hooks.tracer;
  Op op;
  op.engine = engine;
  op.limit_s = spec.limit_s;
  op.formula_bytes = static_cast<double>(inst.wcnf.memBytesEstimate());
  const std::int64_t us0 = hooks.tracer != nullptr ? hooks.tracer->nowUs() : 0;
  const Clock::time_point t0 = Clock::now();
  MaxSatResult r;
  try {
    r = msu::makeSolver(engine, o)->solve(inst.wcnf);
  } catch (const std::exception& e) {
    op.error = true;
    std::lock_guard<std::mutex> lock(verifyMu);
    verifier.fail(engine + " on " + inst.name + ": " + e.what());
  }
  op.wall_s = op.solve_s = since(t0);
  if (hooks.tracer != nullptr) {
    hooks.tracer->span(msu::obs::TraceCat::kJob, "bench-op", us0,
                       hooks.tracer->nowUs(), "op", id);
  }
  if (!op.error) {
    std::lock_guard<std::mutex> lock(verifyMu);
    op.error = !verifier.check(key, engine, inst.wcnf, r);
  }
  op.solved = r.status == MaxSatStatus::Optimum && !op.error;
  op.take(r);
  return op;
}

double totalWall(const std::vector<Op>& ops) {
  double s = 0;
  for (const Op& op : ops) s += op.wall_s;
  return s;
}

/// Verified optima within their limit per second of engine time,
/// summed over lanes (one lane per engine, or one for all).
double laneGoodput(const std::vector<Op>& ops, bool lanePerEngine) {
  std::map<std::string, std::pair<double, double>> lanes;  // good, wall
  for (const Op& op : ops) {
    auto& [good, wall] = lanes[lanePerEngine ? op.engine : ""];
    good += op.withinLimit() ? 1 : 0;
    wall += op.wall_s;
  }
  double rate = 0;
  for (const auto& [lane, gw] : lanes) rate += gw.second > 0 ? gw.first / gw.second : 0;
  return rate;
}

/// Whole units of work sized to fill `seconds` at `unitSeconds` each
/// (at least one). A run's work is fixed by its arguments, so a faster
/// program runs the same operations in less time.
std::size_t unitsFor(double seconds, double unitSeconds) {
  return static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / unitSeconds)));
}

RunReport runBatchWorkload(const RunConfig& cfg, BatchSpec spec) {
  RunReport rep;
  const std::size_t passes =
      unitsFor(cfg.trace ? cfg.seconds / 2 : cfg.seconds, spec.passSeconds);
  std::vector<std::vector<std::string>> lanes;
  if (spec.lanePerEngine) {
    for (const std::string& e : spec.engines) lanes.push_back({e});
  } else {
    lanes.push_back(spec.engines);
  }
  Verifier verifier;
  std::mutex verifyMu;
  msu::obs::MetricsRegistry registry;
  msu::obs::Tracer tracer(kTracerOptions);
  // Only the replayed pairs get the tracer, so it stays on throughout.
  tracer.setEnabled(cfg.trace);
  const Hooks plainHooks = cfg.trace ? Hooks{&registry, nullptr} : Hooks{};
  std::atomic<std::int64_t> nextId{0};
  std::vector<std::vector<Op>> lanePlain(lanes.size()), laneTraced(lanes.size());
  SetupTimes setup;
  double build_s = 0, heldBytes = 0;

  // Each lane runs its engines over every pass. It builds each pass
  // itself just before running it and frees it after, so a lane holds
  // the inputs of one pass at a time. With --trace 1 every pass is run
  // untraced, then replayed with the tracer.
  auto runLane = [&](std::size_t lane) {
    for (std::size_t j = 0; j < passes; ++j) {
      const Clock::time_point t0 = Clock::now();
      const Pass pass = buildPass(spec, cfg.seed, j);
      if (lane == 0) {
        build_s += since(t0);
        double bytes = 0;
        for (const msu::Instance& in : pass.suite) {
          bytes += static_cast<double>(in.wcnf.memBytesEstimate());
        }
        heldBytes = std::max(heldBytes, bytes);
      }
      // Lane 0 times the reference suite between instances.
      const std::size_t every =
          (pass.order.size() + kSetupSamplesPerPass - 1) / kSetupSamplesPerPass;
      for (const bool replay : {false, true}) {
        if (replay && !cfg.trace) break;
        for (std::size_t i = 0; i < pass.order.size(); ++i) {
          if (lane == 0 && !replay && i % every == 0) {
            setup.time([&] { const Pass reference = buildPass(spec, kReferenceSeed, 0); });
          }
          const msu::Instance& inst = pass.suite[pass.order[i]];
          const std::string key = "pass" + std::to_string(j) + "/" + inst.name;
          for (const std::string& engine : lanes[lane]) {
            Op op = runPair(spec, inst, engine, key,
                            replay ? Hooks{nullptr, &tracer} : plainHooks,
                            nextId++, verifier, verifyMu);
            (replay ? laneTraced : lanePlain)[lane].push_back(std::move(op));
          }
        }
      }
    }
  };
  if (lanes.size() == 1) {
    runLane(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t l = 0; l < lanes.size(); ++l) threads.emplace_back(runLane, l);
    for (std::thread& t : threads) t.join();
  }
  tracer.setEnabled(false);

  std::vector<Op> plain, traced;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    plain.insert(plain.end(), lanePlain[l].begin(), lanePlain[l].end());
    traced.insert(traced.end(), laneTraced[l].begin(), laneTraced[l].end());
  }
  setup.report("reference suites", rep);
  rep.notes.push_back(
      "the run's " + std::to_string(passes) + " passes took " +
      std::to_string(build_s) + " s to build; inputs held per lane: " +
      mb(heldBytes) + " (memBytesEstimate of one pass)");
  endToEndMetrics(plain, laneGoodput(plain, spec.lanePerEngine), rep);
  layerMetrics(plain, cfg.trace ? &registry : nullptr, rep.perLayer);
  if (cfg.trace) {
    traceMetrics(tracer, totalWall(plain), totalWall(traced),
                 cfg.dataDir + "/" + cfg.workload + ".trace.json", verifier,
                 rep);
  }
  verifier.finish();
  rep.attempted = static_cast<std::int64_t>(plain.size() + traced.size());
  rep.errors = verifier.messages();
  rep.failed = verifier.errors();
  return rep;
}

// ---- ingest ----------------------------------------------------------------

/// A WCNF text with a known optimum: random clauses that a hidden
/// assignment satisfies (hard, or soft of weight 1), hard units that fix a
/// share of the variables to their hidden value (work for the
/// preprocessor), and `planted` pairs of contradicting unit softs of
/// weight 1 over fresh variables. Every pair costs exactly 1 and the
/// hidden assignment pays nothing else, so the optimum is `planted`.
struct PlantedFile {
  std::string path;
  Weight optimum = 0;
  std::int64_t bytes = 0;
};

PlantedFile writePlantedWcnf(const std::string& path, std::int64_t targetBytes,
                             std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  // ~2 clauses per variable: far below the 3-SAT threshold, so the
  // search is easy and parsing, preprocessing and loading dominate.
  const int vars = static_cast<int>(std::max<std::int64_t>(200, targetBytes / 45));
  const int planted = 12 + static_cast<int>(rng() % 12);
  std::vector<char> hidden(static_cast<std::size_t>(vars));
  for (char& b : hidden) b = static_cast<char>(rng() & 1);
  const long long top = 1000000000LL;

  std::string body;
  body.reserve(static_cast<std::size_t>(targetBytes) + 4096);
  long long clauses = 0;
  char buf[32];
  auto lit = [&](int v, bool positive) {
    const int d = positive ? v + 1 : -(v + 1);
    const int len = std::snprintf(buf, sizeof buf, "%d ", d);
    body.append(buf, static_cast<std::size_t>(len));
  };
  auto head = [&](long long w) {
    const int len = std::snprintf(buf, sizeof buf, "%lld ", w);
    body.append(buf, static_cast<std::size_t>(len));
    ++clauses;
  };
  // Hard units fixing ~2% of the variables.
  for (int v = 0; v < vars; v += 50) {
    head(top);
    lit(v, hidden[static_cast<std::size_t>(v)] != 0);
    body += "0\n";
  }
  while (static_cast<std::int64_t>(body.size()) < targetBytes) {
    int v[3];
    bool pos[3];
    bool sat = false;
    for (int k = 0; k < 3; ++k) {
      v[k] = static_cast<int>(rng() % static_cast<std::uint64_t>(vars));
      pos[k] = (rng() & 1) != 0;
      sat |= pos[k] == (hidden[static_cast<std::size_t>(v[k])] != 0);
    }
    if (!sat) pos[0] = hidden[static_cast<std::size_t>(v[0])] != 0;
    // Unit soft weights: msu4 reduces weights by clause duplication,
    // which a file of this size would exceed.
    head(rng() % 10 < 3 ? top : 1);
    for (int k = 0; k < 3; ++k) lit(v[k], pos[k]);
    body += "0\n";
  }
  for (int i = 0; i < planted; ++i) {
    const int v = vars + i;
    head(1);
    lit(v, true);
    body += "0\n";
    head(1);
    lit(v, false);
    body += "0\n";
  }
  const std::string header = "p wcnf " + std::to_string(vars + planted) + " " +
                             std::to_string(clauses) + " " +
                             std::to_string(top) + "\n";
  std::ofstream out(path, std::ios::binary);
  out << header << body;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
  return PlantedFile{path, planted,
                     static_cast<std::int64_t>(header.size() + body.size())};
}

struct IngestSpec {
  std::int64_t fileBytes = 16ll << 20;
  /// One file written and taken end to end, reference machine.
  double fileSeconds = 3.6;
  double limit_s = 30.0;
};

Op ingestOne(const PlantedFile& file, const IngestSpec& spec, Hooks hooks,
             std::int64_t id, Verifier& verifier) {
  Op op;
  op.engine = "msu4-v2";
  op.limit_s = spec.limit_s;
  op.load_bytes = static_cast<double>(file.bytes);
  msu::obs::Tracer* tr = hooks.tracer;
  const std::int64_t us0 = tr != nullptr ? tr->nowUs() : 0;
  const Clock::time_point t0 = Clock::now();
  try {
    WcnfFormula original = msu::loadDimacsWcnf(file.path);
    op.load_s = since(t0);
    const std::int64_t us1 = tr != nullptr ? tr->nowUs() : 0;
    if (tr != nullptr) tr->span(msu::obs::TraceCat::kJob, "bench-load", us0, us1, "op", id);
    op.formula_bytes = static_cast<double>(original.memBytesEstimate());
    const Clock::time_point t1 = Clock::now();
    msu::PreprocessResult pre = msu::preprocessWcnf(original);
    op.preprocess_s = since(t1);
    if (tr != nullptr) {
      tr->span(msu::obs::TraceCat::kJob, "bench-preprocess", us1, tr->nowUs(),
               "op", id);
    }
    MaxSatResult r;
    if (pre.simplified) {
      msu::MaxSatOptions o;
      o.budget = msu::Budget::wallClock(
          std::max(0.0, spec.limit_s - since(t0)));
      o.metrics = hooks.metrics;
      o.sat.trace = tr;
      const Clock::time_point t2 = Clock::now();
      r = msu::makeSolver("msu4-v2", o)->solve(*pre.simplified);
      op.solve_s = since(t2);
      // Splice the hard-forced values back (the maxsat_cli path).
      if (r.status == MaxSatStatus::Optimum) {
        for (std::size_t v = 0; v < r.model.size() && v < pre.forced.size();
             ++v) {
          if (pre.forced[v] != msu::lbool::Undef) r.model[v] = pre.forced[v];
        }
      }
    }
    op.wall_s = since(t0);
    if (tr != nullptr) {
      tr->span(msu::obs::TraceCat::kJob, "bench-op", us0, tr->nowUs(), "op", id);
    }
    if (!pre.simplified) {
      verifier.fail(file.path + ": preprocessing refuted satisfiable hards");
      op.error = true;
    } else {
      op.error = !verifier.check(file.path, "msu4-v2", original, r,
                                 pre.forcedCost);
      if (r.status == MaxSatStatus::Optimum) {
        op.error |= !verifier.expectCost(file.path, r.cost + pre.forcedCost,
                                         file.optimum);
      }
    }
    op.solved = r.status == MaxSatStatus::Optimum && !op.error;
    op.take(r);
  } catch (const std::exception& e) {
    op.wall_s = since(t0);
    op.error = true;
    verifier.fail(file.path + ": " + e.what());
  }
  return op;
}

RunReport runIngest(const RunConfig& cfg) {
  IngestSpec spec;
  if (cfg.tiny) spec.fileBytes = 64 << 10;
  RunReport rep;
  std::filesystem::create_directories(cfg.dataDir);
  const std::size_t count =
      unitsFor(cfg.trace ? cfg.seconds / 2 : cfg.seconds, spec.fileSeconds);
  Verifier verifier;
  msu::obs::MetricsRegistry registry;
  msu::obs::Tracer tracer(kTracerOptions);
  SetupTimes setup;
  std::vector<Op> plain, traced;
  // Each operation gets a file of its own, written just before it (the
  // set-up unit: its cost is set by the file size, not by the seed) and
  // deleted after it. With --trace 1 the file is replayed traced.
  for (std::size_t i = 0; i < count; ++i) {
    PlantedFile file;
    setup.time([&] {
      // Distinct names: the verifier keys answers by path.
      file = writePlantedWcnf(
          cfg.dataDir + "/ingest-" + std::to_string(i) + ".wcnf",
          spec.fileBytes, mix(cfg.seed, static_cast<std::uint64_t>(i)));
    });
    const auto id = static_cast<std::int64_t>(i);
    if (!cfg.trace) {
      plain.push_back(ingestOne(file, spec, {}, id, verifier));
    } else {
      plain.push_back(ingestOne(file, spec, {&registry, nullptr}, id, verifier));
      tracer.setEnabled(true);
      traced.push_back(ingestOne(file, spec, {nullptr, &tracer}, id, verifier));
      tracer.setEnabled(false);
    }
    std::filesystem::remove(file.path);
  }
  setup.report("file writes", rep);
  endToEndMetrics(plain, laneGoodput(plain, false), rep);
  layerMetrics(plain, cfg.trace ? &registry : nullptr, rep.perLayer);
  if (cfg.trace) {
    traceMetrics(tracer, totalWall(plain), totalWall(traced),
                 cfg.dataDir + "/ingest.trace.json", verifier, rep);
  }
  verifier.finish();
  rep.attempted = static_cast<std::int64_t>(plain.size() + traced.size());
  rep.errors = verifier.messages();
  rep.failed = verifier.errors();
  return rep;
}

// ---- service ---------------------------------------------------------------

/// Open-loop traffic into one SolveService: jobs arrive on a fixed
/// schedule (job i of a segment is due at i / rate) whatever the
/// service is doing, so a stall makes later jobs wait. Segments run at
/// fixed rates; the nominal one (first) feeds the end-to-end metrics.
struct ServiceSpec {
  double nominalRate = 100.0;  ///< jobs per second
  std::vector<double> rateFactors = {1.0, 0.5, 2.0, 4.0};
  double jobLimit_s = 0.2;
  std::size_t hardEvery = 100;  ///< one job in this many exceeds jobLimit_s
  /// On p99; above jobLimit_s, so a job that runs into its deadline
  /// and returns promptly still meets it when it did not queue.
  double latencyLimitMs = 500.0;
  int workers = 2;  ///< + generator + watchdog = 4 threads
  std::int64_t referenceConflicts = 500;
  int poolUnits = 16;
  double mixedScale = 0.3;
  double weightedScale = 0.5;
  int perFamily = 3;
};

struct JobPool {
  std::vector<msu::Instance> normal;
  std::vector<msu::Instance> hard;
  /// (verifier key, msu4-v2 result) of every normal instance.
  std::vector<std::pair<std::string, MaxSatResult>> reference;
};

/// `tag` keeps names unique when pools from several seeds are merged.
JobPool buildJobPool(const ServiceSpec& spec, std::uint64_t seed,
                     const std::string& tag) {
  JobPool pool;
  msu::SuiteParams mp;
  mp.sizeScale = spec.mixedScale;
  mp.perFamily = spec.perFamily;
  mp.seed = mix(seed, 1);
  for (msu::Instance& in : msu::buildMixedSuite(mp)) {
    pool.normal.push_back(std::move(in));
  }
  msu::SuiteParams wp;
  wp.sizeScale = spec.weightedScale;
  wp.perFamily = spec.perFamily;
  wp.seed = mix(seed, 2);
  for (msu::Instance& in : msu::buildWeightedSuite(wp)) {
    pool.normal.push_back(std::move(in));
  }
  // Jobs are small: keep the instances msu4-v2 solves within a fixed
  // conflict budget (a deterministic cut), and keep their optima as
  // the reference every job's answer must match.
  for (msu::Instance& in : pool.normal) in.name = tag + in.name;
  std::erase_if(pool.normal, [&](const msu::Instance& in) {
    msu::MaxSatOptions o;
    o.budget = msu::Budget::conflicts(spec.referenceConflicts);
    const MaxSatResult r = msu::makeSolver("msu4-v2", o)->solve(in.wcnf);
    if (r.status != MaxSatStatus::Optimum) return true;
    pool.reference.emplace_back(in.name + "/" + in.family, r);
    return false;
  });
  // Over-constrained random 3-SAT well past what msu4 refutes within
  // the job limit: these jobs run into their deadline.
  for (int i = 0; i < 2; ++i) {
    pool.hard.push_back(msu::Instance{
        tag + "rnd3sat-hard-" + std::to_string(i), "random",
        WcnfFormula::allSoft(msu::randomUnsat3Sat(
            110 + 10 * i, 5.2, mix(seed, 3 + static_cast<std::uint64_t>(i))))});
  }
  return pool;
}

struct Segment {
  double rate = 0.0;
  std::vector<Op> ops;
  double window_s = 0.0;
  std::int64_t maxDepth = 0;
};

Segment runSegment(msu::SolveService& svc, const JobPool& pool,
                   const ServiceSpec& spec, double rate, double duration,
                   std::uint64_t segSeed, msu::obs::Tracer* tracer,
                   Verifier& verifier) {
  Segment seg;
  seg.rate = rate;
  const std::size_t n =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(rate * duration)));
  std::mt19937_64 rng(segSeed);
  struct Pending {
    msu::JobId id = msu::kJobIdUndef;
    const msu::Instance* inst = nullptr;
    std::string key;
    Op op;
    Clock::time_point due;
  };
  std::vector<Pending> jobs(n);
  std::vector<std::size_t> order(pool.normal.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::size_t next = order.size();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n; ++i) {
    Pending& p = jobs[i];
    p.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(i) / rate));
    // Fixed patterns, not draws: every run has the same number of
    // deadline jobs and engine overrides, whatever the seed.
    const bool hard = i % spec.hardEvery == spec.hardEvery / 2;
    // Normal jobs walk the pool in a seeded order, so every instance
    // runs equally often.
    if (!hard && next == order.size()) {
      std::shuffle(order.begin(), order.end(), rng);
      next = 0;
    }
    p.inst = hard ? &pool.hard[i % pool.hard.size()] : &pool.normal[order[next++]];
    p.key = p.inst->name + (hard ? "/hard" : "/" + p.inst->family);
    msu::JobLimits limits;
    limits.wall_seconds = spec.jobLimit_s;
    p.op.engine = i % 10 == 3 ? "oll" : i % 10 == 7 ? "msu4-v1" : "msu4-v2";
    if (p.op.engine != "msu4-v2") limits.engine = p.op.engine;
    p.op.limit_s = spec.jobLimit_s;
    p.op.formula_bytes = static_cast<double>(p.inst->wcnf.memBytesEstimate());
    std::this_thread::sleep_until(p.due);
    const Clock::time_point submitAt = Clock::now();
    p.op.late_s = std::chrono::duration<double>(submitAt - p.due).count();
    const msu::SolveService::Submission sub = svc.submit(p.inst->wcnf, limits);
    seg.maxDepth = std::max<std::int64_t>(
        seg.maxDepth, static_cast<std::int64_t>(svc.queueDepth()));
    if (sub.status == msu::SolveService::SubmitStatus::kAccepted) {
      p.id = sub.id;
    } else if (sub.status == msu::SolveService::SubmitStatus::kOverloaded) {
      p.op.shed = true;
    } else {
      p.op.error = true;
      verifier.fail(p.key + ": submit refused");
    }
  }
  seg.window_s = since(start);
  for (Pending& p : jobs) {
    if (p.id == msu::kJobIdUndef) {
      seg.ops.push_back(std::move(p.op));
      continue;
    }
    const msu::JobOutcome out = svc.await(p.id);
    Op& op = p.op;
    op.queue_s = out.queue_seconds;
    op.wall_s = op.solve_s = out.solve_seconds;
    op.latency_s = op.late_s + out.queue_seconds + out.solve_seconds;
    op.deadline_abort = out.abort == msu::AbortReason::kDeadline;
    if (out.abort == msu::AbortReason::kCancelled ||
        out.abort == msu::AbortReason::kFault) {
      op.error = true;
      verifier.fail(p.key + ": job lost (" + toString(out.abort) + ")");
    } else {
      op.error = !verifier.check(p.key, op.engine, p.inst->wcnf, out.result);
    }
    op.solved = out.result.status == MaxSatStatus::Optimum && !op.error;
    op.take(out.result);
    if (tracer != nullptr) {
      const auto due = tracer->timestampUs(p.due);
      tracer->span(msu::obs::TraceCat::kJob, "bench-job", due,
                   due + static_cast<std::int64_t>(op.latency_s * 1e6), "job",
                   static_cast<std::int64_t>(p.id));
    }
    seg.ops.push_back(std::move(op));
  }
  return seg;
}

double latencyP(const std::vector<Op>& ops, double q) {
  // A shed job misses every latency limit.
  std::vector<double> ms;
  for (const Op& op : ops) ms.push_back(op.shed ? 1e9 : op.latency_s * 1e3);
  return percentile(std::move(ms), q);
}

RunReport runService(const RunConfig& cfg) {
  ServiceSpec spec;
  if (cfg.tiny) {
    spec.nominalRate = 30.0;
    spec.mixedScale = 0.2;
    spec.weightedScale = 0.3;
    spec.perFamily = 2;
    spec.hardEvery = 10;
    spec.poolUnits = 2;
  }
  RunReport rep;
  JobPool pool;
  std::unique_ptr<msu::SolveService> svc;
  msu::obs::MetricsRegistry registry;
  auto makeService = [&](msu::obs::MetricsRegistry* reg, msu::obs::Tracer* tr) {
    msu::SolveServiceOptions o;
    o.workers = spec.workers;
    o.engine = "msu4-v2";
    o.metrics = reg;
    o.trace = tr;
    return std::make_unique<msu::SolveService>(o);
  };
  // The set-up unit starts a service and builds one job sub-pool with
  // its reference solves. It is timed four times before each segment
  // and four times after the last, while the measured service is idle.
  SetupTimes setup;
  auto timeReferenceUnit = [&] {
    for (int i = 0; i < 4; ++i) {
      setup.time([&] {
        const auto started = makeService(nullptr, nullptr);
        const JobPool reference = buildJobPool(spec, kReferenceSeed, "ref-");
      });
    }
  };
  // The run's pool: sub-pools from several seeds, so the job mix does
  // not hinge on one suite. It is held for the whole run.
  const Clock::time_point t0 = Clock::now();
  svc = makeService(cfg.trace ? &registry : nullptr, nullptr);
  double heldBytes = 0;
  for (int unit = 0; unit < spec.poolUnits; ++unit) {
    JobPool part = buildJobPool(spec, mix(cfg.seed, static_cast<std::uint64_t>(unit)),
                                "u" + std::to_string(unit) + "-");
    for (auto* v : {&part.normal, &part.hard}) {
      for (const msu::Instance& in : *v) {
        heldBytes += static_cast<double>(in.wcnf.memBytesEstimate());
      }
      auto& into = v == &part.normal ? pool.normal : pool.hard;
      into.insert(into.end(), v->begin(), v->end());
    }
    pool.reference.insert(pool.reference.end(), part.reference.begin(),
                          part.reference.end());
  }
  rep.notes.push_back(
      "job pool of " + std::to_string(pool.normal.size() + pool.hard.size()) +
      " instances built in " + std::to_string(since(t0)) +
      " s; inputs held for the run: " + mb(heldBytes) +
      " (memBytesEstimate); resident set after set-up: " +
      mb(currentRssMb() * 1e6));

  Verifier verifier;
  for (std::size_t i = 0; i < pool.reference.size(); ++i) {
    verifier.check(pool.reference[i].first, "reference", pool.normal[i].wcnf,
                   pool.reference[i].second);
  }
  const double sweep = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  std::vector<Segment> segments;
  for (std::size_t k = 0; k < spec.rateFactors.size(); ++k) {
    const double share =
        k == 0 ? 0.5 : 0.5 / static_cast<double>(spec.rateFactors.size() - 1);
    timeReferenceUnit();
    segments.push_back(runSegment(*svc, pool, spec,
                                  spec.nominalRate * spec.rateFactors[k],
                                  sweep * share, mix(cfg.seed, 100 + k),
                                  nullptr, verifier));
  }
  svc.reset();
  timeReferenceUnit();
  setup.report("service starts with a reference sub-pool", rep);

  std::vector<Op> all;
  double shed = 0, maxRate = 0;
  for (const Segment& s : segments) {
    all.insert(all.end(), s.ops.begin(), s.ops.end());
    bool anyShed = false;
    for (const Op& op : s.ops) {
      shed += op.shed ? 1 : 0;
      anyShed |= op.shed;
    }
    if (!anyShed && latencyP(s.ops, 0.99) <= spec.latencyLimitMs) {
      maxRate = std::max(maxRate, s.rate);
    }
  }
  const Segment& nominal = segments[0];
  MetricMap& layer = rep.perLayer;
  double good = 0;
  for (const Op& op : nominal.ops) good += op.withinLimit() ? 1 : 0;
  endToEndMetrics(nominal.ops, good / nominal.window_s, rep);
  // The registry saw every segment, so the layer totals cover them all.
  layerMetrics(all, cfg.trace ? &registry : nullptr, layer);
  std::vector<double> queue, run;
  double deadline = 0, late = 0;
  for (const Op& op : nominal.ops) {
    if (op.shed) continue;
    queue.push_back(op.queue_s * 1e3);
    run.push_back(op.solve_s * 1e3);
    deadline += op.deadline_abort ? 1 : 0;
    late = std::max(late, op.late_s * 1e3);
  }
  put(layer, "svc.queue_ms.p50", percentile(queue, 0.5));
  put(layer, "svc.queue_ms.p99", percentile(queue, 0.99));
  put(layer, "svc.run_ms.p50", percentile(run, 0.5));
  put(layer, "svc.queue_depth.max", static_cast<double>(nominal.maxDepth));
  put(layer, "svc.deadline_aborts", deadline);
  put(layer, "svc.generator_late_ms.max", late);
  put(layer, "latency_ms.p50", latencyP(nominal.ops, 0.5));
  put(layer, "latency_ms.p99", latencyP(nominal.ops, 0.99));
  put(layer, "max_rate_per_s", maxRate);
  put(layer, "shed_share", shed / static_cast<double>(all.size()));
  rep.notes.push_back("latency limit " + std::to_string(spec.latencyLimitMs) +
                      " ms on p99; nominal segment " +
                      std::to_string(nominal.ops.size()) + " jobs at " +
                      std::to_string(nominal.rate) + "/s");

  if (cfg.trace) {
    msu::obs::Tracer tracer(kTracerOptions);
    tracer.setEnabled(true);
    svc = makeService(nullptr, &tracer);
    Segment replay = runSegment(*svc, pool, spec, nominal.rate,
                                sweep * 0.5, mix(cfg.seed, 100), &tracer,
                                verifier);
    svc.reset();
    tracer.setEnabled(false);
    traceMetrics(tracer, totalWall(nominal.ops), totalWall(replay.ops),
                 cfg.dataDir + "/service.trace.json", verifier, rep);
    all.insert(all.end(), replay.ops.begin(), replay.ops.end());
  }
  verifier.finish();
  rep.attempted = static_cast<std::int64_t>(all.size());
  rep.errors = verifier.messages();
  rep.failed = verifier.errors();
  return rep;
}

/// Fills every declared per-layer metric a workload does not exercise
/// with 0, so each run prints the full table.
void completePerLayer(RunReport& rep) {
  for (const auto& [name, unit] : perLayerNames()) {
    if (rep.perLayer.count(name) == 0) rep.perLayer[name] = Metric{0.0, unit};
  }
}

}  // namespace

std::vector<std::string> workloadNames() {
  return {"paper-core", "model-improving", "ingest", "service"};
}

RunReport runWorkload(const RunConfig& cfg) {
  RunReport rep;
  if (cfg.workload == "paper-core") {
    BatchSpec spec;
    spec.sizeScale = cfg.tiny ? 0.3 : 1.0;
    spec.perFamily = cfg.tiny ? 2 : 4;
    spec.limit_s = cfg.tiny ? 0.2 : 0.5;
    spec.passSeconds = cfg.tiny ? 1.0 : 3.5;
    spec.engines = {"msu4-v1", "msu4-v2"};
    rep = runBatchWorkload(cfg, spec);
  } else if (cfg.workload == "model-improving") {
    BatchSpec spec;
    spec.sizeScale = cfg.tiny ? 0.2 : 0.3;
    spec.perFamily = cfg.tiny ? 2 : 3;
    spec.limit_s = cfg.tiny ? 0.2 : 0.25;
    spec.passSeconds = cfg.tiny ? 1.0 : 2.2;
    spec.engines = {"pbo", "maxsatz", "wlinear"};
    spec.lanePerEngine = true;
    rep = runBatchWorkload(cfg, spec);
  } else if (cfg.workload == "ingest") {
    rep = runIngest(cfg);
  } else if (cfg.workload == "service") {
    rep = runService(cfg);
  } else {
    throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
  }
  // Wrong answers, exceptions and lost jobs, out of all attempts.
  put(rep.perLayer, "error_share",
      static_cast<double>(rep.failed) /
          static_cast<double>(std::max<std::int64_t>(1, rep.attempted)));
  completePerLayer(rep);
  return rep;
}

}  // namespace perfbench
