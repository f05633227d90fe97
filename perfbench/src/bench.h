/// \file bench.h
/// \brief Shared pieces of the repository benchmark: the metric table,
///        percentile helpers, the answer verifier and the span
///        attribution that turns a trace into per-layer self times.
///
/// The benchmark drives the library only through its public API
/// (harness/factory.h, cnf/dimacs.h, core/preprocess.h, svc/service.h)
/// and observes it only through public hooks (MaxSatOptions::metrics,
/// MaxSatResult::satStats, JobOutcome, obs::Tracer). Nothing here is
/// linked into the library.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cnf/wcnf.h"
#include "core/maxsat.h"
#include "obs/trace.h"

namespace perfbench {

/// One reported number with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics by name (ordered, so every print lists them the same way).
using MetricMap = std::map<std::string, Metric>;

/// Nearest-rank percentile of `values` (q in [0, 1]); 0 for no values.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Checks every answer the benchmark receives. A failure is recorded,
/// never thrown: the run finishes, reports `error_share` and exits
/// non-zero with `correct: false`.
class Verifier {
 public:
  /// Checks one engine result against the ORIGINAL formula.
  /// `costOffset` is the cost a preprocessing step already charged
  /// (the result's cost is relative to the simplified formula).
  /// Optimum: the model is total, satisfies every hard clause, and
  /// its cost equals the claimed cost. Unknown: lowerBound <=
  /// upperBound. UnsatisfiableHard: always an error, because every
  /// generated instance has satisfiable hard clauses. The result's
  /// bounds are kept for the cross-check in finish(). Returns false
  /// iff an error was recorded.
  bool check(const std::string& instanceKey, const std::string& engine,
             const msu::WcnfFormula& original, const msu::MaxSatResult& r,
             msu::Weight costOffset = 0);

  /// Records an error unless `got == want` (planted optima).
  bool expectCost(const std::string& what, msu::Weight got, msu::Weight want);

  /// Records an error (exceptions, lost jobs).
  void fail(const std::string& what);

  /// Cross-checks all answers seen for each instance: every proven
  /// optimum must be equal, and every aborted result's bounds must
  /// bracket that optimum. Call once, after the last check().
  void finish();

  [[nodiscard]] std::int64_t errors() const {
    return static_cast<std::int64_t>(errors_.size());
  }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return errors_;
  }

 private:
  struct Seen {
    std::string engine;
    bool optimum = false;
    msu::Weight lower = 0;
    msu::Weight upper = 0;
  };
  std::map<std::string, std::vector<Seen>> seen_;
  std::vector<std::string> errors_;
};

/// One measured operation: an (engine, instance) pair, a file or a job.
struct Op {
  std::string engine;
  double wall_s = 0.0;   ///< the benchmark's own clock around the call
  double limit_s = 0.0;  ///< the wall limit the operation ran under
  bool solved = false;   ///< a verified optimum
  bool error = false;    ///< wrong answer, exception or lost job
  // Layer timings taken by the benchmark around public calls.
  double load_s = 0.0;
  double preprocess_s = 0.0;
  double solve_s = 0.0;
  double load_bytes = 0.0;
  double formula_bytes = 0.0;
  // Service only.
  double queue_s = 0.0;
  double latency_s = 0.0;
  double late_s = 0.0;
  bool shed = false;  ///< refused with kOverloaded; never ran
  bool deadline_abort = false;
  // From MaxSatResult.
  std::int64_t iterations = 0;
  std::int64_t cores = 0;
  std::int64_t conflicts = 0;
  std::int64_t propagations = 0;
  std::int64_t retired_clauses = 0;
  std::int64_t recycled_vars = 0;
  std::int64_t mem_bytes = 0;

  [[nodiscard]] bool withinLimit() const {
    return solved && !error && wall_s <= limit_s;
  }

  void take(const msu::MaxSatResult& r);
};

/// One benchmark invocation.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics, no hooks attached. true: per-layer
  /// metrics from an instrumented untraced pass plus a traced replay.
  bool trace = false;
  /// Minimal instance sizes and schedule, for the self-test (not on
  /// the command line).
  bool tiny = false;
  /// Scratch directory for generated files (inside the checkout).
  std::string dataDir = ".bench_build/data";
};

/// What a run measured.
struct RunReport {
  MetricMap endToEnd;  ///< the BENCHMARK.json end_to_end metrics
  MetricMap perLayer;  ///< the BENCHMARK.json per_layer metrics
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::string> notes;  ///< human-readable context lines
};

/// Names accepted by runWorkload().
[[nodiscard]] std::vector<std::string> workloadNames();

/// Runs one workload. Throws std::invalid_argument for unknown names.
[[nodiscard]] RunReport runWorkload(const RunConfig& config);

/// Reduces a workload's operations to the end-to-end metrics
/// (`par2_s`, `goodput_per_s`, `peak_rss_mb`) and the unbounded
/// end-to-end figures printed with the per-layer table. Every operation
/// counts, a shed one too: it is aborted and charged 2 x limit.
void endToEndMetrics(const std::vector<Op>& ops, double goodputPerSecond,
                     RunReport& rep);

/// Per-layer self times (`trace.*`) of a finished, quiescent tracer,
/// and the tracing overhead of the traced over the untraced wall time.
/// Writes the trace to `tracePath`. A tracer that dropped events would
/// attribute only the tail of the run, so that is a verifier error.
void traceMetrics(const msu::obs::Tracer& tracer, double untracedWall,
                  double tracedWall, const std::string& tracePath,
                  Verifier& verifier, RunReport& rep);

/// One complete span from an exported trace.
struct SpanEvent {
  std::string name;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::int64_t tid = 0;
};

/// Parses the complete ("ph":"X") events of obs::Tracer's Chrome
/// trace export; instants are skipped.
[[nodiscard]] std::vector<SpanEvent> parseChromeTrace(const std::string& json);

/// Self time per span name: each span's duration minus the part of it
/// covered by the spans directly nested inside it on the same thread.
/// Nesting is by interval containment; the tracer's spans are RAII
/// scopes, so per thread they nest properly.
[[nodiscard]] std::map<std::string, double> selfSeconds(
    std::vector<SpanEvent> spans);

}  // namespace perfbench
