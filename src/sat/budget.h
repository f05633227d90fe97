/// \file budget.h
/// \brief Resource budgets shared by all solvers in the library.
///
/// The DATE'08 evaluation aborts solvers at a wall-clock timeout. We
/// reproduce "aborted instances" accounting with cooperative budgets:
/// every solver polls a Budget (wall clock, conflicts, search nodes,
/// memory) and returns an *unknown* outcome when it is exhausted. No
/// signals, no processes — portable and deterministic enough for CI.
///
/// Budgets additionally carry an optional *interrupt flag*: a non-owning
/// pointer to an atomic bool that an external controller (the parallel
/// portfolio's first-finisher cancellation, a UI, the SolveService's
/// watchdog) may set at any time. An interrupted budget reports its wall
/// clock as expired, so every existing poll site doubles as a
/// cancellation point.
///
/// ## Copy semantics (read this before sharing Budgets across layers)
///
/// Budgets are value types and are copied freely through MaxSatOptions
/// into every engine and solver. The copy is intentionally asymmetric:
///
///  * the **interrupt flag and the abort-reason sink are shared** —
///    they are non-owning pointers, so one external stop signal (or one
///    recorded abort reason) fans out to every copy; this is how a
///    portfolio or a service cancels all the solvers of one job at
///    once. Both pointees must outlive every copy.
///  * the **deadline is a snapshot** — it is an absolute time point
///    baked in when setWallClock() ran. Calling setWallClock() on one
///    copy does NOT move any other copy's deadline. A controller that
///    wants to extend a running job's deadline must use the shared
///    interrupt flag (or its own watchdog), not a stale Budget copy.
///
/// Debug builds assert the invariant in the copy operations so a future
/// refactor cannot silently change it.

#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <optional>

namespace msu {

/// Why a cooperative solve stopped early. Recorded (first reason wins)
/// into the abort-reason sink shared by all copies of a Budget, so the
/// layer that configured the limits (e.g. the SolveService) can report
/// a structured cause instead of a bare "unknown".
enum class AbortReason : int {
  kNone = 0,    ///< not aborted (or no sink installed)
  kDeadline,    ///< wall-clock deadline passed
  kConflicts,   ///< cumulative conflict/node cap reached
  kMemory,      ///< cooperative memory cap exceeded (or simulated OOM)
  kCancelled,   ///< external interrupt flag raised by a canceller
  kFault,       ///< fault injection forced the abort (tests only)
};

/// Short human-readable abort-reason name.
[[nodiscard]] constexpr const char* toString(AbortReason r) {
  switch (r) {
    case AbortReason::kNone: return "none";
    case AbortReason::kDeadline: return "deadline";
    case AbortReason::kConflicts: return "conflicts";
    case AbortReason::kMemory: return "memory";
    case AbortReason::kCancelled: return "cancelled";
    case AbortReason::kFault: return "fault";
  }
  return "?";
}

/// A cooperative resource budget. Default-constructed budgets are
/// unlimited. All limits are cumulative for the solver instance polling
/// them (a MaxSAT engine shares one budget across all its SAT calls).
class Budget {
 public:
  using Clock = std::chrono::steady_clock;

  Budget() = default;

  // Copies share interrupt_/abort_sink_ (pointers) and snapshot the
  // deadline (a value); see the file comment. The explicit definitions
  // exist to pin that contract with debug assertions.
  Budget(const Budget& o)
      : deadline_(o.deadline_),
        max_conflicts_(o.max_conflicts_),
        max_nodes_(o.max_nodes_),
        max_memory_(o.max_memory_),
        interrupt_(o.interrupt_),
        abort_sink_(o.abort_sink_) {
    assert(interrupt_ == o.interrupt_ &&
           "budget copies share the interrupt flag");
    assert(abort_sink_ == o.abort_sink_ &&
           "budget copies share the abort-reason sink");
    assert(deadline_ == o.deadline_ &&
           "budget copies snapshot the deadline (moving one copy's "
           "deadline never moves another's)");
  }
  Budget& operator=(const Budget& o) {
    deadline_ = o.deadline_;
    max_conflicts_ = o.max_conflicts_;
    max_nodes_ = o.max_nodes_;
    max_memory_ = o.max_memory_;
    interrupt_ = o.interrupt_;
    abort_sink_ = o.abort_sink_;
    assert(interrupt_ == o.interrupt_ && abort_sink_ == o.abort_sink_ &&
           deadline_ == o.deadline_);
    return *this;
  }

  /// Unlimited budget.
  [[nodiscard]] static Budget unlimited() { return Budget{}; }

  /// Budget expiring `seconds` of wall-clock time from now.
  [[nodiscard]] static Budget wallClock(double seconds) {
    Budget b;
    b.setWallClock(seconds);
    return b;
  }

  /// Budget limited to `n` SAT conflicts (cumulative).
  [[nodiscard]] static Budget conflicts(std::int64_t n) {
    Budget b;
    b.max_conflicts_ = n;
    return b;
  }

  /// Sets/overwrites the wall-clock deadline to `seconds` from now.
  /// NOTE: the deadline is a snapshot — copies made before this call do
  /// not see it (see the file comment).
  void setWallClock(double seconds) {
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
  }

  /// Sets the cumulative conflict limit.
  void setMaxConflicts(std::int64_t n) { max_conflicts_ = n; }

  /// Sets the cumulative branch-and-bound node limit.
  void setMaxNodes(std::int64_t n) { max_nodes_ = n; }

  /// Sets the cooperative memory cap in bytes. The solver compares its
  /// own accounting (SolverStats::mem_bytes: arena + watch table +
  /// learnt DB + per-variable state) against it at the existing budget
  /// poll sites and aborts with AbortReason::kMemory instead of letting
  /// the process OOM.
  void setMaxMemory(std::int64_t bytes) { max_memory_ = bytes; }

  /// Installs (or clears, with nullptr) an external interrupt flag. The
  /// flag is non-owning and must outlive every copy of this budget;
  /// copies share it, which is how one stop signal fans out to all
  /// solvers of a portfolio.
  void setInterrupt(const std::atomic<bool>* flag) { interrupt_ = flag; }

  /// Installs (or clears, with nullptr) the abort-reason sink: an
  /// atomic slot, shared by all copies, into which the *first* limit
  /// that trips writes its AbortReason. External cancellers (watchdog,
  /// cancel()) write kDeadline/kCancelled themselves before raising the
  /// interrupt flag; first-wins keeps the recorded cause stable when
  /// several limits race.
  void setAbortSink(std::atomic<int>* sink) { abort_sink_ = sink; }

  /// Records `r` into the shared sink iff no reason is recorded yet.
  /// Safe (and a no-op) without a sink.
  void noteAbort(AbortReason r) const {
    if (abort_sink_ == nullptr) return;
    int expected = static_cast<int>(AbortReason::kNone);
    abort_sink_->compare_exchange_strong(expected, static_cast<int>(r),
                                         std::memory_order_relaxed);
  }

  /// True iff an interrupt flag is installed and set.
  [[nodiscard]] bool interrupted() const {
    return interrupt_ != nullptr &&
           interrupt_->load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::optional<std::int64_t> maxConflicts() const {
    return max_conflicts_;
  }
  [[nodiscard]] std::optional<std::int64_t> maxNodes() const {
    return max_nodes_;
  }
  [[nodiscard]] std::optional<std::int64_t> maxMemory() const {
    return max_memory_;
  }

  /// Seconds until the wall-clock deadline (clamped at 0 once passed),
  /// or nullopt when no deadline is set. Lets a controller report
  /// time-left in poll responses without reverse-engineering the
  /// snapshot time point.
  [[nodiscard]] std::optional<double> remaining() const {
    if (!deadline_) return std::nullopt;
    const auto left = std::chrono::duration<double>(*deadline_ - Clock::now());
    return left.count() > 0.0 ? left.count() : 0.0;
  }

  /// True iff the budget was interrupted externally, or a wall-clock
  /// deadline exists and has passed. Folding the interrupt into the
  /// time check turns every existing wall-clock poll into a
  /// cancellation point. Trips record their AbortReason into the shared
  /// sink (interrupts record nothing here: the canceller that raised
  /// the flag already recorded the authoritative cause).
  [[nodiscard]] bool timeExpired() const {
    if (interrupted()) return true;
    if (deadline_ && Clock::now() >= *deadline_) {
      noteAbort(AbortReason::kDeadline);
      return true;
    }
    return false;
  }

  /// True iff the cumulative conflict count exceeds the limit.
  [[nodiscard]] bool conflictsExhausted(std::int64_t conflicts) const {
    if (max_conflicts_ && conflicts >= *max_conflicts_) {
      noteAbort(AbortReason::kConflicts);
      return true;
    }
    return false;
  }

  /// True iff a node cap is set and the cumulative branch-and-bound
  /// node count has reached it. Nodes are a work budget like
  /// conflicts, so the abort is recorded as AbortReason::kConflicts,
  /// the work-budget reason.
  [[nodiscard]] bool nodesExhausted(std::int64_t nodes) const {
    if (max_nodes_ && nodes >= *max_nodes_) {
      noteAbort(AbortReason::kConflicts);
      return true;
    }
    return false;
  }

  /// True iff a memory cap is set and `bytes` of cooperative accounting
  /// exceeds it.
  [[nodiscard]] bool memoryExhausted(std::int64_t bytes) const {
    if (max_memory_ && bytes >= *max_memory_) {
      noteAbort(AbortReason::kMemory);
      return true;
    }
    return false;
  }

  /// True iff a memory cap is set at all (lets the solver skip the
  /// byte accounting entirely on uncapped runs).
  [[nodiscard]] bool hasMemoryCap() const { return max_memory_.has_value(); }

  /// True iff no limit of any kind is set (an interrupt flag counts as
  /// a limit: the budget can be exhausted externally).
  [[nodiscard]] bool isUnlimited() const {
    return !deadline_ && !max_conflicts_ && !max_nodes_ && !max_memory_ &&
           interrupt_ == nullptr;
  }

 private:
  std::optional<Clock::time_point> deadline_;
  std::optional<std::int64_t> max_conflicts_;
  std::optional<std::int64_t> max_nodes_;
  std::optional<std::int64_t> max_memory_;
  const std::atomic<bool>* interrupt_ = nullptr;
  std::atomic<int>* abort_sink_ = nullptr;
};

}  // namespace msu
