/// \file probing.cpp
/// \brief Failed-literal probing with hyper-binary resolution
///        (inprocessing round two).
///
/// A probe assumes one literal p at a throwaway decision level and
/// propagates. A conflict proves the unit ¬p (a failed literal), which
/// enters at the root. Otherwise every literal u the probe implied
/// through a *long* clause yields the hyper-binary resolvent (¬p ∨ u)
/// — implied by the database, since unit propagation from p derives u
/// — which is attached as a learnt binary; implications that already
/// travel through binary chains are in the implication graph and are
/// skipped, as are resolvents the graph already holds.
///
/// Candidates are roots of the binary implication graph: literals with
/// binary out-edges but no in-edges (probing a root covers all its
/// binary descendants, the classic failed-literal heuristic). The
/// sweep is propagation-budgeted and resumes round-robin across passes
/// from inproc_probe_cursor_.
///
/// Scope-awareness: activator and scope-owned variables are never
/// probed, and no hyper-binary resolvent is attached over them (a
/// probe can propagate ¬act when a scope clause loses its other
/// literals, and such implications must not escape into untagged
/// binaries that retirement's sweeps would miss). Both derivations are
/// ordinary RUP lemmas, so — unlike elimination — probing stays
/// enabled under an attached ProofTracer.

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sat/solver.h"

namespace msu {

bool Solver::inprocProbe() {
  if (opts_.inprocess_probe_props <= 0) return ok_;  // stage disabled
  if (!ok_) return false;
  assert(decisionLevel() == 0);

  const std::size_t nLits = static_cast<std::size_t>(2 * numVars());
  if (nLits == 0) return ok_;
  if (inproc_probe_cursor_ >= nLits) inproc_probe_cursor_ = 0;

  const std::int64_t startProps = stats_.propagations;
  std::vector<Lit> hbr;
  std::size_t step = 0;
  inprocessing_ = true;  // probe unwinds must not disturb saved phases
  for (; step < nLits; ++step) {
    if (stats_.propagations - startProps >= opts_.inprocess_probe_props) break;
    if (!ok_ || budget_.timeExpired()) break;
    const Lit p = Lit::fromIndex(
        static_cast<std::int32_t>((inproc_probe_cursor_ + step) % nLits));
    const Var v = p.var();
    if (assigns_[v] != lbool::Undef) continue;
    if (is_activator_[v] != 0 || var_owner_[v] != kUndefVar) continue;
    if (eliminated_[v] != 0) continue;
    // Roots of the binary implication graph only: p has out-edges
    // (binList(p): implications of p) but no in-edges (binList(~p)
    // holds the binaries containing p, whose contrapositives point at
    // p).
    if (watches_.binList(p).empty() || !watches_.binList(~p).empty()) {
      continue;
    }

    ++stats_.inproc_probe_probes;
    const int trailStart = trailSize();
    newDecisionLevel();
    uncheckedEnqueue(p);
    if (!propagate().isNone()) {
      cancelUntil(0);
      ++stats_.inproc_probe_failed;
      const std::array<Lit, 1> unit{~p};
      traceLemma(unit);
      uncheckedEnqueue(~p);
      ok_ = propagate().isNone();
      if (!ok_) {
        traceLemma({});  // fresh level-0 conflict: database refuted
        break;
      }
      continue;
    }

    // Hyper-binary resolution: collect first, attach after the unwind
    // (attachBinary appends to the very lists the dedup scan reads).
    hbr.clear();
    for (int i = trailStart + 1; i < trailSize(); ++i) {
      const Lit u = trail_[i];
      const Reason r = reason(u.var());
      if (r.isNone() || !r.isClause()) continue;  // binary chain: in the graph
      if (is_activator_[u.var()] != 0 || var_owner_[u.var()] != kUndefVar) {
        continue;
      }
      bool known = false;
      for (const BinWatch bw : watches_.binList(p)) {
        if (bw.implied() == u) {
          known = true;
          break;
        }
      }
      if (!known) hbr.push_back(u);
    }
    cancelUntil(0);
    for (const Lit u : hbr) {
      const std::array<Lit, 2> lemma{~p, u};
      traceLemma(lemma);
      attachBinary(~p, u, /*learnt=*/true);
      ++stats_.inproc_probe_hbr;
    }
  }
  inprocessing_ = false;
  inproc_probe_cursor_ = (inproc_probe_cursor_ + step) % nLits;
  stats_.inproc_props += stats_.propagations - startProps;
  return ok_;
}

}  // namespace msu
