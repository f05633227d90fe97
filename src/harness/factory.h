/// \file factory.h
/// \brief Name-based construction of every MaxSAT engine in the library,
///        used by the CLI example and the experiment harness. Names map
///        to the columns of the paper's tables: "maxsatz" (our B&B),
///        "pbo" (the PBO formulation), "msu4-v1", "msu4-v2".

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/maxsat.h"

namespace msu {

/// One name per engine accepted by makeSolver(), each building a
/// distinct engine. makeSolver() also accepts "portfolioN" and "cubesN",
/// which only pick a thread count for the listed "portfolio"/"cubes".
[[nodiscard]] std::vector<std::string> solverNames();

/// Creates an engine by name; nullptr for unknown names.
///
/// Names: "msu4-v1", "msu4-v2", "msu4-seq", "msu4-tot", "msu4-cnet",
/// "msu3", "msu1", "wmsu1", "oll", "bmo", "wlinear", "wlinear-adder",
/// "binary", "pbo", "pbo-adder", "maxsatz", plus the parallel portfolio
/// as "portfolio" (4 threads) or "portfolioN" (N racing workers with
/// clause sharing) and cube-and-conquer as "cubes" or "cubesN".
/// "wlinear", "wlinear-adder", "pbo" and "pbo-adder" are the one
/// SAT–UNSAT linear search (core/wlinear.h): the default bound encoding
/// with BDD or adder PB bounds, then the all-PB `pbo` one.
/// `options.budget` applies to every engine; the cardinality-encoding
/// option is overridden by names that pin one (msu4-v1/v2/seq/tot/cnet).
[[nodiscard]] std::unique_ptr<MaxSatSolver> makeSolver(
    const std::string& name, const MaxSatOptions& options = {});

}  // namespace msu
