#include "harness/factory.h"

#include <cstdlib>

#include "bnb/bnb_solver.h"
#include "core/binary_search.h"
#include "core/bmo.h"
#include "core/msu1.h"
#include "core/msu3.h"
#include "core/msu4.h"
#include "core/oll.h"
#include "core/wlinear.h"
#include "core/wmsu1.h"
#include "par/cube.h"
#include "par/portfolio.h"

namespace msu {

std::vector<std::string> solverNames() {
  return {"msu4-v1", "msu4-v2",       "msu4-seq", "msu4-tot", "msu4-cnet",
          "msu3",    "msu1",          "wmsu1",    "oll",      "bmo",
          "wlinear", "wlinear-adder", "binary",   "pbo",      "pbo-adder",
          "maxsatz", "portfolio",     "cubes"};
}

std::unique_ptr<MaxSatSolver> makeSolver(const std::string& name,
                                         const MaxSatOptions& options) {
  MaxSatOptions o = options;
  if (name == "msu4-v1") {
    o.encoding = CardEncoding::Bdd;
    return std::make_unique<Msu4Solver>(o);
  }
  if (name == "msu4-v2") {
    o.encoding = CardEncoding::Sorter;
    return std::make_unique<Msu4Solver>(o);
  }
  if (name == "msu4-seq") {
    o.encoding = CardEncoding::Sequential;
    return std::make_unique<Msu4Solver>(o);
  }
  if (name == "msu4-tot") {
    o.encoding = CardEncoding::Totalizer;
    return std::make_unique<Msu4Solver>(o);
  }
  if (name == "msu4-cnet") {
    o.encoding = CardEncoding::CardNet;
    return std::make_unique<Msu4Solver>(o);
  }
  if (name == "msu3") {
    o.encoding = CardEncoding::Totalizer;
    return std::make_unique<Msu3Solver>(o);
  }
  if (name == "msu1") {
    return std::make_unique<Msu1Solver>(o);
  }
  if (name == "wmsu1") {
    return std::make_unique<Wmsu1Solver>(o);
  }
  if (name == "oll") {
    return std::make_unique<OllSolver>(o);
  }
  if (name == "bmo") {
    return std::make_unique<BmoSolver>(o);
  }
  if (name == "wlinear") {
    return std::make_unique<WeightedLinearSolver>(o);
  }
  if (name == "wlinear-adder") {
    return std::make_unique<WeightedLinearSolver>(o, PbEncoding::Adder);
  }
  if (name == "binary") {
    return std::make_unique<BinarySearchSolver>(o);
  }
  if (name == "pbo" || name == "pbo-adder") {
    const PbEncoding pe = name == "pbo" ? PbEncoding::Bdd : PbEncoding::Adder;
    return std::make_unique<WeightedLinearSolver>(o, pe, BoundEncoding::Pb);
  }
  if (name == "maxsatz") {
    BnbOptions bo;
    bo.budget = options.budget;
    bo.external_mem_bytes = options.sat.external_mem_bytes;
    return std::make_unique<BnbSolver>(bo);
  }
  if (name.rfind("portfolio", 0) == 0) {
    const std::string suffix = name.substr(9);
    if (!suffix.empty() &&
        (suffix.find_first_not_of("0123456789") != std::string::npos ||
         suffix.size() > 3)) {
      return nullptr;  // strict match: "portfolio" or "portfolioN"
    }
    PortfolioOptions po;
    po.base = options;
    po.threads = suffix.empty() ? 4 : std::atoi(suffix.c_str());
    if (po.threads < 1) return nullptr;
    return std::make_unique<PortfolioSolver>(po);
  }
  if (name.rfind("cubes", 0) == 0) {
    const std::string suffix = name.substr(5);
    if (!suffix.empty() &&
        (suffix.find_first_not_of("0123456789") != std::string::npos ||
         suffix.size() > 3)) {
      return nullptr;  // strict match: "cubes" or "cubesN"
    }
    CubeOptions co;
    co.base = options;
    co.threads = suffix.empty() ? 4 : std::atoi(suffix.c_str());
    if (co.threads < 1) return nullptr;
    return std::make_unique<CubeSolver>(co);
  }
  return nullptr;
}

}  // namespace msu
