/// \file main.cpp
/// \brief Command line of the repository benchmark.
///
/// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
///                  [--data-dir DIR]
///
/// Prints a human-readable report, then, as the last line of standard
/// output, one JSON object:
///   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
/// with the end-to-end metrics (--trace 0) or the per-layer metrics
/// (--trace 1). Exit code 0 when every answer verified, 1 when one did
/// not (the JSON line still says so), 2 on a usage error (no JSON).

#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--data-dir DIR]\nworkloads:";
  for (const std::string& w : perfbench::workloadNames()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

std::string jsonNumber(double v) {
  std::ostringstream s;
  s << std::setprecision(12) << v;
  return s.str();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (a == "--workload" && hasValue) {
      cfg.workload = argv[++i];
      haveWorkload = true;
    } else if (a == "--seed" && hasValue) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && hasValue) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && hasValue) {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--data-dir" && hasValue) {
      cfg.dataDir = argv[++i];
    } else {
      return usage(("unknown argument '" + a + "'").c_str());
    }
  }
  if (!haveWorkload) return usage("--workload is required");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");
  bool known = false;
  for (const std::string& w : perfbench::workloadNames()) known |= w == cfg.workload;
  if (!known) return usage(("unknown workload '" + cfg.workload + "'").c_str());

  const perfbench::RunReport rep = perfbench::runWorkload(cfg);
  const perfbench::MetricMap& metrics = cfg.trace ? rep.perLayer : rep.endToEnd;

  std::cout << "workload " << cfg.workload << ", seed " << cfg.seed << ", "
            << cfg.seconds << " s, trace " << (cfg.trace ? 1 : 0) << "\n";
  for (const std::string& n : rep.notes) std::cout << "  " << n << "\n";
  // Both tables, for reading; the JSON line carries the selected one.
  // Without --trace, the hook-based and trace.* rows read 0.
  for (const auto* table : {&rep.endToEnd, &rep.perLayer}) {
    std::cout << (table == &rep.endToEnd ? "end-to-end\n" : "per-layer\n");
    for (const auto& [name, m] : *table) {
      std::cout << "  " << std::left << std::setw(28) << name << " "
                << jsonNumber(m.value) << " " << m.unit << "\n";
    }
  }
  for (const std::string& e : rep.errors) std::cout << "ERROR " << e << "\n";

  const bool correct = rep.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << rep.attempted
            << ", \"failed\": " << rep.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << jsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
