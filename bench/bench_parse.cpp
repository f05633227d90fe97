/// \file bench_parse.cpp
/// \brief Huge-instance ingest A/B: every case runs twice — `off` = the
///        legacy iostream tokenizer parsers (readDimacsCnfLegacy /
///        readDimacsWcnfLegacy / readOpbLegacy) with per-clause
///        incremental loading, `on` = the zero-copy fastparse core with
///        the solver's bulk-load path — over byte-identical synthetic
///        documents (gen/bigfile.h). check_regression.py --mode ab
///        gates the committed bench/BENCH_parse.json: the off/on
///        speedup is the tentpole claim (the committed 100 MB record
///        must show >= 5x; see bench/README.md "Parse pipeline").
///
/// Usage: bench_parse [--target-mb M] [--reps N] [--json [path]]
///
/// Cases:
///  * parse-cnf / parse-wcnf / parse-opb — pure parser wall over an
///    in-memory document (the pipe/borrow path; no disk in the loop).
///  * file-cnf — document on disk: legacy ifstream tokenizer vs the
///    mmap'd loadDimacsCnf.
///  * pipeline-cnf — text to propagated solver: legacy parse into a
///    CnfFormula + per-clause addClause vs fastLoadDimacsCnfInto
///    (lexer straight into the bulk-load arena, no intermediate
///    formula). The end-to-end ingest latency a job pays before its
///    first oracle call.
///
/// Both legs must agree on the parsed formula (clause/var counts and a
/// literal checksum) — the driver aborts otherwise. Records carry no
/// sat_calls counter on purpose: the ab gate must compare raw wall.
///
/// One unpaired record follows the A/B cases (the ab gate skips it):
///  * preprocess-wcnf — the parse-wcnf document, fast-parsed once, then
///    through preprocessWcnf; wall, MB/s and a checksum of the result.
///    At --target-mb >= 16 the driver exits 1 when it takes more than
///    kMaxPreprocessToParse times parse-wcnf/on's wall (bench/README.md
///    "Decision record: huge-instance ingest"); smaller runs only print
///    the ratio.
///
/// Formula-size gate: at --target-mb >= 16 bench_parse also exits 1 when
/// parse-wcnf/on or preprocess-wcnf records more than
/// kMaxFormulaBytesPerInputByte formula bytes per input byte (bench/
/// README.md "Decision record: ingest memory").

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "cnf/dimacs.h"
#include "cnf/fastparse.h"
#include "core/preprocess.h"
#include "gen/bigfile.h"
#include "obs/metrics.h"
#include "pbo/opb.h"
#include "sat/solver.h"

namespace {

using namespace msu;

/// preprocess-wcnf may take at most this multiple of parse-wcnf/on's
/// wall on the same document (enforced at --target-mb >= 16).
constexpr double kMaxPreprocessToParse = 3.0;
/// parse-wcnf/on and preprocess-wcnf may hold at most this many formula
/// bytes (the mem_bytes counter, WcnfFormula::memBytesEstimate) per
/// input byte (enforced at --target-mb >= 16).
constexpr double kMaxFormulaBytesPerInputByte = 1.5;
constexpr double kGateMinMb = 16.0;

struct RunOut {
  double secs = 0.0;
  std::int64_t clauses = 0;
  std::int64_t vars = 0;
  std::int64_t memBytes = 0;
  std::int64_t checksum = 0;
};

struct Case {
  std::string name;
  std::int64_t inputBytes = 0;
  std::function<RunOut()> off;
  std::function<RunOut()> on;
};

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::int64_t checksumCnf(const CnfFormula& f) {
  std::int64_t h = f.numVars();
  for (const Clause& c : f.clauses()) {
    for (const Lit p : c) h = h * 1000003 + p.index();
  }
  return h;
}

std::int64_t checksumWcnf(const WcnfFormula& f) {
  std::int64_t h = f.numVars();
  for (const std::span<const Lit> c : f.hard()) {
    for (const Lit p : c) h = h * 1000003 + p.index();
  }
  for (const SoftClause& s : f.soft()) {
    h = h * 31 + s.weight;
    for (const Lit p : s.lits) h = h * 1000003 + p.index();
  }
  return h;
}

std::int64_t checksumPbo(const PboProblem& f) {
  std::int64_t h = f.numVars;
  for (const PbTerm& t : f.objective) h = h * 31 + t.coeff + t.lit.index();
  for (const PbConstraint& c : f.constraints) {
    h = h * 31 + c.bound;
    for (const PbTerm& t : c.terms) h = h * 1000003 + t.coeff + t.lit.index();
  }
  return h;
}

RunOut outOfCnf(double secs, const CnfFormula& f) {
  return {secs, f.numClauses(), f.numVars(), f.memBytesEstimate(),
          checksumCnf(f)};
}

/// Solver-derived summary, comparable across build paths.
RunOut outOfSolver(double secs, const Solver& s) {
  RunOut out;
  out.secs = secs;
  out.clauses = s.numClauses();
  out.vars = s.numVars();
  out.memBytes = s.memBytesEstimate();
  out.checksum =
      out.clauses * 1000003 + out.vars * 31 + (s.okay() ? 1 : 0);
  return out;
}

/// preprocessWcnf over the fast-parsed document, best of `reps`. The
/// checksum covers the simplified formula and every statistic.
RunOut preprocessLeg(const std::string& wcnfText, int reps) {
  const WcnfFormula f = parseDimacsWcnf(wcnfText);
  RunOut best;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const PreprocessResult pre = preprocessWcnf(f);
    const double secs = since(t0);
    if (r > 0 && secs >= best.secs) continue;
    best.secs = secs;
    best.vars = f.numVars();
    best.clauses = pre.simplified
                       ? pre.simplified->numHard() + pre.simplified->numSoft()
                       : 0;
    best.memBytes = pre.simplified ? pre.simplified->memBytesEstimate() : 0;
    std::int64_t h = pre.simplified ? checksumWcnf(*pre.simplified) : 0;
    for (const std::int64_t x :
         {pre.forcedCost, std::int64_t{pre.fixedVars},
          std::int64_t{pre.removedHard}, std::int64_t{pre.removedSoft},
          std::int64_t{pre.mergedSoft}}) {
      h = h * 31 + x;
    }
    best.checksum = h;
  }
  return best;
}

std::vector<Case> buildCases(const BigFileParams& p,
                             std::shared_ptr<const std::string> wcnfText,
                             const std::string& tmpDir) {
  const auto cnfText = std::make_shared<std::string>(makeBigCnfText(p));
  const auto opbText = std::make_shared<std::string>(makeBigOpbText(p));

  const std::string cnfPath = tmpDir + "/bench_parse_big.cnf";
  {
    std::ofstream f(cnfPath, std::ios::binary);
    f.write(cnfText->data(), static_cast<std::streamsize>(cnfText->size()));
  }

  std::vector<Case> cases;
  cases.push_back(
      {"parse-cnf", static_cast<std::int64_t>(cnfText->size()),
       [cnfText] {
         const auto t0 = std::chrono::steady_clock::now();
         std::istringstream in(*cnfText);
         const CnfFormula f = readDimacsCnfLegacy(in);
         return outOfCnf(since(t0), f);
       },
       [cnfText] {
         const auto t0 = std::chrono::steady_clock::now();
         const CnfFormula f = parseDimacsCnf(*cnfText);
         return outOfCnf(since(t0), f);
       }});
  cases.push_back(
      {"parse-wcnf", static_cast<std::int64_t>(wcnfText->size()),
       [wcnfText] {
         const auto t0 = std::chrono::steady_clock::now();
         std::istringstream in(*wcnfText);
         const WcnfFormula f = readDimacsWcnfLegacy(in);
         return RunOut{since(t0), f.numHard() + f.numSoft(), f.numVars(),
                       f.memBytesEstimate(), checksumWcnf(f)};
       },
       [wcnfText] {
         const auto t0 = std::chrono::steady_clock::now();
         const WcnfFormula f = parseDimacsWcnf(*wcnfText);
         return RunOut{since(t0), f.numHard() + f.numSoft(), f.numVars(),
                       f.memBytesEstimate(), checksumWcnf(f)};
       }});
  cases.push_back(
      {"parse-opb", static_cast<std::int64_t>(opbText->size()),
       [opbText] {
         const auto t0 = std::chrono::steady_clock::now();
         std::istringstream in(*opbText);
         const PboProblem f = readOpbLegacy(in);
         return RunOut{since(t0),
                       static_cast<std::int64_t>(f.constraints.size()),
                       f.numVars, 0, checksumPbo(f)};
       },
       [opbText] {
         const auto t0 = std::chrono::steady_clock::now();
         const PboProblem f = parseOpb(*opbText);
         return RunOut{since(t0),
                       static_cast<std::int64_t>(f.constraints.size()),
                       f.numVars, 0, checksumPbo(f)};
       }});
  cases.push_back(
      {"file-cnf", static_cast<std::int64_t>(cnfText->size()),
       [cnfPath] {
         const auto t0 = std::chrono::steady_clock::now();
         std::ifstream in(cnfPath, std::ios::binary);
         const CnfFormula f = readDimacsCnfLegacy(in);
         return outOfCnf(since(t0), f);
       },
       [cnfPath] {
         const auto t0 = std::chrono::steady_clock::now();
         const CnfFormula f = loadDimacsCnf(cnfPath);  // mmap path
         return outOfCnf(since(t0), f);
       }});
  cases.push_back(
      {"pipeline-cnf", static_cast<std::int64_t>(cnfText->size()),
       [cnfText] {
         const auto t0 = std::chrono::steady_clock::now();
         std::istringstream in(*cnfText);
         const CnfFormula f = readDimacsCnfLegacy(in);
         Solver::Options so;
         so.bulk_load = false;
         Solver s(so);
         while (s.numVars() < f.numVars()) static_cast<void>(s.newVar());
         for (const Clause& c : f.clauses()) {
           if (!s.addClause(c)) break;
         }
         return outOfSolver(since(t0), s);
       },
       [cnfText] {
         const auto t0 = std::chrono::steady_clock::now();
         Solver s;
         static_cast<void>(fastLoadDimacsCnfInto(
             InputBuffer::borrow(cnfText->data(), cnfText->size()), s));
         return outOfSolver(since(t0), s);
       }});
  return cases;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  double targetMb = 16.0;
  bool json = false;
  std::string jsonPath = "BENCH_parse.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--target-mb" && i + 1 < argc) {
      targetMb = std::atof(argv[++i]);
    } else if (arg == "--json") {
      json = true;
      if (i + 1 < argc && std::string(argv[i + 1]).ends_with(".json")) {
        jsonPath = argv[++i];
      }
    } else {
      std::cerr << "usage: bench_parse [--target-mb M] [--reps N] "
                   "[--json [path]]\n";
      return 2;
    }
  }

  const std::string tmpDir = std::filesystem::temp_directory_path().string();
  BigFileParams params;
  params.target_bytes = static_cast<std::int64_t>(targetMb * 1048576.0);
  const auto wcnfText =
      std::make_shared<const std::string>(makeBigWcnfText(params));
  const std::vector<Case> cases = buildCases(params, wcnfText, tmpDir);
  std::vector<benchjson::BenchRecord> records;

  std::cout << std::left << std::setw(16) << "case" << std::right
            << std::setw(10) << "MB" << std::setw(11) << "off[ms]"
            << std::setw(11) << "on[ms]" << std::setw(10) << "speedup"
            << '\n';

  double logSum = 0.0;
  for (const Case& c : cases) {
    RunOut best[2];
    for (int mode = 0; mode < 2; ++mode) {
      for (int r = 0; r < reps; ++r) {
        const RunOut out = mode == 0 ? c.off() : c.on();
        if (r == 0 || out.secs < best[mode].secs) best[mode] = out;
      }
    }
    if (best[0].checksum != best[1].checksum ||
        best[0].clauses != best[1].clauses || best[0].vars != best[1].vars) {
      std::cerr << c.name << ": parser disagreement (checksum "
                << best[0].checksum << " vs " << best[1].checksum << ")\n";
      return 1;
    }
    const double speedup = best[0].secs / best[1].secs;
    logSum += std::log(speedup);

    for (int mode = 0; mode < 2; ++mode) {
      benchjson::BenchRecord rec;
      rec.name = c.name + (mode == 0 ? "/off" : "/on");
      rec.wallMs = best[mode].secs * 1e3;
      rec.reps = reps;
      rec.counters = {
          {"bytes", c.inputBytes},
          {"clauses", best[mode].clauses},
          {"vars", best[mode].vars},
          {"mem_bytes", best[mode].memBytes},
          {"peak_rss_bytes", obs::peakRssBytes()},
      };
      records.push_back(rec);
    }

    std::cout << std::left << std::setw(16) << c.name << std::right
              << std::setw(10) << std::fixed << std::setprecision(1)
              << static_cast<double>(c.inputBytes) / 1048576.0
              << std::setw(11) << std::setprecision(2) << best[0].secs * 1e3
              << std::setw(11) << best[1].secs * 1e3 << std::setw(9)
              << std::setprecision(2) << speedup << "x\n";
  }

  std::cout << "\ngeomean fastparse speedup: " << std::setprecision(2)
            << std::exp(logSum / static_cast<double>(cases.size())) << "x\n";

  const RunOut pre = preprocessLeg(*wcnfText, reps);
  const double wcnfMb = static_cast<double>(wcnfText->size()) / 1048576.0;
  const double mbPerSec = wcnfMb / pre.secs;
  benchjson::BenchRecord preRec;
  preRec.name = "preprocess-wcnf";
  preRec.wallMs = pre.secs * 1e3;
  preRec.reps = reps;
  preRec.counters = {
      {"bytes", static_cast<std::int64_t>(wcnfText->size())},
      {"clauses", pre.clauses},
      {"vars", pre.vars},
      {"mem_bytes", pre.memBytes},
      {"mb_per_s", std::llround(mbPerSec)},
      {"checksum", pre.checksum},
      {"peak_rss_bytes", obs::peakRssBytes()},
  };
  records.push_back(preRec);
  double parseWcnfMs = 0.0;
  bool formulaTooBig = false;
  for (const benchjson::BenchRecord& r : records) {
    if (r.name == "parse-wcnf/on") parseWcnfMs = r.wallMs;
    if (r.name != "parse-wcnf/on" && r.name != "preprocess-wcnf") continue;
    std::int64_t bytes = 0;
    std::int64_t mem = 0;
    for (const auto& [key, value] : r.counters) {
      if (key == "bytes") bytes = value;
      if (key == "mem_bytes") mem = value;
    }
    const double perByte =
        static_cast<double>(mem) /
        static_cast<double>(std::max<std::int64_t>(bytes, 1));
    formulaTooBig |= perByte > kMaxFormulaBytesPerInputByte;
    std::cout << r.name << ": " << std::setprecision(2) << perByte
              << " formula bytes per input byte (limit "
              << kMaxFormulaBytesPerInputByte
              << (targetMb >= kGateMinMb ? ")" : ", not enforced below 16 MB)")
              << '\n';
  }
  const double ratio = preRec.wallMs / parseWcnfMs;
  const bool gated = targetMb >= kGateMinMb;
  std::cout << "preprocess-wcnf: " << std::setprecision(2) << preRec.wallMs
            << " ms (" << std::setprecision(1) << mbPerSec << " MB/s), "
            << std::setprecision(2) << ratio << "x parse-wcnf/on (limit "
            << kMaxPreprocessToParse << "x"
            << (gated ? ")" : ", not enforced below 16 MB)") << '\n';

  std::remove((tmpDir + "/bench_parse_big.cnf").c_str());

  if (json) {
    if (!benchjson::writeJsonFile(jsonPath, "parse", records)) return 1;
    std::cout << "wrote " << jsonPath << '\n';
  }
  if (gated && ratio > kMaxPreprocessToParse) {
    std::cerr << "FAIL: preprocessWcnf took " << ratio
              << "x parse-wcnf/on's wall (limit " << kMaxPreprocessToParse
              << "x)\n";
    return 1;
  }
  if (gated && formulaTooBig) {
    std::cerr << "FAIL: a WCNF formula holds more than "
              << kMaxFormulaBytesPerInputByte << " bytes per input byte\n";
    return 1;
  }
  return 0;
}
