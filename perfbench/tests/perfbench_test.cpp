/// \file perfbench_test.cpp
/// \brief The benchmark's own tests: the verifier counts corrupted
///        answers as errors, span attribution computes self times, and
///        every workload, at minimal size, prints exactly the metrics
///        BENCHMARK.json names, each with its declared unit.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "bench.h"
#include "harness/factory.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using msu::Lit;
using msu::MaxSatResult;
using msu::MaxSatStatus;
using msu::WcnfFormula;

// x1 hard-true; soft (-x1) weight 3, soft (x2) weight 1. Optimum 3.
WcnfFormula tiny() {
  WcnfFormula f(2);
  f.addHard({Lit::fromDimacs(1)});
  f.addSoft({Lit::fromDimacs(-1)}, 3);
  f.addSoft({Lit::fromDimacs(2)}, 1);
  return f;
}

MaxSatResult solved(const WcnfFormula& f) {
  MaxSatResult r = msu::makeSolver("msu4-v2")->solve(f);
  EXPECT_EQ(r.status, MaxSatStatus::Optimum);
  EXPECT_EQ(r.cost, 3);
  return r;
}

TEST(Verifier, AcceptsACorrectOptimum) {
  const WcnfFormula f = tiny();
  Verifier v;
  EXPECT_TRUE(v.check("tiny", "msu4-v2", f, solved(f)));
  v.finish();
  EXPECT_EQ(v.errors(), 0);
}

TEST(Verifier, CountsACorruptedModel) {
  const WcnfFormula f = tiny();
  MaxSatResult r = solved(f);
  r.model[0] = msu::lbool::False;  // violates the hard unit
  Verifier v;
  EXPECT_FALSE(v.check("tiny", "msu4-v2", f, r));
  EXPECT_EQ(v.errors(), 1);
}

TEST(Verifier, CountsAWrongClaimedCost) {
  const WcnfFormula f = tiny();
  MaxSatResult r = solved(f);
  r.cost = 2;
  r.lowerBound = r.upperBound = 2;
  Verifier v;
  EXPECT_FALSE(v.check("tiny", "msu4-v2", f, r));
  EXPECT_EQ(v.errors(), 1);
}

TEST(Verifier, CountsAShortModelAndUnsoundBounds) {
  const WcnfFormula f = tiny();
  MaxSatResult shortModel = solved(f);
  shortModel.model.resize(1);
  MaxSatResult crossed;
  crossed.status = MaxSatStatus::Unknown;
  crossed.lowerBound = 4;
  crossed.upperBound = 3;
  MaxSatResult unsat;
  unsat.status = MaxSatStatus::UnsatisfiableHard;
  Verifier v;
  EXPECT_FALSE(v.check("a", "e", f, shortModel));
  EXPECT_FALSE(v.check("b", "e", f, crossed));
  EXPECT_FALSE(v.check("c", "e", f, unsat));
  EXPECT_EQ(v.errors(), 3);
}

TEST(Verifier, CountsEnginesThatDisagreeAndBoundsThatExcludeTheOptimum) {
  const WcnfFormula f = tiny();
  const MaxSatResult good = solved(f);
  // Each answer below passes check() on its own formula; filing the
  // optimum of a different formula (cost 0) under the same key is the
  // disagreement only finish() can see.
  WcnfFormula other(2);
  other.addSoft({Lit::fromDimacs(1)}, 1);
  MaxSatResult otherOpt = msu::makeSolver("msu4-v2")->solve(other);
  MaxSatResult aborted;
  aborted.status = MaxSatStatus::Unknown;
  aborted.lowerBound = 4;
  aborted.upperBound = 9;
  Verifier v;
  EXPECT_TRUE(v.check("key", "msu4-v2", f, good));
  EXPECT_TRUE(v.check("key", "other", other, otherOpt));
  EXPECT_TRUE(v.check("key", "slow", f, aborted));
  EXPECT_EQ(v.errors(), 0);
  v.finish();
  EXPECT_EQ(v.errors(), 2);  // 0 vs 3, and [4, 9] excludes 3
}

TEST(Verifier, CountsAMissedPlantedOptimum) {
  Verifier v;
  EXPECT_TRUE(v.expectCost("file", 17, 17));
  EXPECT_FALSE(v.expectCost("file", 16, 17));
  EXPECT_EQ(v.errors(), 1);
}

TEST(Attribution, SelfTimeSubtractsDirectChildrenPerThread) {
  const std::vector<SpanEvent> spans = {
      {"bench-op", 0, 100, 1},  {"solve", 10, 30, 1},
      {"restart", 15, 10, 1},   {"trim-core", 50, 40, 1},
      {"solve", 55, 20, 1},     {"bench-op", 0, 50, 2},
      {"solve", 0, 49, 2},
  };
  const std::map<std::string, double> self = selfSeconds(spans);
  EXPECT_NEAR(self.at("bench-op"), (30 + 1) * 1e-6, 1e-12);
  EXPECT_NEAR(self.at("solve"), (20 + 20 + 49) * 1e-6, 1e-12);
  EXPECT_NEAR(self.at("restart"), 10e-6, 1e-12);
  EXPECT_NEAR(self.at("trim-core"), 20e-6, 1e-12);
}

TEST(Attribution, ParsesTheTracerExport) {
  msu::obs::Tracer tracer;
  tracer.setEnabled(true);
  tracer.span(msu::obs::TraceCat::kJob, "bench-op", 5, 25, "op", 7);
  tracer.instant(msu::obs::TraceCat::kJob, "job-submit");
  tracer.span(msu::obs::TraceCat::kOracle, "solve", 10, 20);
  std::ostringstream out;
  tracer.exportChromeTrace(out);
  const std::vector<SpanEvent> spans = parseChromeTrace(out.str());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "bench-op");
  EXPECT_EQ(spans[0].ts_us, 5);
  EXPECT_EQ(spans[0].dur_us, 20);
  EXPECT_EQ(spans[1].name, "solve");
  EXPECT_EQ(spans[1].tid, spans[0].tid);
}

TEST(EndToEnd, AShedOperationMissesItsLimit) {
  Op fast;
  fast.engine = "msu4-v2";
  fast.limit_s = 1.0;
  fast.wall_s = 0.5;
  fast.solved = true;
  Op shed;
  shed.engine = "msu4-v2";
  shed.limit_s = 1.0;
  shed.shed = true;
  RunReport rep;
  endToEndMetrics({fast, shed}, 1.0, rep);
  // (0.5 + 2 x 1.0) / 2: the shed job stays in the denominator.
  EXPECT_DOUBLE_EQ(rep.endToEnd.at("par2_s").value, 1.25);
  EXPECT_DOUBLE_EQ(rep.perLayer.at("aborted_share").value, 0.5);
  EXPECT_DOUBLE_EQ(rep.perLayer.at("overshoot_ms.max").value, 0.0);
  EXPECT_DOUBLE_EQ(rep.perLayer.at("solve_ms.p50").value, 500.0);
}

TEST(Attribution, ATracerThatDroppedEventsFailsTheRun) {
  msu::obs::Tracer tracer(msu::obs::Tracer::Options{16});  // the minimum
  tracer.setEnabled(true);
  for (int i = 0; i < 20; ++i) {
    tracer.span(msu::obs::TraceCat::kJob, "bench-op", 10 * i, 10 * i + 5);
  }
  ASSERT_GT(tracer.dropped(), 0);
  const std::string dir = std::string(PERFBENCH_TEST_DATA) + "/dropped";
  std::filesystem::create_directories(dir);
  Verifier v;
  RunReport rep;
  traceMetrics(tracer, 1.0, 1.0, dir + "/trace.json", v, rep);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(v.errors(), 1);
}

/// (name, unit) pairs of one metric list of BENCHMARK.json.
std::map<std::string, std::string> declared(const std::string& list) {
  std::ifstream in(PERFBENCH_SPEC);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::size_t from = json.find("\"" + list + "\"");
  EXPECT_NE(from, std::string::npos) << list;
  const std::size_t to = json.find(']', from);
  const std::string section = json.substr(from, to - from);
  std::map<std::string, std::string> out;
  const std::regex entry(
      R"re("name"\s*:\s*"([^"]+)"\s*,\s*"unit"\s*:\s*"([^"]+)")re");
  for (std::sregex_iterator it(section.begin(), section.end(), entry), end;
       it != end; ++it) {
    out[(*it)[1]] = (*it)[2];
  }
  EXPECT_FALSE(out.empty()) << list;
  return out;
}

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryWorkload, PrintsEveryDeclaredMetricWithItsUnit) {
  for (const bool trace : {false, true}) {
    RunConfig cfg;
    cfg.workload = GetParam();
    cfg.seed = 7;
    cfg.seconds = 1.0;
    cfg.trace = trace;
    cfg.tiny = true;
    cfg.dataDir = std::string(PERFBENCH_TEST_DATA) + "/" + GetParam();
    std::filesystem::create_directories(cfg.dataDir);
    const RunReport rep = runWorkload(cfg);
    std::filesystem::remove_all(cfg.dataDir);
    EXPECT_EQ(rep.failed, 0) << (rep.errors.empty() ? "" : rep.errors[0]);
    EXPECT_GE(rep.attempted, 1);
    const MetricMap& got = trace ? rep.perLayer : rep.endToEnd;
    const std::map<std::string, std::string> want =
        declared(trace ? "per_layer" : "end_to_end");
    EXPECT_EQ(got.size(), want.size());
    for (const auto& [name, unit] : want) {
      auto it = got.find(name);
      ASSERT_NE(it, got.end()) << GetParam() << " misses " << name;
      EXPECT_EQ(it->second.unit, unit) << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Perfbench, EveryWorkload,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           std::erase(n, '-');
                           return n;
                         });

}  // namespace
}  // namespace perfbench
