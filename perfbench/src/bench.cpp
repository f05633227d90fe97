#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

bool Verifier::check(const std::string& instanceKey, const std::string& engine,
                     const msu::WcnfFormula& original,
                     const msu::MaxSatResult& r, msu::Weight costOffset) {
  const std::string what = engine + " on " + instanceKey;
  const std::size_t before = errors_.size();
  if (r.lowerBound > r.upperBound) {
    fail(what + ": lower bound " + std::to_string(r.lowerBound) +
         " > upper bound " + std::to_string(r.upperBound));
  }
  Seen seen{engine, false, r.lowerBound + costOffset,
            r.upperBound + costOffset};
  switch (r.status) {
    case msu::MaxSatStatus::Optimum: {
      const msu::Weight claimed = r.cost + costOffset;
      seen.optimum = true;
      seen.lower = seen.upper = claimed;
      if (r.model.size() < static_cast<std::size_t>(original.numVars())) {
        fail(what + ": model covers " + std::to_string(r.model.size()) +
             " of " + std::to_string(original.numVars()) + " variables");
        break;
      }
      const std::optional<msu::Weight> actual = original.cost(r.model);
      if (!actual) {
        fail(what + ": model violates a hard clause");
      } else if (*actual != claimed) {
        fail(what + ": model costs " + std::to_string(*actual) +
             ", claimed " + std::to_string(claimed));
      }
      break;
    }
    case msu::MaxSatStatus::UnsatisfiableHard:
      fail(what + ": hard clauses reported unsatisfiable");
      break;
    case msu::MaxSatStatus::Unknown:
      break;
  }
  seen_[instanceKey].push_back(seen);
  return errors_.size() == before;
}

bool Verifier::expectCost(const std::string& what, msu::Weight got,
                          msu::Weight want) {
  if (got == want) return true;
  fail(what + ": cost " + std::to_string(got) + ", expected " +
       std::to_string(want));
  return false;
}

void Verifier::fail(const std::string& what) { errors_.push_back(what); }

void Verifier::finish() {
  for (const auto& [key, answers] : seen_) {
    const Seen* proven = nullptr;
    for (const Seen& s : answers) {
      if (!s.optimum) continue;
      if (proven == nullptr) {
        proven = &s;
      } else if (s.lower != proven->lower) {
        fail(key + ": " + s.engine + " optimum " + std::to_string(s.lower) +
             " disagrees with " + proven->engine + " optimum " +
             std::to_string(proven->lower));
      }
    }
    if (proven == nullptr) continue;
    for (const Seen& s : answers) {
      if (s.optimum) continue;
      if (s.lower > proven->lower || s.upper < proven->lower) {
        fail(key + ": " + s.engine + " bounds [" + std::to_string(s.lower) +
             ", " + std::to_string(s.upper) + "] exclude the optimum " +
             std::to_string(proven->lower));
      }
    }
  }
  seen_.clear();
}

namespace {

// Reads the integer after `"key":` in `line`; false when absent.
bool readField(const std::string& line, const char* key, std::int64_t& out) {
  const std::string pat = std::string("\"") + key + "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return false;
  out = std::strtoll(line.c_str() + at + pat.size(), nullptr, 10);
  return true;
}

}  // namespace

std::vector<SpanEvent> parseChromeTrace(const std::string& json) {
  // The exporter writes one event per line.
  std::vector<SpanEvent> out;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    const std::size_t n = line.find("{\"name\":\"");
    if (n == std::string::npos) continue;
    const std::size_t start = n + 9;
    const std::size_t end = line.find('"', start);
    if (end == std::string::npos) continue;
    SpanEvent e;
    e.name = line.substr(start, end - start);
    if (!readField(line, "ts", e.ts_us) || !readField(line, "dur", e.dur_us) ||
        !readField(line, "tid", e.tid)) {
      continue;
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::map<std::string, double> selfSeconds(std::vector<SpanEvent> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;  // parent before child
            });
  std::map<std::string, double> self;
  struct Open {
    const SpanEvent* span;
    std::int64_t covered;
  };
  std::vector<Open> stack;
  auto close = [&](const Open& o) {
    self[o.span->name] +=
        static_cast<double>(o.span->dur_us - o.covered) * 1e-6;
  };
  std::int64_t tid = -1;
  for (const SpanEvent& s : spans) {
    if (s.tid != tid) {
      for (const Open& o : stack) close(o);
      stack.clear();
      tid = s.tid;
    }
    const std::int64_t end = s.ts_us + s.dur_us;
    // Pop every open span that ended before `s` starts. Two spans that
    // start together nest (the sort put the longer one first).
    while (!stack.empty() &&
           stack.back().span->ts_us + stack.back().span->dur_us <= s.ts_us &&
           stack.back().span->ts_us != s.ts_us) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) {
      const std::int64_t parentEnd =
          stack.back().span->ts_us + stack.back().span->dur_us;
      stack.back().covered += std::min(end, parentEnd) - s.ts_us;
    }
    stack.push_back(Open{&s, 0});
  }
  for (const Open& o : stack) close(o);
  return self;
}

}  // namespace perfbench
