#include "cnf/dimacs.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "cnf/fastparse.h"

namespace msu {
namespace {

/// Legacy tokenizing cursor over a DIMACS stream: skips comments and
/// blank lines. Kept (with its documented leading-'c' quirk) only to
/// back the *Legacy readers; the live path is fastparse.h.
class Tokens {
 public:
  explicit Tokens(std::istream& in) : in_(in) {}

  /// Next whitespace-separated token, skipping comment lines; empty string
  /// at end of input.
  std::string next() {
    std::string tok;
    while (in_ >> tok) {
      if (tok == "c" || tok.starts_with("c#") ||
          (tok.size() > 1 && tok[0] == 'c' && !isTokenNumericOrP(tok))) {
        std::string rest;
        std::getline(in_, rest);
        continue;
      }
      return tok;
    }
    return {};
  }

 private:
  static bool isTokenNumericOrP(const std::string& t) {
    // "c..." comment words vs. tokens like "cnf" inside the header are
    // disambiguated by the caller; here we only treat a leading 'c' token
    // as a comment when it cannot be the "cnf"/"wcnf" keyword.
    return t == "cnf" || t == "c";
  }

  std::istream& in_;
};

std::int64_t parseInt(const std::string& tok, const char* what) {
  try {
    std::size_t pos = 0;
    std::int64_t v = std::stoll(tok, &pos);
    if (pos != tok.size()) throw DimacsError("trailing characters");
    return v;
  } catch (const std::exception&) {
    throw DimacsError(std::string("expected ") + what + ", got '" + tok + "'");
  }
}

struct Header {
  std::string format;  // "cnf" or "wcnf"
  int vars = 0;
  std::int64_t clauses = 0;
  std::optional<Weight> top;  // wcnf only
};

/// Reads lines until the `p` header; returns it. Skips comments.
Header readHeader(std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string first;
    if (!(ls >> first)) continue;  // blank
    if (first == "c" || first[0] == 'c') continue;
    if (first != "p") throw DimacsError("expected 'p' header, got: " + line);
    Header h;
    std::string vars, clauses;
    if (!(ls >> h.format >> vars >> clauses)) {
      throw DimacsError("malformed 'p' header: " + line);
    }
    h.vars = static_cast<int>(parseInt(vars, "variable count"));
    h.clauses = parseInt(clauses, "clause count");
    if (h.vars < 0 || h.clauses < 0) {
      throw DimacsError("negative counts in 'p' header: " + line);
    }
    std::string top;
    if (ls >> top) h.top = parseInt(top, "top weight");
    if (h.format != "cnf" && h.format != "wcnf") {
      throw DimacsError("unknown format '" + h.format + "'");
    }
    return h;
  }
  throw DimacsError("missing 'p' header");
}

/// Reads literals up to the terminating 0 into `out`.
/// Returns false at clean end-of-input before any literal.
bool readClauseBody(Tokens& toks, int maxVar, Clause& out,
                    std::string firstTok = {}) {
  out.clear();
  bool sawAny = !firstTok.empty();
  std::string tok = firstTok.empty() ? toks.next() : std::move(firstTok);
  while (true) {
    if (tok.empty()) {
      if (!sawAny || out.empty()) return false;
      throw DimacsError("clause not terminated by 0");
    }
    std::int64_t v = parseInt(tok, "literal");
    if (v == 0) return true;
    if (v > maxVar || v < -maxVar) {
      throw DimacsError("literal " + std::to_string(v) +
                        " out of declared range " + std::to_string(maxVar));
    }
    out.push_back(Lit::fromDimacs(static_cast<std::int32_t>(v)));
    sawAny = true;
    tok = toks.next();
  }
}

}  // namespace

CnfFormula readDimacsCnfLegacy(std::istream& in) {
  Header h = readHeader(in);
  if (h.format != "cnf") throw DimacsError("expected cnf, got " + h.format);
  CnfFormula cnf(h.vars);
  Tokens toks(in);
  Clause c;
  while (true) {
    std::string tok = toks.next();
    if (tok.empty()) break;
    if (!readClauseBody(toks, h.vars, c, tok)) break;
    cnf.addClause(Clause(c));
  }
  return cnf;
}

WcnfFormula readDimacsWcnfLegacy(std::istream& in) {
  Header h = readHeader(in);
  Tokens toks(in);
  Clause c;
  if (h.format == "cnf") {
    WcnfFormula out(h.vars);
    while (true) {
      std::string tok = toks.next();
      if (tok.empty()) break;
      if (!readClauseBody(toks, h.vars, c, tok)) break;
      out.addSoft(c, 1);
    }
    return out;
  }
  // wcnf: weight precedes each clause.
  WcnfFormula out(h.vars);
  while (true) {
    std::string tok = toks.next();
    if (tok.empty()) break;
    Weight w = parseInt(tok, "clause weight");
    if (w <= 0) throw DimacsError("non-positive clause weight");
    if (!readClauseBody(toks, h.vars, c)) {
      throw DimacsError("weight without clause body");
    }
    if (h.top && w >= *h.top) {
      out.addHard(c);
    } else {
      out.addSoft(c, w);
    }
  }
  return out;
}

CnfFormula readDimacsCnf(std::istream& in) {
  return fastParseDimacsCnf(InputBuffer::fromStream(in));
}

WcnfFormula readDimacsWcnf(std::istream& in) {
  return fastParseDimacsWcnf(InputBuffer::fromStream(in));
}

CnfFormula parseDimacsCnf(const std::string& text) {
  return fastParseDimacsCnf(InputBuffer::borrow(text.data(), text.size()));
}

WcnfFormula parseDimacsWcnf(const std::string& text) {
  return fastParseDimacsWcnf(InputBuffer::borrow(text.data(), text.size()));
}

CnfFormula loadDimacsCnf(const std::string& path) {
  return fastParseDimacsCnf(InputBuffer::fromFile(path));
}

WcnfFormula loadDimacsWcnf(const std::string& path) {
  return fastParseDimacsWcnf(InputBuffer::fromFile(path));
}

void writeDimacsCnf(std::ostream& out, const CnfFormula& cnf) {
  out << "p cnf " << cnf.numVars() << ' ' << cnf.numClauses() << '\n';
  for (const Clause& c : cnf.clauses()) {
    for (Lit p : c) out << p.toDimacs() << ' ';
    out << "0\n";
  }
}

void writeDimacsWcnf(std::ostream& out, const WcnfFormula& wcnf) {
  const Weight top = wcnf.totalSoftWeight() + 1;
  out << "p wcnf " << wcnf.numVars() << ' '
      << (wcnf.numHard() + wcnf.numSoft()) << ' ' << top << '\n';
  for (const std::span<const Lit> c : wcnf.hard()) {
    out << top << ' ';
    for (Lit p : c) out << p.toDimacs() << ' ';
    out << "0\n";
  }
  for (const SoftClause& s : wcnf.soft()) {
    out << s.weight << ' ';
    for (Lit p : s.lits) out << p.toDimacs() << ' ';
    out << "0\n";
  }
}

std::string toDimacsString(const CnfFormula& cnf) {
  std::ostringstream os;
  writeDimacsCnf(os, cnf);
  return os.str();
}

std::string toDimacsString(const WcnfFormula& wcnf) {
  std::ostringstream os;
  writeDimacsWcnf(os, wcnf);
  return os.str();
}

}  // namespace msu
