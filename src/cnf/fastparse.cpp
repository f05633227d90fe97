#include "cnf/fastparse.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <istream>
#include <limits>
#include <optional>
#include <utility>

#include "sat/solver.h"

namespace msu {

// ---- InputBuffer ---------------------------------------------------------

InputBuffer& InputBuffer::operator=(InputBuffer&& other) noexcept {
  if (this != &other) {
    release();
    mapped_ = other.mapped_;
    owns_ = other.owns_;
    size_ = other.size_;
    owned_ = std::move(other.owned_);
    // Moving the owned string may relocate its bytes (SSO), so re-derive
    // the view; mapped/borrowed views are stable.
    data_ = owns_ ? owned_.data() : other.data_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
    other.owns_ = false;
  }
  return *this;
}

void InputBuffer::release() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  owns_ = false;
  owned_ = std::string();
}

InputBuffer InputBuffer::fromFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw DimacsError("cannot open file: " + path);
  struct stat st{};
  const bool statOk = ::fstat(fd, &st) == 0;
  if (statOk && S_ISREG(st.st_mode) && st.st_size > 0) {
    void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                       PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);
#ifdef POSIX_MADV_SEQUENTIAL
      ::posix_madvise(map, static_cast<std::size_t>(st.st_size),
                      POSIX_MADV_SEQUENTIAL);
#endif
      InputBuffer buf;
      buf.data_ = static_cast<const char*>(map);
      buf.size_ = static_cast<std::size_t>(st.st_size);
      buf.mapped_ = true;
      return buf;
    }
  }
  // Fallback: pipes, special files, or an mmap refusal — read() it all.
  std::string text;
  if (statOk && st.st_size > 0) text.reserve(static_cast<std::size_t>(st.st_size));
  char chunk[1 << 16];
  for (;;) {
    const ::ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n > 0) {
      text.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;
    ::close(fd);
    throw DimacsError("cannot read file: " + path);
  }
  ::close(fd);
  return fromString(std::move(text));
}

InputBuffer InputBuffer::fromStream(std::istream& in) {
  std::string text;
  char chunk[1 << 16];
  while (in) {
    in.read(chunk, sizeof chunk);
    const std::streamsize n = in.gcount();
    if (n > 0) text.append(chunk, static_cast<std::size_t>(n));
  }
  return fromString(std::move(text));
}

InputBuffer InputBuffer::fromString(std::string text) {
  InputBuffer buf;
  buf.owned_ = std::move(text);
  buf.data_ = buf.owned_.data();
  buf.size_ = buf.owned_.size();
  buf.owns_ = true;
  return buf;
}

InputBuffer InputBuffer::borrow(const char* data, std::size_t size) {
  InputBuffer buf;
  buf.data_ = data;
  buf.size_ = size;
  return buf;
}

// ---- FastCursor ----------------------------------------------------------

namespace {

inline bool isBlank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v';
}

inline bool endsToken(char c) { return isBlank(c) || c == '\n'; }

}  // namespace

bool FastCursor::skipToToken() {
  while (p_ != end_) {
    const char c = *p_;
    if (isBlank(c)) {
      ++p_;
      continue;
    }
    if (c == '\n') {
      ++p_;
      ++line_;
      bol_ = true;
      continue;
    }
    if (bol_) {
      if (c == comment_) {
        while (p_ != end_ && *p_ != '\n') ++p_;
        continue;
      }
      if (percent_eof_ && c == '%') {
        p_ = end_;  // competition terminator: hard end of input
        return false;
      }
    }
    bol_ = false;
    return true;
  }
  return false;
}

std::string_view FastCursor::pendingToken() const {
  const char* q = p_;
  while (q != end_ && !endsToken(*q)) ++q;
  return {p_, static_cast<std::size_t>(q - p_)};
}

void FastCursor::fail(const std::string& msg) const {
  throw DimacsError(msg + " (line " + std::to_string(line_) + ")");
}

std::int64_t FastCursor::readInt(const char* what) {
  if (!skipToToken()) {
    fail(std::string("expected ") + what + ", got end of input");
  }
  const char* start = p_;
  bool neg = false;
  if (*p_ == '-' || *p_ == '+') {
    neg = (*p_ == '-');
    ++p_;
  }
  const char* digits = p_;
  std::uint64_t v = 0;
  while (p_ != end_ && *p_ >= '0' && *p_ <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(*p_ - '0');
    ++p_;
  }
  const std::ptrdiff_t ndigits = p_ - digits;
  if (ndigits == 0 || (p_ != end_ && !endsToken(*p_))) {
    p_ = start;
    fail(std::string("expected ") + what + ", got '" +
         std::string(pendingToken()) + "'");
  }
  // <= 19 digits cannot wrap uint64; past that (or past int64's range)
  // the value is out of range for any weight/literal we accept.
  const std::uint64_t lim =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
      (neg ? 1u : 0u);
  if (ndigits > 19 || v > lim) {
    p_ = start;
    fail(std::string("integer overflow in ") + what + ": '" +
         std::string(pendingToken()) + "'");
  }
  return neg ? -static_cast<std::int64_t>(v) : static_cast<std::int64_t>(v);
}

std::string_view FastCursor::readWord() {
  if (!skipToToken()) return {};
  const std::string_view tok = pendingToken();
  p_ += tok.size();
  return tok;
}

std::int64_t FastCursor::readIntQuick(const char* what) {
  const char* p = p_;
  const char* const end = end_;
  int line = line_;
  bool bol = bol_;
  for (;;) {
    if (p == end) break;  // fall back
    const char c = *p;
    if (isBlank(c)) {
      ++p;
      continue;
    }
    if (c == '\n') {
      ++p;
      ++line;
      bol = true;
      continue;
    }
    if (bol && (c == comment_ || (percent_eof_ && c == '%'))) break;
    const bool neg = (c == '-');
    const char* q = p;
    if (neg || c == '+') ++q;
    std::uint32_t v = 0;
    const char* const digits = q;
    while (q != end && static_cast<unsigned char>(*q - '0') <= 9) {
      v = v * 10u + static_cast<std::uint32_t>(*q - '0');
      ++q;
    }
    const std::ptrdiff_t nd = q - digits;
    if (nd == 0 || nd > 9 || (q != end && !endsToken(*q))) break;
    p_ = q;
    line_ = line;
    bol_ = false;
    return neg ? -static_cast<std::int64_t>(v) : static_cast<std::int64_t>(v);
  }
  // Slow path: members were not touched, so readInt redoes the skip and
  // produces its usual value or diagnostic.
  return readInt(what);
}

void FastCursor::readClauseLits(int maxVar, std::vector<Lit>& out) {
  const char* p = p_;
  const char* const end = end_;
  int line = line_;
  bool bol = bol_;
  const auto sync = [&] {
    p_ = p;
    line_ = line;
    bol_ = bol;
  };
  for (;;) {
    // Inlined skipToToken over the local cursor.
    for (;;) {
      if (p == end) {
        sync();
        static_cast<void>(readInt("literal"));  // throws the exact error
      }
      const char c = *p;
      if (isBlank(c)) {
        ++p;
        continue;
      }
      if (c == '\n') {
        ++p;
        ++line;
        bol = true;
        continue;
      }
      if (bol) {
        if (c == comment_) {
          while (p != end && *p != '\n') ++p;
          continue;
        }
        if (percent_eof_ && c == '%') {
          sync();
          static_cast<void>(readInt("literal"));  // '%' => end of input
        }
      }
      bol = false;
      break;
    }
    const char* const tokStart = p;
    const bool neg = (*p == '-');
    if (neg || *p == '+') ++p;
    std::uint32_t v = 0;
    const char* const digits = p;
    while (p != end && static_cast<unsigned char>(*p - '0') <= 9) {
      v = v * 10u + static_cast<std::uint32_t>(*p - '0');
      ++p;
    }
    const std::ptrdiff_t nd = p - digits;
    if (nd == 0 || nd > 9 || (p != end && !endsToken(*p))) {
      // Slow path: anything that could overflow or is not a clean
      // integer token goes back through readInt for its diagnostics.
      p = tokStart;
      sync();
      const std::int64_t sv = readInt("literal");
      if (sv == 0) return;
      if (sv > maxVar || sv < -maxVar) {
        fail("literal " + std::to_string(sv) + " out of declared range " +
             std::to_string(maxVar));
      }
      out.push_back(Lit::fromDimacs(static_cast<std::int32_t>(sv)));
      p = p_;
      line = line_;
      bol = bol_;
      continue;
    }
    if (v == 0) {
      sync();
      return;
    }
    if (v > static_cast<std::uint32_t>(maxVar)) {
      sync();
      const std::int64_t sv = neg ? -static_cast<std::int64_t>(v) : v;
      fail("literal " + std::to_string(sv) + " out of declared range " +
           std::to_string(maxVar));
    }
    const auto sv = static_cast<std::int32_t>(v);
    out.push_back(Lit::fromDimacs(neg ? -sv : sv));
  }
}

void FastCursor::expectEndOfLine(const char* where) {
  while (p_ != end_ && isBlank(*p_)) ++p_;
  if (p_ == end_ || *p_ == '\n') return;
  fail(std::string("trailing tokens in ") + where + ": '" +
       std::string(pendingToken()) + "'");
}

// ---- DIMACS CNF / WCNF front ends ----------------------------------------

namespace {

struct FpHeader {
  bool wcnf = false;
  int vars = 0;
  std::int64_t clauses = 0;
  std::optional<Weight> top;  // wcnf only
};

/// True iff another token sits on the current line (blanks skipped).
bool moreOnLine(const char* p, const char* end) {
  while (p != end && isBlank(*p)) ++p;
  return p != end && *p != '\n';
}

/// Parses the one-line `p cnf|wcnf <vars> <clauses> [top]` header.
FpHeader readFpHeader(FastCursor& cur) {
  if (!cur.skipToToken()) cur.fail("missing 'p' header");
  const int headerLine = cur.line();
  const std::string_view p = cur.readWord();
  if (p != "p") {
    cur.fail("expected 'p' header, got: '" + std::string(p) + "'");
  }
  FpHeader h;
  const std::string_view fmt = cur.readWord();
  if (fmt == "wcnf") {
    h.wcnf = true;
  } else if (fmt != "cnf") {
    cur.fail("unknown format '" + std::string(fmt) + "'");
  }
  const std::int64_t vars = cur.readInt("variable count");
  h.clauses = cur.readInt("clause count");
  if (vars < 0 || h.clauses < 0) {
    cur.fail("negative counts in 'p' header");
  }
  if (vars > std::numeric_limits<std::int32_t>::max() / 2) {
    cur.fail("variable count " + std::to_string(vars) + " too large");
  }
  h.vars = static_cast<int>(vars);
  if (h.wcnf && cur.line() == headerLine && cur.peekMoreOnLine()) {
    h.top = cur.readInt("top weight");
  }
  if (cur.line() != headerLine) cur.fail("malformed 'p' header");
  cur.expectEndOfLine("'p' header");
  return h;
}

/// Clause capacity hint: trust the header, capped by what the input
/// could physically contain (>= 2 bytes per clause), so a lying header
/// cannot force a huge allocation.
std::int64_t clauseReserveHint(std::int64_t declared, std::size_t bytes) {
  return std::min<std::int64_t>(declared,
                                static_cast<std::int64_t>(bytes / 2) + 16);
}

/// Headerless 2022 WCNF: `h <lits> 0` hard lines, `<w> <lits> 0` softs.
WcnfFormula parseWcnf2022(FastCursor& cur) {
  constexpr std::int64_t kMaxVar = std::numeric_limits<std::int32_t>::max() / 2;
  WcnfFormula out;
  const auto lexBody = [&](std::vector<Lit>& pool) {
    for (;;) {
      const std::int64_t v = cur.readInt("literal");
      if (v == 0) break;
      if (v > kMaxVar || v < -kMaxVar) {
        cur.fail("literal " + std::to_string(v) + " too large");
      }
      pool.push_back(Lit::fromDimacs(static_cast<std::int32_t>(v)));
    }
  };
  while (cur.skipToToken()) {
    bool hard = false;
    Weight w = 1;
    if (cur.peek() == 'h') {
      const std::string_view tok = cur.readWord();
      if (tok != "h") {
        cur.fail("expected clause weight, got '" + std::string(tok) + "'");
      }
      hard = true;
    } else {
      w = cur.readIntQuick("clause weight");
      if (w <= 0) cur.fail("non-positive clause weight");
    }
    if (!cur.skipToToken()) cur.fail("weight without clause body");
    if (hard) {
      out.appendHard(lexBody);
    } else {
      out.appendSoft(w, lexBody);
    }
  }
  out.shrinkToFit();
  return out;
}

}  // namespace

bool FastCursor::peekMoreOnLine() const { return moreOnLine(p_, end_); }

bool fastLoadDimacsCnfInto(const InputBuffer& buf, Solver& solver) {
  FastCursor cur(buf);
  const FpHeader h = readFpHeader(cur);
  if (h.wcnf) throw DimacsError("expected cnf, got wcnf");
  while (solver.numVars() < h.vars) solver.newVars(h.vars - solver.numVars());
  {
    const Solver::BulkLoadGuard bulk(solver, solver.options().bulk_load);
    Clause c;
    while (cur.skipToToken()) {
      c.clear();
      cur.readClauseLits(h.vars, c);
      if (!solver.addClause(c)) break;  // root-level UNSAT: stop early
    }
  }
  return solver.okay();
}

CnfFormula fastParseDimacsCnf(const InputBuffer& buf) {
  FastCursor cur(buf);
  const FpHeader h = readFpHeader(cur);
  if (h.wcnf) throw DimacsError("expected cnf, got wcnf");
  CnfFormula cnf(h.vars);
  cnf.reserveClauses(clauseReserveHint(h.clauses, buf.size()));
  Clause c;
  while (cur.skipToToken()) {
    c.clear();
    cur.readClauseLits(h.vars, c);
    cnf.addClause(Clause(c));
  }
  return cnf;
}

WcnfFormula fastParseDimacsWcnf(const InputBuffer& buf) {
  FastCursor probe(buf);
  if (!probe.skipToToken()) throw DimacsError("missing 'p' header");
  if (probe.peek() != 'p') {
    FastCursor cur(buf);
    return parseWcnf2022(cur);
  }
  FastCursor cur(buf);
  const FpHeader h = readFpHeader(cur);
  WcnfFormula out(h.vars);
  // The header's clause count sizes the soft offsets and weights (all
  // of them for a plain CNF); hards and the literal pools grow, and
  // shrinkToFit() trims every array to its size at the end.
  out.reserveSoft(
      static_cast<std::size_t>(clauseReserveHint(h.clauses, buf.size())), 0);
  const auto lexBody = [&](std::vector<Lit>& pool) {
    cur.readClauseLits(h.vars, pool);
  };
  if (!h.wcnf) {
    // A plain CNF read as WCNF lifts to an all-soft instance.
    while (cur.skipToToken()) out.appendSoft(1, lexBody);
  } else {
    while (cur.skipToToken()) {
      const Weight w = cur.readIntQuick("clause weight");
      if (w <= 0) cur.fail("non-positive clause weight");
      if (!cur.skipToToken()) cur.fail("weight without clause body");
      if (h.top && w >= *h.top) {
        out.appendHard(lexBody);
      } else {
        out.appendSoft(w, lexBody);
      }
    }
  }
  out.shrinkToFit();
  return out;
}

}  // namespace msu
