/// \file fastparse.h
/// \brief Zero-copy parser core shared by the DIMACS CNF, WCNF (old
///        `p wcnf` and 2022 `h`-line) and OPB front ends.
///
/// The huge-instance ingest path: an `InputBuffer` owns the raw bytes
/// (mmap(2) for regular files, a single read()-into-buffer slurp for
/// pipes and streams, or a borrowed view for in-memory strings) and a
/// `FastCursor` scans them with a hand-rolled pointer-bumping lexer —
/// no iostreams, no per-token std::string, branch-light digit loops.
/// `dimacs.cpp` and `opb.cpp` are thin adapters over this core; the
/// previous istream tokenizers survive as `*Legacy` entry points for
/// differential testing and as the bench_parse A/B baseline.
///
/// Comment handling is strictly line-anchored: a comment begins only
/// when the comment character ('c' for DIMACS, '*' for OPB) is the
/// first non-blank character of a line. A token like `cat` in the
/// middle of a clause is a parse error, never a silent comment-to-EOL
/// (the legacy tokenizer's fragile leading-'c' heuristic). A line
/// whose first non-blank character is '%' ends the input (SAT
/// competition convention) when the format enables it.
///
/// Errors are reported with 1-based line numbers and thrown as
/// DimacsError (format parsers with their own error type, e.g. OPB's
/// OpbError, use the non-throwing primitives and throw their own).

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "cnf/dimacs.h"

namespace msu {

/// Owns (or borrows) the bytes of one input. Move-only; unmaps/frees on
/// destruction. `data()` is NOT NUL-terminated — always honor `size()`.
class InputBuffer {
 public:
  /// Maps `path` with mmap(2); falls back to read()-into-buffer when
  /// the file is not mappable (pipe, /proc, zero-length). Throws
  /// DimacsError when the file cannot be opened or read.
  [[nodiscard]] static InputBuffer fromFile(const std::string& path);

  /// Slurps a stream to EOF into an owned buffer (the pipe path).
  [[nodiscard]] static InputBuffer fromStream(std::istream& in);

  /// Takes ownership of `text`.
  [[nodiscard]] static InputBuffer fromString(std::string text);

  /// Borrows `[data, data+size)` without copying; the caller keeps the
  /// bytes alive for the buffer's lifetime.
  [[nodiscard]] static InputBuffer borrow(const char* data, std::size_t size);

  InputBuffer() = default;
  InputBuffer(InputBuffer&& other) noexcept { *this = std::move(other); }
  InputBuffer& operator=(InputBuffer&& other) noexcept;
  InputBuffer(const InputBuffer&) = delete;
  InputBuffer& operator=(const InputBuffer&) = delete;
  ~InputBuffer() { release(); }

  [[nodiscard]] const char* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// True iff the bytes came from mmap (vs an owned or borrowed buffer);
  /// lets tests pin mmap-vs-fallback equivalence.
  [[nodiscard]] bool mapped() const { return mapped_; }

 private:
  void release();

  const char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  bool owns_ = false;  // data_ points into owned_ (re-derived on move)
  std::string owned_;
};

/// Pointer-bumping lexer over a byte range. Tracks line numbers for
/// diagnostics and skips line-anchored comment lines transparently.
class FastCursor {
 public:
  FastCursor(const char* data, std::size_t size, char commentChar,
             bool percentEndsInput)
      : p_(data),
        end_(data + size),
        comment_(commentChar),
        percent_eof_(percentEndsInput) {}

  explicit FastCursor(const InputBuffer& buf, char commentChar = 'c',
                      bool percentEndsInput = true)
      : FastCursor(buf.data(), buf.size(), commentChar, percentEndsInput) {}

  /// Advances to the first character of the next token, skipping
  /// whitespace, blank lines and comment lines. Returns false at end of
  /// input (including a '%' terminator line).
  bool skipToToken();

  /// First character of the pending token; call after skipToToken().
  [[nodiscard]] char peek() const { return *p_; }

  /// skipToToken() + integer parse (optional sign, then digits, ending
  /// at whitespace). Throws DimacsError naming `what`, the offending
  /// token and the line on malformed input, overflow or end of input.
  std::int64_t readInt(const char* what);

  /// skipToToken() + scan of one whitespace-delimited token as a view
  /// into the buffer (no allocation). Empty view at end of input.
  std::string_view readWord();

  /// readInt with an inlined fast path for clean short tokens (sign +
  /// <= 9 digits followed by whitespace). Anything else — comments to
  /// skip, long or malformed tokens, end of input — falls back to
  /// readInt unchanged, so values and diagnostics are identical. Used
  /// for per-clause weights, where readInt's call-per-token overhead
  /// shows up on huge WCNF inputs.
  std::int64_t readIntQuick(const char* what);

  /// Fused clause-body reader: `<lits> 0` with a declared-range check
  /// against `maxVar`, appended to `out` (a scratch clause, or the
  /// literal pool of a ClauseStore being filled in place). Semantically
  /// identical to a readInt("literal") loop — every irregular token
  /// (overlong digits, stray word, mid-clause end of input) is re-read
  /// through readInt so diagnostics match exactly — but the common
  /// all-digit case keeps the cursor in registers across the whole
  /// clause. This loop is most of the parse wall on huge instances.
  void readClauseLits(int maxVar, std::vector<Lit>& out);

  /// Skips blanks (not newlines) and throws DimacsError naming `where`
  /// unless positioned at end of line / end of input. Pins the strict
  /// "no trailing tokens" rule for header lines.
  void expectEndOfLine(const char* where);

  /// True iff another token sits on the current line (lookahead only;
  /// consumes nothing). Distinguishes an optional trailing field (the
  /// wcnf header's `top`) from the end of a line.
  [[nodiscard]] bool peekMoreOnLine() const;

  /// 1-based line number of the cursor position.
  [[nodiscard]] int line() const { return line_; }

  /// Throws DimacsError with `msg` and the current line appended.
  [[noreturn]] void fail(const std::string& msg) const;

 private:
  /// Token under the cursor as a view (for error messages).
  [[nodiscard]] std::string_view pendingToken() const;

  const char* p_;
  const char* end_;
  int line_ = 1;
  bool bol_ = true;  // at line start (only blanks seen on this line)
  char comment_;
  bool percent_eof_;
};

class Solver;

/// Streams a DIMACS CNF straight into `solver` under one bulk-load
/// scope — no intermediate CnfFormula and no per-clause heap
/// allocation (clauses land in the solver's flat arena as they are
/// lexed). The fastest ingest path for huge instances; grows the
/// solver's variable universe to the header's declared count. Returns
/// `solver.okay()` after the final root-level propagation. Throws
/// DimacsError on malformed input.
bool fastLoadDimacsCnfInto(const InputBuffer& buf, Solver& solver);

/// Parses DIMACS CNF from a buffer. Throws DimacsError.
[[nodiscard]] CnfFormula fastParseDimacsCnf(const InputBuffer& buf);

/// Parses DIMACS WCNF from a buffer: the old `p wcnf <vars> <clauses>
/// [top]` format, the 2022 headerless format (`h`-prefixed hard
/// clauses, weight-prefixed softs), or a plain `p cnf` instance lifted
/// to all-soft weight 1. Each clause body is lexed straight into the
/// formula's literal pool (no per-clause allocation, no scratch copy),
/// and the arrays are trimmed to size at the end. Throws DimacsError.
[[nodiscard]] WcnfFormula fastParseDimacsWcnf(const InputBuffer& buf);

}  // namespace msu
