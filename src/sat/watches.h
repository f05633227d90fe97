/// \file watches.h
/// \brief Cache-conscious watch storage for the CDCL propagation core.
///
/// Three structures live here:
///
///  * FlatOccLists<T> — a flat, arena-backed occurrence-list container:
///    every per-literal list lives in ONE contiguous pool with a
///    per-literal {offset, size, cap} header. Compared to
///    `std::vector<std::vector<T>>` this removes one pointer
///    indirection per list, keeps hot lists adjacent in memory, and
///    makes full-database sweeps (GC relocation) a linear scan. Lists
///    grow by relocating their segment to the pool's end (amortized
///    O(1) push); abandoned segments are reclaimed by compact(), which
///    the solver hooks into its GC path.
///
///  * WatchTable — the solver's actual watch storage: binary and long
///    watcher pools sharing ONE interleaved per-literal header table.
///    A propagated literal's binary head and long head live in the same
///    24-byte record, so the two propagation phases touch one header
///    cache line per literal instead of two separate head arrays (the
///    `up-long-*` residual noted in the ROADMAP).
///
///  * Reason — a tagged 32-bit propagation reason: either a clause
///    reference into the arena, a binary reason carrying the *other*
///    literal of a two-clause inline (so conflict analysis never
///    touches the arena for binary implications), or "none".
///
/// The solver keeps binary clauses out of the clause arena entirely:
/// a binary clause (a ∨ b) is stored as BinWatch(b) in the list of ~a
/// and BinWatch(a) in the list of ~b. Binary propagation therefore
/// reads one contiguous 4-byte-entry array and never dereferences a
/// clause — the single hottest-path win in this design. The learnt
/// flag is packed into the spare low bit of the shifted literal index,
/// so a BinWatch is a single word.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "cnf/literal.h"
#include "sat/arena.h"

namespace msu {

/// Watcher for a long (size >= 3) clause: the clause plus a "blocker"
/// literal whose satisfaction lets propagation skip the clause entirely.
struct Watcher {
  CRef cref = kCRefUndef;
  Lit blocker = kUndefLit;
};

/// Watch entry for a binary clause: the implied literal is stored
/// inline (no clause lookup), and the learnt flag is packed into the
/// low bit so the whole entry is 4 bytes.
class BinWatch {
 public:
  constexpr BinWatch() = default;
  constexpr BinWatch(Lit implied, bool learnt)
      : data_((static_cast<std::uint32_t>(implied.index()) << 1) |
              (learnt ? 1u : 0u)) {}

  [[nodiscard]] constexpr Lit implied() const {
    return Lit::fromIndex(static_cast<std::int32_t>(data_ >> 1));
  }
  [[nodiscard]] constexpr bool learnt() const { return (data_ & 1u) != 0; }

  friend constexpr bool operator==(BinWatch, BinWatch) = default;

 private:
  std::uint32_t data_ = 0xFFFF'FFFFu;
};

static_assert(sizeof(BinWatch) == 4, "binary watches must stay one word");

/// Propagation reason: none, a clause in the arena, or the other
/// literal of a binary clause (tag in the top bit).
class Reason {
 public:
  constexpr Reason() = default;

  [[nodiscard]] static constexpr Reason none() { return Reason(); }
  [[nodiscard]] static constexpr Reason clause(CRef ref) {
    assert(ref < kBinTag);
    Reason r;
    r.data_ = ref;
    return r;
  }
  [[nodiscard]] static constexpr Reason binary(Lit other) {
    Reason r;
    r.data_ = kBinTag | static_cast<std::uint32_t>(other.index());
    return r;
  }

  [[nodiscard]] constexpr bool isNone() const { return data_ == kNoneBits; }
  [[nodiscard]] constexpr bool isBinary() const {
    return data_ != kNoneBits && (data_ & kBinTag) != 0;
  }
  [[nodiscard]] constexpr bool isClause() const {
    return (data_ & kBinTag) == 0;
  }

  /// The arena reference of a clause reason.
  [[nodiscard]] constexpr CRef cref() const {
    assert(isClause());
    return data_;
  }

  /// The other (false) literal of a binary reason.
  [[nodiscard]] constexpr Lit other() const {
    assert(isBinary());
    return Lit::fromIndex(static_cast<std::int32_t>(data_ & ~kBinTag));
  }

  friend constexpr bool operator==(Reason, Reason) = default;

 private:
  static constexpr std::uint32_t kBinTag = 0x8000'0000u;
  static constexpr std::uint32_t kNoneBits = 0xFFFF'FFFFu;  // == kCRefUndef

  std::uint32_t data_ = kNoneBits;
};

/// Flat per-literal occurrence lists over one contiguous pool.
///
/// Pointer/span invalidation rules:
///  * push() may grow the pool (and relocate the *target* list); any
///    raw pointer into the pool must be refreshed via poolPtrAt()
///    afterwards. Offsets of other lists are unchanged.
///  * compact() invalidates all offsets; call it only from quiescent
///    points (the solver's GC hook).
template <typename T>
class FlatOccLists {
 public:
  /// Registers one more literal slot (call twice per new variable).
  void addLiteral() { heads_.emplace_back(); }

  [[nodiscard]] int numLits() const { return static_cast<int>(heads_.size()); }

  [[nodiscard]] std::uint32_t sizeOf(Lit p) const {
    return heads_[idx(p)].size;
  }
  [[nodiscard]] std::uint32_t offsetOf(Lit p) const {
    return heads_[idx(p)].offset;
  }

  /// Pool pointer for a previously fetched offset (refresh after push).
  [[nodiscard]] T* poolPtrAt(std::uint32_t offset) {
    return pool_.data() + offset;
  }

  [[nodiscard]] std::span<T> list(Lit p) {
    const Head& h = heads_[idx(p)];
    return {pool_.data() + h.offset, h.size};
  }
  [[nodiscard]] std::span<const T> list(Lit p) const {
    const Head& h = heads_[idx(p)];
    return {pool_.data() + h.offset, h.size};
  }

  void push(Lit p, const T& w) {
    Head& h = heads_[idx(p)];
    if (h.size == h.cap) grow(h);
    pool_[h.offset + h.size++] = w;
  }

  /// Truncates `p`'s list to its first `newSize` entries.
  void shrinkList(Lit p, std::uint32_t newSize) {
    Head& h = heads_[idx(p)];
    assert(newSize <= h.size);
    h.size = newSize;
  }

  /// Removes the first entry matching `pred` by swapping with the back.
  /// Returns true iff an entry was removed.
  template <typename Pred>
  bool removeOne(Lit p, Pred pred) {
    Head& h = heads_[idx(p)];
    T* base = pool_.data() + h.offset;
    for (std::uint32_t i = 0; i < h.size; ++i) {
      if (pred(base[i])) {
        base[i] = base[h.size - 1];
        --h.size;
        return true;
      }
    }
    return false;
  }

  /// Pool slots abandoned by segment growth since the last compact().
  [[nodiscard]] std::size_t wasted() const { return wasted_; }

  /// Total pool slots (live + slack + abandoned).
  [[nodiscard]] std::size_t poolSize() const { return pool_.size(); }

  /// Defragments the pool when abandoned segments dominate it.
  void compactIfWasteful() {
    if (wasted_ * 2 > pool_.size()) compact();
  }

  /// Rewrites the pool tightly (with a little per-list slack), fixing
  /// up every header. Invalidates all previously fetched offsets.
  void compact() {
    std::vector<T> fresh;
    std::size_t need = 0;
    for (const Head& h : heads_) need += slackedCap(h.size);
    fresh.resize(need);
    std::uint32_t at = 0;
    for (Head& h : heads_) {
      const std::uint32_t cap = slackedCap(h.size);
      for (std::uint32_t i = 0; i < h.size; ++i) {
        fresh[at + i] = pool_[h.offset + i];
      }
      h.offset = at;
      h.cap = cap;
      at += cap;
    }
    pool_ = std::move(fresh);
    wasted_ = 0;
  }

 private:
  struct Head {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };

  [[nodiscard]] static std::size_t idx(Lit p) {
    return static_cast<std::size_t>(p.index());
  }

  /// Compacted capacity: size plus ~25% slack so the next few pushes
  /// do not immediately re-fragment the pool.
  [[nodiscard]] static std::uint32_t slackedCap(std::uint32_t size) {
    return size == 0 ? 0 : size + (size >> 2) + 1;
  }

  /// Moves `h`'s segment to the end of the pool with doubled capacity.
  /// Lists start tiny: most literals watch only a handful of clauses,
  /// and a small first segment keeps the pool (and the bytes the
  /// propagation loop must touch) dense.
  void grow(Head& h) {
    const std::uint32_t newCap = h.cap == 0 ? 2 : h.cap * 2;
    const std::uint32_t newOff = static_cast<std::uint32_t>(pool_.size());
    pool_.resize(pool_.size() + newCap);
    for (std::uint32_t i = 0; i < h.size; ++i) {
      pool_[newOff + i] = pool_[h.offset + i];
    }
    wasted_ += h.cap;
    h.offset = newOff;
    h.cap = newCap;
  }

  std::vector<T> pool_;
  std::vector<Head> heads_;
  std::size_t wasted_ = 0;
};

/// The solver's watch storage: a binary pool and a long pool sharing
/// one interleaved per-literal header table. Each literal's record
/// packs both heads:
///
///   { bin_offset, bin_size | bin_cap, long_offset, long_size, long_cap }
///
/// so the binary phase's header read pulls the long head into cache for
/// the second phase (and vice versa). Growth/compaction rules match
/// FlatOccLists: push may relocate the target segment to the pool tail,
/// compact() runs from the solver's GC hook and invalidates offsets.
class WatchTable {
 public:
  /// Registers one more literal slot (call twice per new variable).
  void addLiteral() { heads_.emplace_back(); }

  /// Registers `n` more literal slots with one growth of the header
  /// table, to at least `n` more and at least double its size.
  void addLiterals(std::size_t n) {
    const std::size_t total = heads_.size() + n;
    if (total > heads_.capacity()) {
      heads_.reserve(std::max(total, 2 * heads_.size()));
    }
    heads_.resize(total);
  }

  [[nodiscard]] int numLits() const { return static_cast<int>(heads_.size()); }

  // ---- binary lists ----------------------------------------------------

  [[nodiscard]] std::span<BinWatch> binList(Lit p) {
    Head& h = heads_[idx(p)];
    return {bin_pool_.data() + h.bin_offset, h.bin_size};
  }
  [[nodiscard]] std::span<const BinWatch> binList(Lit p) const {
    const Head& h = heads_[idx(p)];
    return {bin_pool_.data() + h.bin_offset, h.bin_size};
  }

  void pushBin(Lit p, BinWatch w) {
    Head& h = heads_[idx(p)];
    if (h.bin_size == h.bin_cap) growBin(h);
    bin_pool_[h.bin_offset + h.bin_size++] = w;
  }

  void shrinkBin(Lit p, std::uint32_t newSize) {
    Head& h = heads_[idx(p)];
    assert(newSize <= h.bin_size);
    h.bin_size = newSize;
  }

  // ---- long lists ------------------------------------------------------

  [[nodiscard]] std::uint32_t longSizeOf(Lit p) const {
    return heads_[idx(p)].long_size;
  }
  [[nodiscard]] std::uint32_t longOffsetOf(Lit p) const {
    return heads_[idx(p)].long_offset;
  }

  /// Long-pool pointer for a previously fetched offset (refresh after
  /// pushLong).
  [[nodiscard]] Watcher* longPoolPtrAt(std::uint32_t offset) {
    return long_pool_.data() + offset;
  }

  [[nodiscard]] std::span<Watcher> longList(Lit p) {
    Head& h = heads_[idx(p)];
    return {long_pool_.data() + h.long_offset, h.long_size};
  }

  void pushLong(Lit p, const Watcher& w) {
    Head& h = heads_[idx(p)];
    if (h.long_size == h.long_cap) growLong(h);
    long_pool_[h.long_offset + h.long_size++] = w;
  }

  void shrinkLong(Lit p, std::uint32_t newSize) {
    Head& h = heads_[idx(p)];
    assert(newSize <= h.long_size);
    h.long_size = newSize;
  }

  /// Removes the watcher of clause `ref` from `p`'s long list (swap with
  /// the back; order is not significant). Returns true iff it was found.
  /// Used by inprocessing to detach a clause eagerly before rewriting
  /// its literals — the lazy-detach path only drops watchers of clauses
  /// already marked deleted.
  bool removeLong(Lit p, CRef ref) {
    Head& h = heads_[idx(p)];
    Watcher* base = long_pool_.data() + h.long_offset;
    for (std::uint32_t i = 0; i < h.long_size; ++i) {
      if (base[i].cref == ref) {
        base[i] = base[h.long_size - 1];
        --h.long_size;
        return true;
      }
    }
    return false;
  }

  // ---- pool maintenance ------------------------------------------------

  /// Pool slots abandoned by segment growth since the last compact().
  [[nodiscard]] std::size_t wastedBin() const { return wasted_bin_; }
  [[nodiscard]] std::size_t wastedLong() const { return wasted_long_; }

  /// Backing-store footprint in bytes (pool capacities + the per-literal
  /// header table) — the watch table's contribution to the solver's
  /// cooperative memory accounting.
  [[nodiscard]] std::size_t bytes() const {
    return bin_pool_.capacity() * sizeof(BinWatch) +
           long_pool_.capacity() * sizeof(Watcher) +
           heads_.capacity() * sizeof(Head);
  }

  /// Defragments whichever pool is dominated by abandoned segments.
  void compactIfWasteful() {
    if (wasted_long_ * 2 > long_pool_.size() ||
        wasted_bin_ * 2 > bin_pool_.size()) {
      compact();
    }
  }

  /// Bulk reservation (the bulk-load counting pass): rewrites both
  /// pools so every literal's capacity is exactly its current size plus
  /// the announced extra, preserving entries in order. One allocation
  /// per pool; the pushes that follow never relocate a segment.
  /// Invalidates all previously fetched offsets. The spans are indexed
  /// by Lit::index() and must cover every registered literal.
  void reserveExtra(std::span<const std::uint32_t> binExtra,
                    std::span<const std::uint32_t> longExtra) {
    assert(binExtra.size() == heads_.size() &&
           longExtra.size() == heads_.size());
    std::size_t needBin = 0;
    std::size_t needLong = 0;
    for (std::size_t i = 0; i < heads_.size(); ++i) {
      needBin += heads_[i].bin_size + binExtra[i];
      needLong += heads_[i].long_size + longExtra[i];
    }
    std::vector<BinWatch> freshBin(needBin);
    std::vector<Watcher> freshLong(needLong);
    std::uint32_t atBin = 0;
    std::uint32_t atLong = 0;
    for (std::size_t i = 0; i < heads_.size(); ++i) {
      Head& h = heads_[i];
      for (std::uint32_t k = 0; k < h.bin_size; ++k) {
        freshBin[atBin + k] = bin_pool_[h.bin_offset + k];
      }
      h.bin_offset = atBin;
      h.bin_cap = h.bin_size + binExtra[i];
      atBin += h.bin_cap;
      for (std::uint32_t k = 0; k < h.long_size; ++k) {
        freshLong[atLong + k] = long_pool_[h.long_offset + k];
      }
      h.long_offset = atLong;
      h.long_cap = h.long_size + longExtra[i];
      atLong += h.long_cap;
    }
    bin_pool_ = std::move(freshBin);
    long_pool_ = std::move(freshLong);
    wasted_bin_ = 0;
    wasted_long_ = 0;
  }

  /// Rewrites both pools tightly (with a little per-list slack), fixing
  /// up every header. Invalidates all previously fetched offsets.
  void compact() {
    std::vector<BinWatch> freshBin;
    std::vector<Watcher> freshLong;
    std::size_t needBin = 0;
    std::size_t needLong = 0;
    for (const Head& h : heads_) {
      needBin += slackedCap(h.bin_size);
      needLong += slackedCap(h.long_size);
    }
    freshBin.resize(needBin);
    freshLong.resize(needLong);
    std::uint32_t atBin = 0;
    std::uint32_t atLong = 0;
    for (Head& h : heads_) {
      const std::uint32_t bcap = slackedCap(h.bin_size);
      for (std::uint32_t i = 0; i < h.bin_size; ++i) {
        freshBin[atBin + i] = bin_pool_[h.bin_offset + i];
      }
      h.bin_offset = atBin;
      h.bin_cap = bcap;
      atBin += bcap;

      const std::uint32_t lcap = slackedCap(h.long_size);
      for (std::uint32_t i = 0; i < h.long_size; ++i) {
        freshLong[atLong + i] = long_pool_[h.long_offset + i];
      }
      h.long_offset = atLong;
      h.long_cap = lcap;
      atLong += lcap;
    }
    bin_pool_ = std::move(freshBin);
    long_pool_ = std::move(freshLong);
    wasted_bin_ = 0;
    wasted_long_ = 0;
  }

 private:
  /// Interleaved per-literal header: both phases of propagate() read
  /// the same record.
  struct Head {
    std::uint32_t bin_offset = 0;
    std::uint32_t bin_size = 0;
    std::uint32_t bin_cap = 0;
    std::uint32_t long_offset = 0;
    std::uint32_t long_size = 0;
    std::uint32_t long_cap = 0;
  };

  [[nodiscard]] static std::size_t idx(Lit p) {
    return static_cast<std::size_t>(p.index());
  }

  [[nodiscard]] static std::uint32_t slackedCap(std::uint32_t size) {
    return size == 0 ? 0 : size + (size >> 2) + 1;
  }

  void growBin(Head& h) {
    const std::uint32_t newCap = h.bin_cap == 0 ? 2 : h.bin_cap * 2;
    const std::uint32_t newOff = static_cast<std::uint32_t>(bin_pool_.size());
    bin_pool_.resize(bin_pool_.size() + newCap);
    for (std::uint32_t i = 0; i < h.bin_size; ++i) {
      bin_pool_[newOff + i] = bin_pool_[h.bin_offset + i];
    }
    wasted_bin_ += h.bin_cap;
    h.bin_offset = newOff;
    h.bin_cap = newCap;
  }

  void growLong(Head& h) {
    const std::uint32_t newCap = h.long_cap == 0 ? 2 : h.long_cap * 2;
    const std::uint32_t newOff = static_cast<std::uint32_t>(long_pool_.size());
    long_pool_.resize(long_pool_.size() + newCap);
    for (std::uint32_t i = 0; i < h.long_size; ++i) {
      long_pool_[newOff + i] = long_pool_[h.long_offset + i];
    }
    wasted_long_ += h.long_cap;
    h.long_offset = newOff;
    h.long_cap = newCap;
  }

  std::vector<BinWatch> bin_pool_;
  std::vector<Watcher> long_pool_;
  std::vector<Head> heads_;
  std::size_t wasted_bin_ = 0;
  std::size_t wasted_long_ = 0;
};

}  // namespace msu
