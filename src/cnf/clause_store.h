/// \file clause_store.h
/// \brief Flat clause storage: every clause's literals back to back in
///        one pool, plus one end offset per clause (a CSR layout).
///
/// A store of n clauses holds two arrays and nothing per clause on the
/// heap: the literal pool and the offsets. Clause i is the span
/// `pool[end(i-1) .. end(i))`, with end(-1) = 0, so empty clauses take
/// no literals. Appending copies the literals to the pool's end.
///
/// Storage contract: a span returned by operator[] (or an iterator)
/// stays valid until the next append to the same store, which may move
/// the pool.

#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "cnf/literal.h"

namespace msu {

/// Literal-wise equality of two clauses, whatever holds them (std::span
/// has no operator==; found by argument-dependent lookup through Lit).
[[nodiscard]] inline bool operator==(std::span<const Lit> a,
                                     std::span<const Lit> b) {
  return std::ranges::equal(a, b);
}

/// Random-access iterator over a view whose operator[] returns elements
/// by value (a span, a SoftClause).
template <class View>
class IndexIterator {
 public:
  using value_type =
      std::remove_cvref_t<decltype(std::declval<const View&>()[0])>;
  using difference_type = std::ptrdiff_t;
  using iterator_concept = std::random_access_iterator_tag;
  using iterator_category = std::input_iterator_tag;  // yields by value

  IndexIterator() = default;
  IndexIterator(const View* view, std::size_t i) : view_(view), i_(i) {}

  value_type operator*() const { return (*view_)[i_]; }
  value_type operator[](difference_type n) const {
    return (*view_)[i_ + static_cast<std::size_t>(n)];
  }

  IndexIterator& operator++() {
    ++i_;
    return *this;
  }
  IndexIterator operator++(int) {
    IndexIterator old = *this;
    ++i_;
    return old;
  }
  IndexIterator& operator--() {
    --i_;
    return *this;
  }
  IndexIterator operator--(int) {
    IndexIterator old = *this;
    --i_;
    return old;
  }
  IndexIterator& operator+=(difference_type n) {
    i_ += static_cast<std::size_t>(n);
    return *this;
  }
  IndexIterator& operator-=(difference_type n) {
    i_ -= static_cast<std::size_t>(n);
    return *this;
  }
  friend IndexIterator operator+(IndexIterator it, difference_type n) {
    return it += n;
  }
  friend IndexIterator operator+(difference_type n, IndexIterator it) {
    return it += n;
  }
  friend IndexIterator operator-(IndexIterator it, difference_type n) {
    return it -= n;
  }
  friend difference_type operator-(IndexIterator a, IndexIterator b) {
    return static_cast<difference_type>(a.i_) -
           static_cast<difference_type>(b.i_);
  }
  friend bool operator==(IndexIterator a, IndexIterator b) {
    return a.i_ == b.i_;
  }
  friend std::strong_ordering operator<=>(IndexIterator a, IndexIterator b) {
    return a.i_ <=> b.i_;
  }

 private:
  const View* view_ = nullptr;
  std::size_t i_ = 0;
};

/// Clauses in one literal pool plus an offsets array. A range of
/// `std::span<const Lit>`; see the file comment for the storage
/// contract.
class ClauseStore {
 public:
  /// Pool offset type: the pool holds at most 2^32 - 1 literals.
  using Offset = std::uint32_t;
  using const_iterator = IndexIterator<ClauseStore>;

  /// Number of clauses.
  [[nodiscard]] std::size_t size() const { return ends_.size(); }
  [[nodiscard]] bool empty() const { return ends_.empty(); }

  /// Total number of literals over all clauses.
  [[nodiscard]] std::size_t numLiterals() const { return lits_.size(); }

  /// Clause `i`.
  [[nodiscard]] std::span<const Lit> operator[](std::size_t i) const {
    const Offset begin = i == 0 ? 0 : ends_[i - 1];
    return {lits_.data() + begin, ends_[i] - begin};
  }

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

  /// Capacity hint: room for `clauses` clauses of `literals` literals in
  /// total. Never shrinks.
  void reserve(std::size_t clauses, std::size_t literals) {
    ends_.reserve(clauses);
    lits_.reserve(literals);
  }

  /// Trims both arrays' capacities to their sizes.
  void shrinkToFit() {
    lits_.shrink_to_fit();
    ends_.shrink_to_fit();
  }

  /// Appends a copy of `lits` (which may be a clause of this store).
  void push(std::span<const Lit> lits) {
    const Lit* pool = lits_.data();
    if (lits.data() >= pool && lits.data() < pool + lits_.size()) {
      // Growing the pool would move the source: copy it out first.
      const std::vector<Lit> copy(lits.begin(), lits.end());
      lits_.insert(lits_.end(), copy.begin(), copy.end());
    } else {
      lits_.insert(lits_.end(), lits.begin(), lits.end());
    }
    seal();
  }

  /// Appends one clause whose literals `fill(pool)` pushes onto the back
  /// of the literal pool, a `std::vector<Lit>&` (a parser lexes straight
  /// into it). `fill` must only append; when it throws, the partial
  /// literals stay in the pool and the store should be discarded.
  template <class Fill>
  void append(Fill&& fill) {
    std::forward<Fill>(fill)(lits_);
    seal();
  }

  /// Capacities of the two arrays, in clauses and literals.
  [[nodiscard]] std::size_t capacity() const { return ends_.capacity(); }
  [[nodiscard]] std::size_t literalCapacity() const {
    return lits_.capacity();
  }

  /// Heap bytes held: both arrays' capacities.
  [[nodiscard]] std::int64_t memBytes() const {
    return static_cast<std::int64_t>(lits_.capacity() * sizeof(Lit) +
                                     ends_.capacity() * sizeof(Offset));
  }

  /// Same clauses in the same order (the layout is canonical).
  friend bool operator==(const ClauseStore&, const ClauseStore&) = default;

 private:
  /// Closes the clause whose literals end at the pool's end.
  void seal() {
    if (lits_.size() > std::numeric_limits<Offset>::max()) {
      throw std::length_error("ClauseStore: more than 2^32-1 literals");
    }
    ends_.push_back(static_cast<Offset>(lits_.size()));
  }

  std::vector<Lit> lits_;
  std::vector<Offset> ends_;
};

}  // namespace msu
