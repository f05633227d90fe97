/// \file heap.h
/// \brief Indexed binary max-heap over variables ordered by activity,
///        as used by the VSIDS decision heuristic.

#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "cnf/literal.h"

namespace msu {

/// Max-heap of variables keyed by an external activity array. Supports
/// decrease/increase-key via `update` and membership queries in O(1).
class VarOrderHeap {
 public:
  explicit VarOrderHeap(const std::vector<double>& activity)
      : activity_(activity) {}

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] int size() const { return static_cast<int>(heap_.size()); }

  [[nodiscard]] bool contains(Var v) const {
    return v < static_cast<Var>(indices_.size()) && indices_[v] >= 0;
  }

  /// Reserves room for variables `0 .. n-1`.
  void reserve(std::size_t n) {
    indices_.reserve(n);
    heap_.reserve(n);
  }

  /// Inserts `v` (must not be present).
  void insert(Var v) {
    growIndex(v);
    assert(!contains(v));
    indices_[v] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    siftUp(indices_[v]);
  }

  /// Re-establishes heap order after `v`'s activity increased (no-op when
  /// absent).
  void update(Var v) {
    if (!contains(v)) return;
    siftUp(indices_[v]);
    siftDown(indices_[v]);
  }

  /// Removes and returns the variable with maximum activity.
  [[nodiscard]] Var removeMax() {
    assert(!empty());
    Var top = heap_[0];
    Var last = heap_.back();
    heap_.pop_back();
    indices_[top] = -1;
    if (!heap_.empty()) {
      heap_[0] = last;
      indices_[last] = 0;
      siftDown(0);
    }
    return top;
  }

  /// Rebuilds the heap from an explicit variable list.
  void build(const std::vector<Var>& vars) {
    for (Var v : heap_) indices_[v] = -1;
    heap_.clear();
    for (Var v : vars) {
      growIndex(v);
      indices_[v] = static_cast<int>(heap_.size());
      heap_.push_back(v);
    }
    for (int i = static_cast<int>(heap_.size()) / 2 - 1; i >= 0; --i) {
      siftDown(i);
    }
  }

 private:
  void growIndex(Var v) {
    if (v >= static_cast<Var>(indices_.size())) {
      indices_.resize(static_cast<std::size_t>(v) + 1, -1);
    }
  }

  [[nodiscard]] bool lt(Var a, Var b) const {
    return activity_[a] > activity_[b];  // max-heap on activity
  }

  void siftUp(int i) {
    Var v = heap_[i];
    while (i > 0) {
      int parent = (i - 1) / 2;
      if (!lt(v, heap_[parent])) break;
      heap_[i] = heap_[parent];
      indices_[heap_[i]] = i;
      i = parent;
    }
    heap_[i] = v;
    indices_[v] = i;
  }

  void siftDown(int i) {
    Var v = heap_[i];
    const int n = static_cast<int>(heap_.size());
    while (true) {
      int child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && lt(heap_[child + 1], heap_[child])) ++child;
      if (!lt(heap_[child], v)) break;
      heap_[i] = heap_[child];
      indices_[heap_[i]] = i;
      i = child;
    }
    heap_[i] = v;
    indices_[v] = i;
  }

  const std::vector<double>& activity_;
  std::vector<Var> heap_;
  std::vector<int> indices_;  // var -> position or -1
};

}  // namespace msu
