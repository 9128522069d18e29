// Fixed-arity tuple with inline storage.
//
// Tuples never allocate: arity is bounded by kMaxTupleArity (large enough
// for all rewritten programs this engine produces — the widest predicates
// are supplementary magic predicates of arity <= 6).
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "storage/value.h"
#include "util/lifetime_annotations.h"

namespace mcm {

/// Maximum tuple arity supported by the engine.
inline constexpr uint32_t kMaxTupleArity = 8;

/// \brief A row of up to kMaxTupleArity values, stored inline.
///
/// Equality, hashing and lexicographic ordering consider exactly the first
/// `arity()` slots.
class Tuple {
 public:
  Tuple() : arity_(0) { values_.fill(0); }

  explicit Tuple(uint32_t arity) : arity_(arity) {
    assert(arity <= kMaxTupleArity);
    values_.fill(0);
  }

  Tuple(std::initializer_list<Value> vals)
      : arity_(static_cast<uint32_t>(vals.size())) {
    assert(vals.size() <= kMaxTupleArity);
    values_.fill(0);
    std::copy(vals.begin(), vals.end(), values_.begin());
  }

  /// The tuple whose `arity` values start at `row`.
  Tuple(const Value* row, uint32_t arity) : arity_(arity) {
    assert(arity <= kMaxTupleArity);
    values_.fill(0);
    std::copy(row, row + arity, values_.begin());
  }

  uint32_t arity() const { return arity_; }

  Value operator[](uint32_t i) const {
    assert(i < arity_);
    return values_[i];
  }
  Value& operator[](uint32_t i) MCM_LIFETIME_BOUND {
    assert(i < arity_);
    return values_[i];
  }

  const Value* data() const MCM_LIFETIME_BOUND { return values_.data(); }

  bool operator==(const Tuple& other) const {
    if (arity_ != other.arity_) return false;
    return std::equal(values_.begin(), values_.begin() + arity_,
                      other.values_.begin());
  }
  bool operator!=(const Tuple& other) const { return !(*this == other); }

  bool operator<(const Tuple& other) const {
    uint32_t n = std::min(arity_, other.arity_);
    for (uint32_t i = 0; i < n; ++i) {
      if (values_[i] != other.values_[i]) return values_[i] < other.values_[i];
    }
    return arity_ < other.arity_;
  }

  uint64_t Hash() const {
    uint64_t h = 0x2545f4914f6cdd1dULL ^ arity_;
    for (uint32_t i = 0; i < arity_; ++i) {
      h = HashCombine(h, static_cast<uint64_t>(values_[i]));
    }
    return h;
  }

  /// "(v0, v1, ...)" — for debugging and test failure messages.
  std::string ToString() const;

 private:
  uint32_t arity_;
  std::array<Value, kMaxTupleArity> values_;
};

struct TupleHash {
  size_t operator()(const Tuple& t) const { return static_cast<size_t>(t.Hash()); }
};

}  // namespace mcm
