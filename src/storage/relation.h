// Instrumented in-memory relation over a flat storage core.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "storage/access_stats.h"
#include "storage/tuple.h"
#include "util/lifetime_annotations.h"
#include "util/status.h"

namespace mcm {

class Relation;

/// Set of column positions an index is keyed on (in key order).
using IndexKey = std::vector<uint32_t>;

/// Set of column positions as a bitmask: bit c set means column c is a key
/// column. Key values for a mask are always given in ascending column order.
using ColumnMask = uint32_t;

/// The mask of the columns in `cols`.
ColumnMask MaskOf(const IndexKey& cols);

/// Half-open range [lo, hi) of tuple ids. The default range is every tuple
/// present at the time of the access; a seminaive delta is the range of
/// ids appended during the previous round.
struct IdRange {
  uint32_t lo = 0;
  uint32_t hi = UINT32_MAX;
};

/// \brief Ids matching an index probe, in ascending (insertion) order.
///
/// The length is fixed when the probe runs: later inserts into the same
/// relation, rehashes, and lazy builds of other indexes never change what
/// an open view yields (postings segments are append-only and are copied,
/// never moved, when they outgrow their slot). Valid until the relation is
/// cleared or destroyed.
class MCM_VIEW_OF(uint32_t) Postings {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = uint32_t;
    iterator(const std::vector<uint32_t>* pool, size_t pos)
        : pool_(pool), pos_(pos) {}
    uint32_t operator*() const { return (*pool_)[pos_]; }
    iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator==(const iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const iterator& o) const { return pos_ != o.pos_; }

   private:
    const std::vector<uint32_t>* pool_;
    size_t pos_;
  };
  using const_iterator = iterator;

  Postings() = default;
  Postings(const std::vector<uint32_t>* pool, uint32_t off, uint32_t len)
      : pool_(pool), off_(off), len_(len) {}

  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  uint32_t operator[](size_t i) const { return (*pool_)[off_ + i]; }
  iterator begin() const { return iterator(pool_, off_); }
  iterator end() const { return iterator(pool_, off_ + len_); }

 private:
  const std::vector<uint32_t>* pool_ = nullptr;
  uint32_t off_ = 0;
  uint32_t len_ = 0;
};

/// \brief The tuples with ids in a fixed range of one relation, in
/// insertion order; yields Tuple values. Like Postings, the range is fixed
/// when the view is made, so inserting into the relation while iterating
/// yields exactly the tuples present at that time. Valid until the
/// relation is cleared or destroyed.
class MCM_VIEW_OF(Tuple) TupleSpan {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Tuple;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Tuple;
    iterator(const Relation* rel, uint32_t id) : rel_(rel), id_(id) {}
    Tuple operator*() const;
    iterator& operator++() {
      ++id_;
      return *this;
    }
    bool operator==(const iterator& o) const { return id_ == o.id_; }
    bool operator!=(const iterator& o) const { return id_ != o.id_; }

   private:
    const Relation* rel_;
    uint32_t id_;
  };
  using const_iterator = iterator;

  TupleSpan(const Relation* rel, uint32_t lo, uint32_t hi)
      : rel_(rel), lo_(lo), hi_(hi) {}

  size_t size() const { return hi_ - lo_; }
  bool empty() const { return hi_ == lo_; }
  /// Ids of the first and one-past-the-last tuple in the span.
  uint32_t first_id() const { return lo_; }
  uint32_t end_id() const { return hi_; }
  Tuple operator[](size_t i) const;
  /// Start of the packed values of the span's first tuple: the relation's
  /// own arena, or the borrowed base's.
  const Value* data() const;
  iterator begin() const { return iterator(rel_, lo_); }
  iterator end() const { return iterator(rel_, hi_); }
  std::vector<Tuple> ToVector() const;

  friend bool operator==(const TupleSpan& a, const TupleSpan& b);

 private:
  const Relation* rel_;
  uint32_t lo_;
  uint32_t hi_;
};

/// \brief A deduplicated relation (set semantics) over a flat storage core.
///
/// Storage model:
///  * one arity-packed `std::vector<Value>` arena holds the tuples in
///    insertion order (tuple id i occupies values [i*arity, (i+1)*arity));
///    tuples are only ever appended, which gives fixpoint engines stable
///    snapshot and delta iteration: a delta is an id range;
///  * duplicate elimination is an open-addressing table of tuple ids;
///  * secondary indexes are keyed by a ColumnMask, built on first probe and
///    maintained incrementally on insert. Each is an open-addressing table
///    from key to a postings segment in one shared id pool, so no key owns
///    a heap allocation.
/// Nothing is allocated for an empty relation. Probing, scanning,
/// membership tests and duplicate inserts allocate nothing on a relation
/// whose indexes are built.
///
/// Every access that yields tuples reports to the attached AccessStats, which
/// implements the paper's cost unit (tuple retrievals).
///
/// Borrow mode (zero-copy snapshots): Borrow() builds a relation that
/// *shares* an immutable base relation's tuple storage instead of copying
/// it. The borrower behaves exactly like a copy — same tuples, same ids,
/// its own lazy indexes and its own AccessStats — but costs O(1) to
/// create. The first mutation (Insert of a new tuple) materializes the
/// borrower into an ordinary owned relation (copy-on-write), so semantics
/// are indistinguishable from an eager copy. The base relation is only
/// ever read through its uninstrumented tuple storage and dedup table —
/// its lazy indexes and stats are never touched — so any number of
/// borrowers on any number of threads may share one frozen base (the
/// EdbVersion contract, storage/versioned_store.h). The borrower itself is
/// single-owner, like every Relation.
class MCM_OWNER(Tuple) Relation {
 public:
  Relation(std::string name, uint32_t arity, AccessStats* stats = nullptr);
  ~Relation();

  /// Zero-copy read-only snapshot of `base` (shared, kept alive by the
  /// returned relation; must itself be frozen — for borrowers of borrowers
  /// the chain is collapsed to the root owner). `stats` receives this
  /// borrower's instrumentation, independent of the base's.
  static Relation Borrow(std::shared_ptr<const Relation> base,
                         AccessStats* stats);

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;
  Relation(Relation&&) noexcept;
  Relation& operator=(Relation&&) noexcept;

  const std::string& name() const MCM_LIFETIME_BOUND { return name_; }
  uint32_t arity() const { return arity_; }
  size_t size() const { return owner().count_; }
  bool empty() const { return size() == 0; }

  /// True while this relation shares a base's tuple storage (no mutation
  /// has materialized it yet).
  bool borrowed() const { return base_ != nullptr; }

  /// Redirect instrumentation to `stats` (may be nullptr to disable).
  void set_stats(AccessStats* stats) { stats_ = stats; }
  AccessStats* stats() const { return stats_; }

  /// Insert `t`; returns true iff the tuple was new. Asserts on arity
  /// mismatch in debug builds. On a borrowed relation the first insert
  /// materializes a private copy of the shared storage (copy-on-write).
  bool Insert(const Tuple& t);

  /// Insert the tuple whose arity() values start at `row`.
  bool InsertRow(const Value* row);

  /// Convenience for binary relations.
  bool Insert2(Value a, Value b) {
    const Value row[2] = {a, b};
    return InsertRow(row);
  }

  /// Membership test (counts as one probe + one tuple read if found).
  bool Contains(const Tuple& t) const;

  /// Membership of the tuple at `row` among the ids in `range` (counts as
  /// one probe + one tuple read if found).
  bool ContainsRow(const Value* row, IdRange range = {}) const;

  /// Tuple by dense id in [0, size()). Counts one tuple read.
  Tuple Get(size_t id) const;

  /// Tuple by id without instrumentation — for engine-internal bookkeeping
  /// that the paper's cost model does not charge for.
  Tuple PeekUnchecked(size_t id) const {
    return Tuple(RowUnchecked(id), arity_);
  }

  /// The packed values of tuple `id`, uninstrumented. Invalidated by the
  /// next insert into this relation.
  const Value* RowUnchecked(size_t id) const MCM_LIFETIME_BOUND {
    return owner().values_.data() + id * arity_;
  }

  /// All tuples, uninstrumented view (used by printers/tests).
  TupleSpan TuplesUnchecked() const MCM_LIFETIME_BOUND {
    return TupleSpan(this, 0, static_cast<uint32_t>(size()));
  }

  /// Full scan: a view of all tuples, charging one read per tuple.
  TupleSpan Scan() const MCM_LIFETIME_BOUND { return Scan(IdRange{}); }

  /// Scan of the tuples with ids in `range`, charging one read per tuple.
  TupleSpan Scan(IdRange range) const MCM_LIFETIME_BOUND;

  /// Probe the index on `key_cols` with `key_vals` (paired by position);
  /// returns the matching tuple ids, charging one read per match. Builds
  /// the index on first use.
  Postings Probe(const IndexKey& key_cols,
                 const std::vector<Value>& key_vals) const MCM_LIFETIME_BOUND;

  /// Probe the single-column index on `col` with `key`.
  Postings ProbeColumn(uint32_t col, Value key) const MCM_LIFETIME_BOUND {
    return Probe(ColumnMask{1} << col, &key, IdRange{});
  }

  /// Probe the index on `mask` with `key` (one value per mask column, in
  /// ascending column order); returns the matching ids within `range`,
  /// charging one read per returned id. Builds the index on first use.
  Postings Probe(ColumnMask mask, const Value* key, IdRange range) const
      MCM_LIFETIME_BOUND;

  /// Remove everything (indexes included; a borrow is released, not
  /// materialized). Views of this relation must not be used afterwards.
  void Clear();

  /// Distinct values in column `col` (uninstrumented; used by statistics).
  std::vector<Value> DistinctColumn(uint32_t col) const;

  /// Bytes held by this relation's storage, from the real capacities of
  /// the tuple arena, the dedup table, and each index's table and postings
  /// pool. A borrower is charged for the base storage it reads, as if it
  /// owned it.
  size_t ApproxBytes() const;

  std::string ToString(size_t limit = 32) const;

 private:
  /// Open-addressing slot of the dedup table; `id == kNoId` marks it empty.
  struct IdSlot {
    uint32_t hash;
    uint32_t id;
  };
  struct Index;

  static constexpr uint32_t kNoId = UINT32_MAX;

  /// The relation whose storage this one reads: the borrowed base, or
  /// itself. Everything below funnels tuple and dedup reads through here.
  const Relation& owner() const { return base_ != nullptr ? *base_ : *this; }

  /// Id of the tuple at `row` (hash `hash`) in this relation's own
  /// storage, or kNoId.
  uint32_t FindId(const Value* row, uint32_t hash) const;
  /// Dedup slot holding the tuple at `row`, or the empty slot where it
  /// would go. The table must not be empty.
  size_t DedupSlot(const Value* row, uint32_t hash) const;

  /// Copy-on-write detach: copy the base's tuples and dedup table into this
  /// relation and drop the borrow. Tuple ids are unchanged, so indexes
  /// already built over the shared storage stay valid.
  void Materialize();

  void GrowDedup();
  Index& GetOrBuildIndex(ColumnMask mask) const;

  void CountRead(uint64_t n) const {
    if (stats_ != nullptr) stats_->tuples_read += n;
  }

  std::string name_;
  uint32_t arity_;
  AccessStats* stats_;
  uint32_t count_ = 0;
  std::vector<Value> values_;
  std::vector<IdSlot> dedup_;
  /// Borrow mode: the frozen relation whose storage this one shares (null
  /// once owned/materialized). The shared_ptr keeps the storage alive even
  /// if the pin that produced it is released early.
  std::shared_ptr<const Relation> base_;
  // One per probed mask; mutable because indexes are built lazily from
  // const probes. Held by pointer so an index never moves while views of
  // its postings are open.
  mutable std::vector<std::unique_ptr<Index>> indexes_;
};

inline Tuple TupleSpan::iterator::operator*() const {
  return rel_->PeekUnchecked(id_);
}

inline Tuple TupleSpan::operator[](size_t i) const {
  return rel_->PeekUnchecked(lo_ + i);
}

inline const Value* TupleSpan::data() const {
  return rel_->RowUnchecked(lo_);
}

}  // namespace mcm
