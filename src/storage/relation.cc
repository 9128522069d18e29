#include "storage/relation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <unordered_set>
#include <utility>

namespace mcm {

namespace {

/// Hash of `n` packed values. The low bits place a slot in an
/// open-addressing table and all 32 bits are kept in the slot, so tables
/// rehash without touching the tuples.
uint32_t HashValues(const Value* v, uint32_t n) {
  uint64_t h = 0x2545f4914f6cdd1dULL ^ n;
  for (uint32_t i = 0; i < n; ++i) {
    h = (std::rotl(h, 23) ^ static_cast<uint64_t>(v[i])) *
        0x9e3779b97f4a7c15ULL;
  }
  h = HashMix64(h);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

bool ValuesEqual(const Value* a, const Value* b, uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

constexpr size_t kMinTableSlots = 8;

/// Tables grow past 3/4 full.
bool OverLoaded(size_t used, size_t slots) { return used * 4 > slots * 3; }

}  // namespace

ColumnMask MaskOf(const IndexKey& cols) {
  ColumnMask mask = 0;
  for (uint32_t c : cols) {
    assert(c < kMaxTupleArity);
    mask |= ColumnMask{1} << c;
  }
  return mask;
}

/// One secondary index: key (the mask's columns of a tuple) -> ids of the
/// tuples with that key, ascending. Each key's ids are a segment of `pool`
/// with capacity bit_ceil(len); a full segment grows in place when it ends
/// the pool, and is otherwise copied to the end at twice the size. The old
/// copy is left as it was, so a Postings view over it stays correct.
struct Relation::Index {
  struct KeySlot {
    uint32_t hash;
    uint32_t off;  ///< segment start in `pool`
    uint32_t len;  ///< 0 marks an empty slot
  };

  ColumnMask mask = 0;
  uint32_t ncols = 0;
  uint32_t cols[kMaxTupleArity] = {};
  uint32_t arity = 0;
  uint32_t keys = 0;
  std::vector<KeySlot> table;
  std::vector<uint32_t> pool;

  Index(ColumnMask m, uint32_t a) : mask(m), arity(a) {
    for (uint32_t c = 0; c < kMaxTupleArity; ++c) {
      if ((m >> c) & 1) cols[ncols++] = c;
    }
  }

  bool KeyMatches(const Value* arena, uint32_t id, const Value* key) const {
    const Value* row = arena + static_cast<size_t>(id) * arity;
    for (uint32_t i = 0; i < ncols; ++i) {
      if (row[cols[i]] != key[i]) return false;
    }
    return true;
  }

  /// Slot holding `key`, or the empty slot where it would go.
  size_t Slot(const Value* arena, const Value* key, uint32_t hash) const {
    const size_t m = table.size() - 1;
    size_t i = hash & m;
    while (table[i].len != 0) {
      const KeySlot& s = table[i];
      if (s.hash == hash && KeyMatches(arena, pool[s.off], key)) return i;
      i = (i + 1) & m;
    }
    return i;
  }

  const KeySlot* Find(const Value* arena, const Value* key,
                      uint32_t hash) const {
    if (table.empty()) return nullptr;
    const KeySlot& s = table[Slot(arena, key, hash)];
    return s.len == 0 ? nullptr : &s;
  }

  void Grow() {
    std::vector<KeySlot> old = std::move(table);
    table.assign(std::max(kMinTableSlots, old.size() * 2), KeySlot{0, 0, 0});
    const size_t m = table.size() - 1;
    for (const KeySlot& s : old) {
      if (s.len == 0) continue;
      size_t i = s.hash & m;
      while (table[i].len != 0) i = (i + 1) & m;
      table[i] = s;
    }
  }

  /// Add tuple `id` (values at `row`, already in `arena`).
  void Add(const Value* arena, const Value* row, uint32_t id) {
    Value key[kMaxTupleArity];
    for (uint32_t i = 0; i < ncols; ++i) key[i] = row[cols[i]];
    const uint32_t hash = HashValues(key, ncols);
    if (table.empty()) Grow();
    size_t i = Slot(arena, key, hash);
    if (table[i].len == 0) {
      if (OverLoaded(keys + 1, table.size())) {
        Grow();
        i = Slot(arena, key, hash);
      }
      ++keys;
      table[i] = KeySlot{hash, static_cast<uint32_t>(pool.size()), 1};
      pool.push_back(id);
      return;
    }
    KeySlot& s = table[i];
    if (std::has_single_bit(s.len)) {  // segment full
      if (s.off + s.len == pool.size()) {
        pool.resize(pool.size() + s.len);
      } else {
        const size_t off = pool.size();
        pool.resize(off + 2 * static_cast<size_t>(s.len));
        std::copy(pool.begin() + s.off, pool.begin() + s.off + s.len,
                  pool.begin() + static_cast<ptrdiff_t>(off));
        s.off = static_cast<uint32_t>(off);
      }
    }
    pool[s.off + s.len] = id;
    ++s.len;
  }

  size_t Bytes() const {
    return sizeof(Index) + table.capacity() * sizeof(KeySlot) +
           pool.capacity() * sizeof(uint32_t);
  }
};

Relation::Relation(std::string name, uint32_t arity, AccessStats* stats)
    : name_(std::move(name)), arity_(arity), stats_(stats) {
  assert(arity <= kMaxTupleArity);
}

Relation::~Relation() = default;
Relation::Relation(Relation&&) noexcept = default;
Relation& Relation::operator=(Relation&&) noexcept = default;

Relation Relation::Borrow(std::shared_ptr<const Relation> base,
                          AccessStats* stats) {
  assert(base != nullptr);
  // Collapse borrow-of-borrow to the root owner so the chain never grows
  // and owner() stays one hop.
  while (base->base_ != nullptr) base = base->base_;
  Relation r(base->name_, base->arity_, stats);
  r.base_ = std::move(base);
  return r;
}

void Relation::Materialize() {
  assert(base_ != nullptr);
  // Same tuples, same ids: indexes built over the shared storage remain
  // valid, and the base's dedup table is exactly the one a copy would have
  // rebuilt tuple by tuple.
  count_ = base_->count_;
  values_ = base_->values_;
  dedup_ = base_->dedup_;
  base_.reset();
}

size_t Relation::DedupSlot(const Value* row, uint32_t hash) const {
  const size_t m = dedup_.size() - 1;
  size_t i = hash & m;
  for (; dedup_[i].id != kNoId; i = (i + 1) & m) {
    const IdSlot& s = dedup_[i];
    if (s.hash == hash &&
        ValuesEqual(values_.data() + static_cast<size_t>(s.id) * arity_, row,
                    arity_)) {
      break;
    }
  }
  return i;
}

uint32_t Relation::FindId(const Value* row, uint32_t hash) const {
  if (dedup_.empty()) return kNoId;
  return dedup_[DedupSlot(row, hash)].id;
}

void Relation::GrowDedup() {
  std::vector<IdSlot> old = std::move(dedup_);
  dedup_.assign(std::max(kMinTableSlots, old.size() * 2), IdSlot{0, kNoId});
  const size_t m = dedup_.size() - 1;
  for (const IdSlot& s : old) {
    if (s.id == kNoId) continue;
    size_t i = s.hash & m;
    while (dedup_[i].id != kNoId) i = (i + 1) & m;
    dedup_[i] = s;
  }
}

bool Relation::Insert(const Tuple& t) {
  assert(t.arity() == arity_ && "tuple arity mismatch");
  return InsertRow(t.data());
}

bool Relation::InsertRow(const Value* row) {
  if (stats_ != nullptr) stats_->insert_attempts++;
  const uint32_t hash = HashValues(row, arity_);
  if (base_ != nullptr) {
    // Cheap pre-check against the frozen base before paying for the
    // copy-on-write: re-inserting an existing tuple (the common no-op
    // during fixpoint rounds) must not materialize.
    if (base_->FindId(row, hash) != kNoId) return false;
    Materialize();
  }
  if (dedup_.empty()) GrowDedup();
  size_t i = DedupSlot(row, hash);
  if (dedup_[i].id != kNoId) return false;
  if (OverLoaded(count_ + 1, dedup_.size())) {
    GrowDedup();
    i = DedupSlot(row, hash);
  }
  const uint32_t id = count_++;
  dedup_[i] = IdSlot{hash, id};
  values_.insert(values_.end(), row, row + arity_);
  if (stats_ != nullptr) stats_->tuples_inserted++;
  // Maintain existing indexes incrementally (relations only ever grow
  // during fixpoint computation, so indexes never need rebuilds).
  const Value* stored = values_.data() + static_cast<size_t>(id) * arity_;
  for (const auto& index : indexes_) index->Add(values_.data(), stored, id);
  return true;
}

bool Relation::Contains(const Tuple& t) const {
  assert(t.arity() == arity_ && "tuple arity mismatch");
  return ContainsRow(t.data());
}

bool Relation::ContainsRow(const Value* row, IdRange range) const {
  if (stats_ != nullptr) stats_->probes++;
  // A borrower reads the shared base's dedup table: frozen, plain
  // immutable data, safe to read from any number of borrowers.
  const uint32_t id = owner().FindId(row, HashValues(row, arity_));
  const bool found = id != kNoId && id >= range.lo && id < range.hi;
  if (found) CountRead(1);
  return found;
}

Tuple Relation::Get(size_t id) const {
  assert(id < size());
  CountRead(1);
  return PeekUnchecked(id);
}

TupleSpan Relation::Scan(IdRange range) const {
  const uint32_t hi = std::min<uint32_t>(range.hi, owner().count_);
  const uint32_t lo = std::min(range.lo, hi);
  if (stats_ != nullptr) stats_->scans++;
  CountRead(hi - lo);
  return TupleSpan(this, lo, hi);
}

Relation::Index& Relation::GetOrBuildIndex(ColumnMask mask) const {
  for (const auto& index : indexes_) {
    if (index->mask == mask) return *index;
  }
  indexes_.push_back(std::make_unique<Index>(mask, arity_));
  Index& index = *indexes_.back();
  const Relation& o = owner();
  for (uint32_t id = 0; id < o.count_; ++id) {
    index.Add(o.values_.data(), o.RowUnchecked(id), id);
  }
  return index;
}

Postings Relation::Probe(const IndexKey& key_cols,
                         const std::vector<Value>& key_vals) const {
  assert(key_cols.size() == key_vals.size());
  // Reorder the key into ascending column order, the mask's key order.
  const ColumnMask mask = MaskOf(key_cols);
  assert(static_cast<size_t>(std::popcount(mask)) == key_cols.size() &&
         "repeated key column");
  Value key[kMaxTupleArity];
  for (size_t i = 0; i < key_cols.size(); ++i) {
    key[std::popcount(mask & ((ColumnMask{1} << key_cols[i]) - 1))] =
        key_vals[i];
  }
  return Probe(mask, key, IdRange{});
}

Postings Relation::Probe(ColumnMask mask, const Value* key,
                         IdRange range) const {
  if (stats_ != nullptr) stats_->probes++;
  const Index& index = GetOrBuildIndex(mask);
  const Index::KeySlot* s = index.Find(
      owner().values_.data(), key, HashValues(key, index.ncols));
  if (s == nullptr) return Postings();
  const uint32_t* first = index.pool.data() + s->off;
  const uint32_t* last = first + s->len;
  if (range.lo > 0) first = std::lower_bound(first, last, range.lo);
  if (range.hi < owner().count_) {
    last = std::lower_bound(first, last, range.hi);
  }
  CountRead(static_cast<uint64_t>(last - first));
  return Postings(&index.pool,
                  static_cast<uint32_t>(first - index.pool.data()),
                  static_cast<uint32_t>(last - first));
}

void Relation::Clear() {
  base_.reset();
  count_ = 0;
  values_.clear();
  dedup_.clear();
  indexes_.clear();
}

std::vector<Value> Relation::DistinctColumn(uint32_t col) const {
  std::unordered_set<Value> seen;
  std::vector<Value> out;
  for (size_t id = 0; id < size(); ++id) {
    const Value v = RowUnchecked(id)[col];
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

size_t Relation::ApproxBytes() const {
  const Relation& o = owner();
  size_t bytes = o.values_.capacity() * sizeof(Value) +
                 o.dedup_.capacity() * sizeof(IdSlot) +
                 indexes_.capacity() * sizeof(indexes_[0]);
  for (const auto& index : indexes_) bytes += index->Bytes();
  return bytes;
}

std::string Relation::ToString(size_t limit) const {
  std::string out = name_ + "[" + std::to_string(arity_) + "] {";
  size_t shown = 0;
  for (const Tuple& t : TuplesUnchecked()) {
    if (shown >= limit) {
      out += " ...";
      break;
    }
    out += " " + t.ToString();
    ++shown;
  }
  out += " } (" + std::to_string(size()) + " tuples)";
  return out;
}

std::vector<Tuple> TupleSpan::ToVector() const {
  std::vector<Tuple> out;
  out.reserve(size());
  for (const Tuple& t : *this) out.push_back(t);
  return out;
}

bool operator==(const TupleSpan& a, const TupleSpan& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace mcm
