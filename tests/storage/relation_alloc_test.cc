// Allocation accounting of the flat relation core, measured by this
// binary's own operator new/delete:
//  * Relation::ApproxBytes (and the Database / EdbVersion sums built on
//    it) stays within 25% of the bytes the allocator actually handed out;
//  * the hot paths — Probe plus iterating its view, Contains, a duplicate
//    Insert, and Scan — allocate nothing on a warmed relation.
#include <malloc.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "storage/database.h"
#include "storage/relation.h"
#include "storage/versioned_store.h"

// --- counting allocator ----------------------------------------------------
//
// Counts, per thread and only while a Counter is open on that thread, the
// number of allocations and the usable bytes allocated and freed. Every
// non-aligned form is replaced so each allocation is freed by the matching
// replacement.

namespace {

thread_local bool t_counting = false;
thread_local int64_t t_allocs = 0;
thread_local int64_t t_allocated = 0;
thread_local int64_t t_freed = 0;

void* CountedAlloc(std::size_t n) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr && t_counting) {
    ++t_allocs;
    t_allocated += static_cast<int64_t>(malloc_usable_size(p));
  }
  return p;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  if (t_counting) t_freed += static_cast<int64_t>(malloc_usable_size(p));
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace mcm {
namespace {

/// Counts allocations on this thread between construction and Stop().
class Counter {
 public:
  Counter()
      : allocs_(t_allocs), allocated_(t_allocated), freed_(t_freed) {
    t_counting = true;
  }
  ~Counter() { Stop(); }
  void Stop() {
    if (!t_counting) return;
    t_counting = false;
    allocs_ = t_allocs - allocs_;
    allocated_ = t_allocated - allocated_;
    freed_ = t_freed - freed_;
  }
  int64_t allocs() const { return allocs_; }
  int64_t allocated() const { return allocated_; }
  int64_t net() const { return allocated_ - freed_; }

 private:
  int64_t allocs_;
  int64_t allocated_;
  int64_t freed_;
};

/// ApproxBytes within ±25% of what the allocator holds for the relation.
void ExpectNear(size_t approx, int64_t net) {
  ASSERT_GT(net, 0);
  const double ratio = static_cast<double>(approx) / static_cast<double>(net);
  EXPECT_GE(ratio, 0.75) << "approx " << approx << " vs allocated " << net;
  EXPECT_LE(ratio, 1.25) << "approx " << approx << " vs allocated " << net;
}

/// A binary relation shaped like an EDB graph: `n` arcs over n/4 nodes.
void Fill(Relation* rel, int n) {
  for (int i = 0; i < n; ++i) rel->Insert2(i / 4, (i * 7919) % (n / 4 + 1));
}

TEST(RelationApproxBytes, TracksTheAllocatorThroughGrowthAndIndexBuilds) {
  for (int n : {1000, 20000}) {
    SCOPED_TRACE(n);
    Relation rel("e", 2);
    Counter counter;
    Fill(&rel, n);
    counter.Stop();
    ExpectNear(rel.ApproxBytes(), counter.net());

    Counter with_indexes;
    const Value k = 3;
    (void)rel.Probe(0b01, &k, IdRange{});
    (void)rel.Probe(0b10, &k, IdRange{});
    const Value both[2] = {3, 3};
    (void)rel.Probe(0b11, both, IdRange{});
    with_indexes.Stop();
    ExpectNear(rel.ApproxBytes(), counter.net() + with_indexes.net());
  }
}

TEST(RelationApproxBytes, EmptyRelationHoldsNothing) {
  Counter counter;
  Relation rel("e", 3);
  const Value key[3] = {1, 2, 3};
  EXPECT_FALSE(rel.ContainsRow(key));
  EXPECT_TRUE(rel.Scan().empty());
  counter.Stop();
  EXPECT_EQ(rel.ApproxBytes(), 0u);
}

TEST(RelationApproxBytes, DatabaseAndVersionSumTheRelations) {
  Database db;
  Fill(db.GetOrCreateRelation("a", 2), 5000);
  Fill(db.GetOrCreateRelation("b", 2), 300);
  (void)db.Find("a")->ProbeColumn(0, 1);
  EXPECT_EQ(db.ApproxBytes(),
            db.Find("a")->ApproxBytes() + db.Find("b")->ApproxBytes());

  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  ASSERT_TRUE(store.BootstrapFromDatabase(db).ok());
  auto pin = store.Pin();
  EXPECT_EQ(pin->ApproxBytes(),
            pin->Find("a")->ApproxBytes() + pin->Find("b")->ApproxBytes());
  EXPECT_GT(pin->ApproxBytes(), 0u);
}

TEST(RelationApproxBytes, BorrowerIsChargedForTheBaseItReads) {
  auto base = std::make_shared<Relation>("e", 2);
  Fill(base.get(), 4000);
  Relation b = Relation::Borrow(base, nullptr);
  EXPECT_EQ(b.ApproxBytes(), base->ApproxBytes());
  Counter counter;
  (void)b.ProbeColumn(1, 5);
  counter.Stop();
  EXPECT_GT(b.ApproxBytes(), base->ApproxBytes());
  ExpectNear(b.ApproxBytes() - base->ApproxBytes(), counter.net());
}

TEST(RelationHotPath, WarmedRelationAccessesAllocateNothing) {
  AccessStats stats;
  Relation rel("e", 2, &stats);
  Fill(&rel, 5000);
  const IndexKey cols{0};
  const std::vector<Value> key_vals{7};
  // Warm: build the indexes the accesses below use.
  (void)rel.ProbeColumn(0, 7);
  (void)rel.ProbeColumn(1, 7);

  Counter counter;
  uint64_t sum = 0;
  const Value k = 7;
  for (uint32_t id : rel.Probe(0b01, &k, IdRange{})) sum += id;
  for (uint32_t id : rel.Probe(0b10, &k, IdRange{100, 4000})) sum += id;
  for (uint32_t id : rel.ProbeColumn(0, 9)) sum += rel.RowUnchecked(id)[1];
  for (uint32_t id : rel.Probe(cols, key_vals)) sum += id;
  const Value present[2] = {rel.RowUnchecked(10)[0], rel.RowUnchecked(10)[1]};
  const Value absent[2] = {-1, -1};
  EXPECT_TRUE(rel.ContainsRow(present));
  EXPECT_FALSE(rel.ContainsRow(absent));
  EXPECT_TRUE(rel.Contains(Tuple{present[0], present[1]}));
  EXPECT_FALSE(rel.InsertRow(present));  // duplicate
  EXPECT_FALSE(rel.Insert(Tuple{present[0], present[1]}));
  for (const Tuple& t : rel.Scan()) sum += static_cast<uint64_t>(t[0]);
  const TupleSpan delta = rel.Scan(IdRange{1000, 2000});
  for (uint32_t id = delta.first_id(); id < delta.end_id(); ++id) {
    sum += static_cast<uint64_t>(rel.RowUnchecked(id)[1]);
  }
  counter.Stop();
  EXPECT_GT(sum, 0u);
  EXPECT_EQ(counter.allocs(), 0);
  EXPECT_EQ(counter.allocated(), 0);
  EXPECT_GT(stats.tuples_read, 0u);
}

}  // namespace
}  // namespace mcm
