// Differential fuzz of the flat relation core against a std::set<Tuple>
// model: random Insert / Contains / Probe / Scan on arities 1-4 and every
// column mask, id-range (seminaive delta) probes, the borrow ->
// materialize path, and the snapshot rule — a Probe or Scan view yields
// exactly the ids present when it was made, in ascending order, however
// the relation is grown, rehashed or re-indexed while the view is open.
//
// Seeds are fixed per iteration; MCM_FUZZ_SEED offsets them and
// MCM_FUZZ_ITERS scales the iteration count (storage/fuzz_util.h).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "storage/fuzz_util.h"
#include "storage/relation.h"
#include "util/rng.h"

namespace mcm {
namespace {

/// The model: insertion order (tuple ids) plus the set.
struct Model {
  uint32_t arity;
  std::vector<Tuple> order;
  std::set<Tuple> set;

  bool Insert(const Tuple& t) {
    if (!set.insert(t).second) return false;
    order.push_back(t);
    return true;
  }

  /// Ids in [lo, min(hi, size)) whose `mask` columns equal `key`.
  std::vector<uint32_t> Matches(ColumnMask mask, const Value* key,
                                IdRange range) const {
    std::vector<uint32_t> out;
    const uint32_t hi =
        std::min<uint32_t>(range.hi, static_cast<uint32_t>(order.size()));
    for (uint32_t id = range.lo; id < hi; ++id) {
      bool match = true;
      uint32_t k = 0;
      for (uint32_t c = 0; c < arity; ++c) {
        if (((mask >> c) & 1) == 0) continue;
        if (order[id][c] != key[k++]) match = false;
      }
      if (match) out.push_back(id);
    }
    return out;
  }
};

/// Values from a small domain so duplicates and shared keys are common,
/// with the occasional extreme value.
Value RandomValue(Rng* rng) {
  if (rng->NextBool(0.02)) return rng->NextBool() ? INT64_MIN : INT64_MAX;
  return rng->NextInRange(-2, 5);
}

Tuple RandomTuple(Rng* rng, uint32_t arity) {
  Tuple t(arity);
  for (uint32_t c = 0; c < arity; ++c) t[c] = RandomValue(rng);
  return t;
}

/// A key for `mask`: usually taken from an existing tuple so probes hit.
std::vector<Value> RandomKey(Rng* rng, const Model& m, ColumnMask mask) {
  std::vector<Value> key;
  const bool from_tuple = !m.order.empty() && rng->NextBool(0.8);
  const Tuple src = from_tuple ? m.order[rng->NextIndex(m.order.size())]
                               : RandomTuple(rng, m.arity);
  for (uint32_t c = 0; c < m.arity; ++c) {
    if ((mask >> c) & 1) key.push_back(src[c]);
  }
  return key;
}

IdRange RandomRange(Rng* rng, size_t size) {
  if (rng->NextBool(0.5)) return IdRange{};
  const uint32_t n = static_cast<uint32_t>(size) + 2;
  uint32_t lo = static_cast<uint32_t>(rng->NextBounded(n));
  uint32_t hi = static_cast<uint32_t>(rng->NextBounded(n));
  if (lo > hi) std::swap(lo, hi);
  return IdRange{lo, hi};
}

std::vector<uint32_t> Collect(const Postings& p) {
  return std::vector<uint32_t>(p.begin(), p.end());
}

uint64_t Seed(uint64_t iter) {
  return 0x5eed0000ULL + iter + fuzz::FuzzSeedOffset();
}

class RelationFuzz : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RelationFuzz, RandomOperationsMatchTheSetModel) {
  const uint32_t arity = GetParam();
  const int iters = fuzz::FuzzIters(20);
  for (int iter = 0; iter < iters; ++iter) {
    SCOPED_TRACE("arity " + std::to_string(arity) + " iteration " +
                 std::to_string(iter));
    Rng rng(Seed(static_cast<uint64_t>(iter) * 7 + arity));
    AccessStats stats;
    Relation rel("r", arity, &stats);
    Model m{arity, {}, {}};
    for (int op = 0; op < 600; ++op) {
      const uint64_t kind = rng.NextBounded(100);
      if (kind < 45) {
        Tuple t = RandomTuple(&rng, arity);
        ASSERT_EQ(rel.Insert(t), m.Insert(t)) << t.ToString();
      } else if (kind < 60) {
        Tuple t = rng.NextBool() && !m.order.empty()
                      ? m.order[rng.NextIndex(m.order.size())]
                      : RandomTuple(&rng, arity);
        const IdRange range = RandomRange(&rng, m.order.size());
        stats.Reset();
        const bool found = rel.ContainsRow(t.data(), range);
        const std::vector<Value> key(t.data(), t.data() + arity);
        const bool want =
            !m.Matches((ColumnMask{1} << arity) - 1, key.data(), range)
                 .empty();
        ASSERT_EQ(found, want) << t.ToString();
        ASSERT_EQ(stats.tuples_read, want ? 1u : 0u);
        if (range.lo == 0 && range.hi == UINT32_MAX) {
          ASSERT_EQ(rel.Contains(t), want);
        }
      } else if (kind < 90) {
        const ColumnMask mask =
            static_cast<ColumnMask>(rng.NextBounded(1u << arity));
        const std::vector<Value> key = RandomKey(&rng, m, mask);
        const IdRange range = RandomRange(&rng, m.order.size());
        stats.Reset();
        const std::vector<uint32_t> got =
            Collect(rel.Probe(mask, key.data(), range));
        ASSERT_EQ(got, m.Matches(mask, key.data(), range))
            << "mask " << mask;
        ASSERT_EQ(stats.tuples_read, got.size());
        ASSERT_EQ(stats.probes, 1u);
      } else if (kind < 95) {
        // The column-list overload, with the key columns in random order.
        IndexKey cols;
        for (uint32_t c = 0; c < arity; ++c) {
          if (rng.NextBool()) cols.push_back(c);
        }
        rng.Shuffle(&cols);
        const ColumnMask mask = MaskOf(cols);
        const std::vector<Value> sorted_key = RandomKey(&rng, m, mask);
        std::vector<Value> key;
        for (uint32_t c : cols) {
          uint32_t rank = 0;
          for (uint32_t d = 0; d < c; ++d) rank += (mask >> d) & 1;
          key.push_back(sorted_key[rank]);
        }
        ASSERT_EQ(Collect(rel.Probe(cols, key)),
                  m.Matches(mask, sorted_key.data(), IdRange{}));
      } else if (kind < 99) {
        const IdRange range = RandomRange(&rng, m.order.size());
        stats.Reset();
        const TupleSpan span = rel.Scan(range);
        const uint32_t hi = std::min<uint32_t>(
            range.hi, static_cast<uint32_t>(m.order.size()));
        const uint32_t lo = std::min(range.lo, hi);
        ASSERT_EQ(span.size(), hi - lo);
        ASSERT_EQ(stats.tuples_read, hi - lo);
        std::vector<Tuple> want(m.order.begin() + lo, m.order.begin() + hi);
        ASSERT_EQ(span.ToVector(), want);
      } else {
        rel.Clear();
        m = Model{arity, {}, {}};
      }
      ASSERT_EQ(rel.size(), m.order.size());
    }
    ASSERT_EQ(rel.TuplesUnchecked().ToVector(), m.order);
  }
}

INSTANTIATE_TEST_SUITE_P(Arities, RelationFuzz, ::testing::Values(1, 2, 3, 4));

TEST(RelationFuzzSnapshot, OpenViewsIgnoreLaterInsertsRehashesAndIndexBuilds) {
  const int iters = fuzz::FuzzIters(20);
  for (int iter = 0; iter < iters; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    Rng rng(Seed(1000 + static_cast<uint64_t>(iter)));
    const uint32_t arity = 2 + static_cast<uint32_t>(rng.NextBounded(3));
    Relation rel("r", arity);
    Model m{arity, {}, {}};
    for (int i = 0; i < 40; ++i) {
      Tuple t = RandomTuple(&rng, arity);
      ASSERT_EQ(rel.Insert(t), m.Insert(t));
    }
    // Open views on one mask and a scan, then grow the relation far past
    // every table's capacity, building the other masks' indexes midway.
    const ColumnMask mask =
        static_cast<ColumnMask>(1 + rng.NextBounded((1u << arity) - 1));
    const std::vector<Value> key = RandomKey(&rng, m, mask);
    const Postings view = rel.Probe(mask, key.data(), IdRange{});
    const std::vector<uint32_t> want = m.Matches(mask, key.data(), IdRange{});
    const TupleSpan scan = rel.Scan();
    const std::vector<Tuple> scan_want = m.order;
    for (int i = 0; i < 2000; ++i) {
      Tuple t = RandomTuple(&rng, arity);
      // Bias towards the viewed key so its postings segment moves.
      if (rng.NextBool(0.3)) {
        uint32_t k = 0;
        for (uint32_t c = 0; c < arity; ++c) {
          if ((mask >> c) & 1) t[c] = key[k++];
        }
      }
      t[arity - 1] = static_cast<Value>(i);  // mostly novel tuples
      ASSERT_EQ(rel.Insert(t), m.Insert(t));
      if (i % 500 == 250) {
        const ColumnMask other =
            static_cast<ColumnMask>(rng.NextBounded(1u << arity));
        const std::vector<Value> k2 = RandomKey(&rng, m, other);
        ASSERT_EQ(Collect(rel.Probe(other, k2.data(), IdRange{})),
                  m.Matches(other, k2.data(), IdRange{}));
      }
    }
    EXPECT_EQ(Collect(view), want);
    EXPECT_EQ(scan.ToVector(), scan_want);
    // A fresh probe sees everything.
    EXPECT_EQ(Collect(rel.Probe(mask, key.data(), IdRange{})),
              m.Matches(mask, key.data(), IdRange{}));
  }
}

TEST(RelationFuzzSnapshot, ProbingARelationWhileInsertingIntoIt) {
  // Same-generation binds l and r to one relation, and a recursive rule
  // inserts into the relation it is probing: iterate a view while
  // inserting tuples that share its key and lazily building another mask.
  const int iters = fuzz::FuzzIters(20);
  for (int iter = 0; iter < iters; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    Rng rng(Seed(2000 + static_cast<uint64_t>(iter)));
    Relation rel("sg", 2);
    Model m{2, {}, {}};
    for (int i = 0; i < 30; ++i) {
      Tuple t{rng.NextInRange(0, 3), rng.NextInRange(0, 50)};
      ASSERT_EQ(rel.Insert(t), m.Insert(t));
    }
    const Value k = rng.NextInRange(0, 3);
    const uint32_t before = static_cast<uint32_t>(m.order.size());
    const std::vector<uint32_t> want = m.Matches(0b01, &k, IdRange{});
    std::vector<uint32_t> got;
    bool built_other = false;
    for (uint32_t id : rel.Probe(0b01, &k, IdRange{})) {
      got.push_back(id);
      // The row is read before the inserts below may move the arena.
      const Value second = rel.RowUnchecked(id)[1];
      for (int j = 0; j < 20; ++j) {
        Tuple t{k, second * 100 + j + 1000};
        ASSERT_EQ(rel.Insert(t), m.Insert(t));
      }
      if (!built_other) {
        const Value v = second;
        ASSERT_EQ(Collect(rel.Probe(0b10, &v, IdRange{})),
                  m.Matches(0b10, &v, IdRange{}));
        built_other = true;
      }
    }
    EXPECT_EQ(got, want);
    // The delta range of the tuples appended while iterating.
    const IdRange delta{before, static_cast<uint32_t>(m.order.size())};
    EXPECT_EQ(Collect(rel.Probe(0b01, &k, delta)), m.Matches(0b01, &k, delta));
  }
}

TEST(RelationFuzzBorrow, BorrowProbeMaterializeProbe) {
  const int iters = fuzz::FuzzIters(20);
  for (int iter = 0; iter < iters; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    Rng rng(Seed(3000 + static_cast<uint64_t>(iter)));
    const uint32_t arity = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    auto base = std::make_shared<Relation>("e", arity);
    Model m{arity, {}, {}};
    for (int i = 0; i < 100; ++i) {
      Tuple t = RandomTuple(&rng, arity);
      ASSERT_EQ(base->Insert(t), m.Insert(t));
    }
    const std::vector<Tuple> base_tuples = m.order;

    Relation b = Relation::Borrow(base, nullptr);
    const ColumnMask mask =
        static_cast<ColumnMask>(rng.NextBounded(1u << arity));
    const std::vector<Value> key = RandomKey(&rng, m, mask);
    const Postings before = b.Probe(mask, key.data(), IdRange{});
    const std::vector<uint32_t> want = m.Matches(mask, key.data(), IdRange{});
    ASSERT_EQ(Collect(before), want);
    // Re-inserting base tuples never materializes.
    ASSERT_FALSE(b.Insert(m.order[rng.NextIndex(m.order.size())]));
    ASSERT_TRUE(b.borrowed());

    // Novel inserts materialize (copy-on-write) and extend the index.
    for (int i = 0; i < 50; ++i) {
      Tuple t = RandomTuple(&rng, arity);
      t[0] = 1000 + i;
      ASSERT_EQ(b.Insert(t), m.Insert(t));
    }
    ASSERT_FALSE(b.borrowed());
    EXPECT_EQ(Collect(before), want);  // the open view is unchanged
    EXPECT_EQ(Collect(b.Probe(mask, key.data(), IdRange{})),
              m.Matches(mask, key.data(), IdRange{}));
    for (const Tuple& t : m.order) ASSERT_TRUE(b.Contains(t));
    // The frozen base never sees the borrower's writes.
    EXPECT_EQ(base->TuplesUnchecked().ToVector(), base_tuples);
  }
}

}  // namespace
}  // namespace mcm
