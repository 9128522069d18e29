#include "eval/rule_eval.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datalog/parser.h"

namespace mcm::eval {
namespace {

class RuleEvalTest : public ::testing::Test {
 protected:
  Relation* Rel(const std::string& name, uint32_t arity) {
    return db_.GetOrCreateRelation(name, arity);
  }

  Result<CompiledRule> Compile(const std::string& rule_src,
                               std::vector<size_t> order = {}) {
    auto rule = dl::ParseRule(rule_src);
    EXPECT_TRUE(rule.ok()) << rule.status().ToString();
    return CompiledRule::Compile(*rule, &db_, std::move(order));
  }

  std::vector<Tuple> Sorted(const Relation& r) {
    std::vector<Tuple> out = r.TuplesUnchecked().ToVector();
    std::sort(out.begin(), out.end());
    return out;
  }

  Database db_;
};

TEST_F(RuleEvalTest, SimpleProjection) {
  Relation* e = Rel("e", 2);
  e->Insert2(1, 2);
  e->Insert2(3, 4);
  auto cr = Compile("p(Y) :- e(X, Y).");
  ASSERT_TRUE(cr.ok());
  Relation out("p", 1);
  EXPECT_EQ(cr->Evaluate(cr->FullSources(db_), &out), 2u);
  EXPECT_EQ(Sorted(out), (std::vector<Tuple>{{2}, {4}}));
}

TEST_F(RuleEvalTest, JoinBindsThroughSharedVariable) {
  Relation* e = Rel("e", 2);
  e->Insert2(1, 2);
  e->Insert2(2, 3);
  e->Insert2(2, 4);
  auto cr = Compile("p(X, Z) :- e(X, Y), e(Y, Z).");
  ASSERT_TRUE(cr.ok());
  Relation out("p", 2);
  (void)cr->Evaluate(cr->FullSources(db_), &out);
  EXPECT_EQ(Sorted(out), (std::vector<Tuple>{{1, 3}, {1, 4}}));
}

TEST_F(RuleEvalTest, ConstantsActAsFilters) {
  Relation* e = Rel("e", 2);
  e->Insert2(1, 2);
  e->Insert2(3, 4);
  auto cr = Compile("p(Y) :- e(1, Y).");
  ASSERT_TRUE(cr.ok());
  Relation out("p", 1);
  (void)cr->Evaluate(cr->FullSources(db_), &out);
  EXPECT_EQ(Sorted(out), (std::vector<Tuple>{{2}}));
}

TEST_F(RuleEvalTest, SymbolConstantsInterned) {
  Relation* e = Rel("par", 2);
  Value ann = db_.symbols().Intern("ann");
  Value bob = db_.symbols().Intern("bob");
  e->Insert2(ann, bob);
  auto cr = Compile("p(Y) :- par(ann, Y).");
  ASSERT_TRUE(cr.ok());
  Relation out("p", 1);
  (void)cr->Evaluate(cr->FullSources(db_), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.PeekUnchecked(0)[0], bob);
}

TEST_F(RuleEvalTest, NegationGuard) {
  Relation* v = Rel("v", 1);
  Relation* bad = Rel("bad", 1);
  v->Insert(Tuple{1});
  v->Insert(Tuple{2});
  bad->Insert(Tuple{2});
  auto cr = Compile("ok(X) :- v(X), not bad(X).");
  ASSERT_TRUE(cr.ok());
  Relation out("ok", 1);
  (void)cr->Evaluate(cr->FullSources(db_), &out);
  EXPECT_EQ(Sorted(out), (std::vector<Tuple>{{1}}));
}

TEST_F(RuleEvalTest, NegationAgainstMissingRelationHolds) {
  Relation* v = Rel("v", 1);
  v->Insert(Tuple{1});
  auto cr = Compile("ok(X) :- v(X), not nothere(X).");
  ASSERT_TRUE(cr.ok());
  Relation out("ok", 1);
  (void)cr->Evaluate(cr->FullSources(db_), &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(RuleEvalTest, ComparisonGuard) {
  Relation* v = Rel("v", 2);
  v->Insert2(1, 5);
  v->Insert2(2, 1);
  auto cr = Compile("inc(X, Y) :- v(X, Y), X < Y.");
  ASSERT_TRUE(cr.ok());
  Relation out("inc", 2);
  (void)cr->Evaluate(cr->FullSources(db_), &out);
  EXPECT_EQ(Sorted(out), (std::vector<Tuple>{{1, 5}}));
}

TEST_F(RuleEvalTest, AffineHeadComputesOffset) {
  Relation* cs = Rel("cs", 2);
  Relation* l = Rel("l", 2);
  cs->Insert2(0, 10);
  l->Insert2(10, 11);
  auto cr = Compile("cs2(J+1, X1) :- cs(J, X), l(X, X1).");
  ASSERT_TRUE(cr.ok());
  Relation out("cs2", 2);
  (void)cr->Evaluate(cr->FullSources(db_), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.PeekUnchecked(0), (Tuple{1, 11}));
}

TEST_F(RuleEvalTest, AffineNegativeOffset) {
  Relation* pc = Rel("pc", 2);
  Relation* r = Rel("r", 2);
  pc->Insert2(3, 20);
  r->Insert2(19, 20);
  auto cr = Compile("pc2(J-1, Y) :- pc(J, Y1), r(Y, Y1), J > 0.");
  ASSERT_TRUE(cr.ok());
  Relation out("pc2", 2);
  (void)cr->Evaluate(cr->FullSources(db_), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.PeekUnchecked(0), (Tuple{2, 19}));
}

TEST_F(RuleEvalTest, GuardStopsAtZero) {
  Relation* pc = Rel("pc", 2);
  Relation* r = Rel("r", 2);
  pc->Insert2(0, 20);
  r->Insert2(19, 20);
  auto cr = Compile("pc2(J-1, Y) :- pc(J, Y1), r(Y, Y1), J > 0.");
  ASSERT_TRUE(cr.ok());
  Relation out("pc2", 2);
  EXPECT_EQ(cr->Evaluate(cr->FullSources(db_), &out), 0u);
}

TEST_F(RuleEvalTest, OutputDeduplicated) {
  Relation* e = Rel("e", 2);
  e->Insert2(1, 5);
  e->Insert2(2, 5);
  auto cr = Compile("p(Y) :- e(X, Y).");
  ASSERT_TRUE(cr.ok());
  Relation out("p", 1);
  EXPECT_EQ(cr->Evaluate(cr->FullSources(db_), &out), 1u);  // 5 inserted once
}

TEST_F(RuleEvalTest, CustomJoinOrderSameResult) {
  Relation* a = Rel("a", 2);
  Relation* b = Rel("b", 2);
  for (int i = 0; i < 5; ++i) {
    a->Insert2(i, i + 1);
    b->Insert2(i + 1, i + 2);
  }
  const char* src = "j(X, Z) :- a(X, Y), b(Y, Z).";
  auto forward = Compile(src);
  auto backward = Compile(src, {1, 0});
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  Relation out_f("j", 2), out_b("j", 2);
  (void)forward->Evaluate(forward->FullSources(db_), &out_f);
  (void)backward->Evaluate(backward->FullSources(db_), &out_b);
  EXPECT_EQ(Sorted(out_f), Sorted(out_b));
}

TEST_F(RuleEvalTest, DeltaFirstOrderPutsFirstPosFirst) {
  auto rule = dl::ParseRule(
      "pm(X, Y) :- ms(X), l(X, X1), pm(X1, Y1), r(Y, Y1).");
  ASSERT_TRUE(rule.ok());
  auto order = CompiledRule::DeltaFirstOrder(*rule, 2);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 2u);  // the recursive atom leads
  // l shares X1 with the delta atom, so it should come before ms (0 bound).
  EXPECT_EQ(order[1], 1u);
}

TEST_F(RuleEvalTest, EvaluateAgainstEmptyRelationProducesNothing) {
  Rel("e", 2);
  auto cr = Compile("p(Y) :- e(X, Y).");
  ASSERT_TRUE(cr.ok());
  Relation out("p", 1);
  EXPECT_EQ(cr->Evaluate(cr->FullSources(db_), &out), 0u);
}

TEST_F(RuleEvalTest, CartesianProductWhenNoSharedVars) {
  Relation* a = Rel("a", 1);
  Relation* b = Rel("b", 1);
  a->Insert(Tuple{1});
  a->Insert(Tuple{2});
  b->Insert(Tuple{10});
  b->Insert(Tuple{20});
  auto cr = Compile("pair(X, Y) :- a(X), b(Y).");
  ASSERT_TRUE(cr.ok());
  Relation out("pair", 2);
  EXPECT_EQ(cr->Evaluate(cr->FullSources(db_), &out), 4u);
}

TEST_F(RuleEvalTest, FullyBoundAtomBecomesMembershipTest) {
  Relation* e = Rel("e", 2);
  Relation* f = Rel("f", 2);
  e->Insert2(1, 2);
  f->Insert2(1, 2);
  f->Insert2(3, 4);
  auto cr = Compile("both(X, Y) :- e(X, Y), f(X, Y).");
  ASSERT_TRUE(cr.ok());
  Relation out("both", 2);
  (void)cr->Evaluate(cr->FullSources(db_), &out);
  EXPECT_EQ(Sorted(out), (std::vector<Tuple>{{1, 2}}));
}

}  // namespace
}  // namespace mcm::eval
