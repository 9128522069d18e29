// Canonical strongly linear (CSL) recognition: RecognizeQueryShape
// classifies a program as kCanonical exactly when its goal rules are
// strongly linear with single-atom L, E and R in canonical argument order.
#include "rewrite/csl.h"

#include <gtest/gtest.h>

#include <optional>

#include "datalog/parser.h"
#include "rewrite/strongly_linear.h"

namespace mcm::rewrite {
namespace {

QueryShape Recognize(const std::string& src) {
  auto prog = dl::Parse(src);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return prog.ok() ? RecognizeQueryShape(*prog) : QueryShape{};
}

/// The canonical signature of `src`, or nullopt when it is not canonical.
std::optional<CslQuery> Canonical(const std::string& src) {
  QueryShape shape = Recognize(src);
  if (shape.form != QueryForm::kCanonical) return std::nullopt;
  return shape.csl;
}

TEST(RecognizeCsl, CanonicalForm) {
  auto q = Canonical(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(a, Y)?
  )");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->p, "p");
  EXPECT_EQ(q->e, "e");
  EXPECT_EQ(q->l, "l");
  EXPECT_EQ(q->r, "r");
  EXPECT_EQ(q->source.name, "a");
  EXPECT_EQ(q->answer_var, "Y");
}

TEST(RecognizeCsl, BodyAtomOrderIrrelevant) {
  auto q = Canonical(R"(
    sg(U, V) :- same(U, V).
    sg(U, V) :- up(V, V1), down(U, U1), sg(U1, V1).
    sg(7, V)?
  )");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->l, "down");
  EXPECT_EQ(q->r, "up");
  EXPECT_EQ(q->e, "same");
}

TEST(RecognizeCsl, SameGenerationSharedRelation) {
  auto q = Canonical(R"(
    sg(X, Y) :- eq(X, Y).
    sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
    sg(ann, Y)?
  )");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->l, "par");
  EXPECT_EQ(q->r, "par");
}

TEST(RecognizeCsl, IntegerSource) {
  auto q = Canonical(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(42, Y)?
  )");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->source.kind, dl::Term::Kind::kInt);
  EXPECT_EQ(q->source.value, 42);
}

TEST(RecognizeCsl, RejectsMissingQuery) {
  EXPECT_EQ(Recognize("p(X, Y) :- e(X, Y).").form,
            QueryForm::kNotStronglyLinear);
}

TEST(RecognizeCsl, RejectsFreeFirstArgument) {
  EXPECT_EQ(Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(X, Y)?
  )").form, QueryForm::kNotStronglyLinear);
}

TEST(RecognizeCsl, RejectsTwoRecursiveRules) {
  EXPECT_EQ(Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(X, Y) :- l2(X, X1), p(X1, Y1), r(Y, Y1).
    p(a, Y)?
  )").form, QueryForm::kNotStronglyLinear);
}

// Rules for other predicates are support strata (derived L/E/R, the
// paper's Section 1 generalization) unless they depend on the goal.
TEST(RecognizeCsl, ExtraPredicatesBecomeSupport) {
  QueryShape shape = Recognize(R"(
    q(1, 2).
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(a, Y)?
  )");
  EXPECT_EQ(shape.form, QueryForm::kCanonical);
  ASSERT_EQ(shape.support.rules.size(), 1u);
  EXPECT_EQ(shape.support.rules[0].head.predicate, "q");

  EXPECT_EQ(Recognize(R"(
    q(X, Y) :- p(X, Y).
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(a, Y)?
  )").form, QueryForm::kNotStronglyLinear);
}

// A swapped exit atom is still strongly linear: E is composed.
TEST(RecognizeCsl, RejectsWrongExitShape) {
  QueryShape shape = Recognize(R"(
    p(X, Y) :- e(Y, X).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(a, Y)?
  )");
  EXPECT_EQ(shape.form, QueryForm::kComposed);
  EXPECT_FALSE(shape.slq.exit_is_atom);
}

// L attaches to the wrong variable order: L is composed.
TEST(RecognizeCsl, RejectsWrongRecursiveShape) {
  QueryShape shape = Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X1, X), p(X1, Y1), r(Y, Y1).
    p(a, Y)?
  )");
  EXPECT_EQ(shape.form, QueryForm::kComposed);
  EXPECT_FALSE(shape.slq.prefix_is_atom);
}

TEST(RecognizeCsl, RejectsNonLinearRule) {
  EXPECT_EQ(Recognize(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- p(X, Z), p(Z, Y), r(Y, Y).
    p(a, Y)?
  )").form, QueryForm::kNotStronglyLinear);
}

// The recursive atom must take fresh variables: reusing a head variable
// is not the CSL rule, whichever side the binding enters from.
TEST(RecognizeCsl, RejectsRecursiveAtomReusingHeadY) {
  const char* rules = R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y), r(Y, Y).
  )";
  EXPECT_EQ(Recognize(std::string(rules) + "p(1, Y)?").form,
            QueryForm::kNotStronglyLinear);
  EXPECT_EQ(Recognize(std::string(rules) + "p(X, 40)?").form,
            QueryForm::kNotStronglyLinear);
}

TEST(RecognizeCsl, RejectsRecursiveAtomReusingHeadX) {
  const char* rules = R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X), p(X, Y1), r(Y, Y1).
  )";
  EXPECT_EQ(Recognize(std::string(rules) + "p(1, Y)?").form,
            QueryForm::kNotStronglyLinear);
  EXPECT_EQ(Recognize(std::string(rules) + "p(X, 40)?").form,
            QueryForm::kNotStronglyLinear);
}

TEST(ResolveSource, InternsSymbols) {
  auto q = Canonical(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
    p(ann, Y)?
  )");
  ASSERT_TRUE(q.has_value());
  Database db;
  Value a = ResolveSource(*q, &db);
  EXPECT_EQ(db.symbols().Resolve(a), "ann");
  EXPECT_EQ(ResolveSource(*q, &db), a);  // stable
}

TEST(ResolveSource, PassesIntegersThrough) {
  CslQuery q;
  q.source = dl::Term::Int(17);
  Database db;
  EXPECT_EQ(ResolveSource(q, &db), 17);
}

}  // namespace
}  // namespace mcm::rewrite
