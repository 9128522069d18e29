// Single-rule evaluation: indexed nested-loop join over the body literals.
//
// A rule is compiled once into an execution plan:
//  * positive atoms are joined left-to-right; at each position the engine
//    probes an index on the columns whose value is already bound (constants
//    or previously bound variables), scanning only on the first atom when
//    nothing is bound;
//  * negated atoms and comparisons are attached as guards at the earliest
//    position where all their variables are bound (the validator guarantees
//    such a position exists);
//  * affine terms (J+1) are computed from the binding environment.
//
// Each body literal reads from a BodySource resolved once per stratum: a
// relation plus the id range of it to read. The seminaive engine restricts
// one designated positive atom to the previous round's delta range — the
// primitive its fixpoint is built from.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "datalog/ast.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "util/lifetime_annotations.h"
#include "util/status.h"

namespace mcm::eval {

/// Where one body literal of a rule reads from.
struct BodySource {
  /// The relation read; nullptr only for an absent negated predicate (an
  /// empty relation, so the negation holds).
  const Relation* rel = nullptr;
  /// Ids read: everything present at access time, or a seminaive delta.
  IdRange range;
};

/// \brief Compiled form of one rule, reusable across fixpoint rounds.
class CompiledRule {
 public:
  /// Compile `rule` against `db` (interns symbol constants). Fails if the
  /// rule is not safe in the sense checked by dl::ValidateRule.
  ///
  /// `join_order`, when non-empty, lists the body positions of the rule's
  /// positive atoms in the order they should be joined (it must be a
  /// permutation of exactly those positions). Guards still attach at the
  /// earliest point their variables are bound. The seminaive engine uses
  /// this to put the delta atom first.
  [[nodiscard]] static Result<CompiledRule> Compile(
      const dl::Rule& rule, Database* db, std::vector<size_t> join_order = {});

  /// A delta-first greedy join order for `rule`: `first_pos` (a positive
  /// body position) leads; remaining positive atoms are appended most-bound
  /// first (number of constant-or-bound arguments, ties by body order).
  static std::vector<size_t> DeltaFirstOrder(const dl::Rule& rule,
                                             size_t first_pos);

  /// One source per body literal (indexed like `Rule::body`; comparisons
  /// get an empty entry), each atom reading the whole relation `db` holds
  /// under its predicate.
  std::vector<BodySource> FullSources(const Database& db) const;

  /// Evaluate the rule reading body literal i from `sources[i]`, inserting
  /// derived head tuples into `out`. Returns the number of *new* tuples
  /// inserted — nodiscard because the seminaive fixpoint's termination
  /// test is built from it.
  [[nodiscard]] size_t Evaluate(const std::vector<BodySource>& sources,
                                Relation* out) const;

  const dl::Rule& rule() const MCM_LIFETIME_BOUND { return rule_; }

  /// Positions (into rule().body) of the positive atoms, in join order.
  const std::vector<size_t>& positive_positions() const MCM_LIFETIME_BOUND {
    return positive_positions_;
  }

 private:
  // A term resolved against the binding environment at runtime.
  struct BoundTerm {
    enum class Kind { kConstant, kVariable, kAffine } kind;
    Value constant = 0;  // kConstant
    int var = -1;        // kVariable / kAffine: slot in the env
    int64_t offset = 0;  // kAffine
  };

  struct JoinStep {
    size_t body_pos;                 // which body literal
    // For each argument: is it bound at probe time?
    std::vector<BoundTerm> args;
    std::vector<uint32_t> probe_cols;   // columns with bound values
    ColumnMask probe_mask = 0;          // the same columns as a mask
    std::vector<uint32_t> bind_cols;    // columns that bind new variables
    std::vector<int> bind_vars;         // env slot per bind_col
    // Repeated free variable within this same atom: tuple column must equal
    // the env slot bound by an earlier column of the same tuple.
    std::vector<std::pair<uint32_t, int>> filter_checks;
    // Guards evaluated right after this step binds its variables.
    std::vector<size_t> guards;         // indices into guards_
  };

  struct Guard {
    enum class Kind { kNegation, kComparison } kind;
    // Negation:
    size_t body_pos = 0;  // the negated literal, indexes the sources
    std::vector<BoundTerm> args;
    // Comparison:
    dl::CmpOp op = dl::CmpOp::kEq;
    BoundTerm lhs, rhs;
  };

  CompiledRule() = default;

  Value Resolve(const BoundTerm& t, const Value* env) const {
    switch (t.kind) {
      case BoundTerm::Kind::kConstant:
        return t.constant;
      case BoundTerm::Kind::kVariable:
        return env[t.var];
      case BoundTerm::Kind::kAffine:
        return env[t.var] + t.offset;
    }
    return 0;
  }

  /// True iff every guard in `guards` holds under `env`.
  bool CheckGuards(const std::vector<size_t>& guards,
                   const BodySource* sources, const Value* env) const;

  /// Binds `step`'s free columns from the tuple at `row` and, if its
  /// filters and guards hold, evaluates the remaining steps.
  size_t JoinTuple(size_t step_idx, const Value* row,
                   const BodySource* sources, Value* env, Relation* out) const;

  size_t EvaluateFrom(size_t step_idx, const BodySource* sources, Value* env,
                      Relation* out) const;

  dl::Rule rule_;
  std::vector<std::string> var_names_;  // env slot -> variable name
  std::vector<JoinStep> steps_;
  std::vector<Guard> guards_;
  std::vector<size_t> initial_guards_;  // guards with no variables at all
  std::vector<BoundTerm> head_args_;
  std::vector<size_t> positive_positions_;
};

}  // namespace mcm::eval
