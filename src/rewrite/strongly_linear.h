// Recognition of (canonical) strongly linear queries beyond the literal
// L/E/R shape.
//
// The paper notes (Section 1) that its results extend to queries where L,
// E and R are conjunctions of database predicates. This module recognizes
// that class:
//
//   query:  P(a, Y)?
//   exit:   P(X, Y) :- <exit body>.
//   rec:    P(X, Y) :- <prefix>, P(Xr, Yr), <suffix>.
//
// where the non-recursive body literals of the recursive rule split into a
// *prefix* component connected (by shared variables) to {X, Xr} and a
// *suffix* component connected to {Y, Yr}, with no variable shared across
// the two components. Under those conditions the query is equivalent to
// the canonical form over the compositions
//   l*(X, Xr)  :- <prefix>.
//   e*(X, Y)   :- <exit body>.
//   r*(Y, Yr)  :- <suffix>.
// which MaterializeStronglyLinear() evaluates into relations so the magic
// counting machinery applies unchanged. The canonical CSL form is the case
// where all three parts are single atoms in canonical argument order.
//
// RecognizeQueryShape() is the one place that decides a program's shape:
// the analyzer records its result and the planner routes from it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "datalog/ast.h"
#include "rewrite/csl.h"
#include "storage/database.h"
#include "util/status.h"

namespace mcm::rewrite {

/// \brief A recognized strongly linear query.
struct StronglyLinearQuery {
  std::string p;
  dl::Term source;
  std::string answer_var;

  std::string x, y;          ///< head variables of the recursive rule
  std::string xr, yr;        ///< arguments of the recursive body atom
  std::string exit_x, exit_y;  ///< head variables of the exit rule

  std::vector<dl::Literal> exit_body;
  std::vector<dl::Literal> prefix;  ///< the L-part conjunction
  std::vector<dl::Literal> suffix;  ///< the R-part conjunction

  /// True when the prefix (resp. suffix / exit body) is a single positive
  /// binary atom in canonical argument order — then no materialization is
  /// needed and the atom's relation is used directly.
  bool prefix_is_atom = false;
  bool suffix_is_atom = false;
  bool exit_is_atom = false;

  std::string ToString() const;
};

/// Recognize the strongly linear form of `program` (rules for one
/// predicate plus one query with bound first argument). Canonical CSL
/// queries are a special case and always recognized.
[[nodiscard]] Result<StronglyLinearQuery> RecognizeStronglyLinear(
    const dl::Program& program);

/// How a query's recursive part matches the paper's class.
enum class QueryForm : uint8_t {
  kNotStronglyLinear,  ///< outside the paper's class
  kCanonical,          ///< literal L/E/R atoms
  kComposed,           ///< derived/conjunctive L,E,R (strongly linear)
  kReverseBound,       ///< P(X, b)? evaluated via the mirrored signature
};

std::string_view QueryFormToString(QueryForm f);

/// The column-swapped E a reverse-bound query runs over.
inline constexpr const char* kSwappedE = "mcm_eswap";

/// \brief The strongly linear shape of a program's single query.
struct QueryShape {
  QueryForm form = QueryForm::kNotStronglyLinear;
  /// The rules for predicates other than the goal's; they materialize
  /// derived L/E/R relations before the methods run (may be empty).
  dl::Program support;
  /// The recognized goal rules. For kReverseBound this is the mirrored
  /// query P(b, X)? over the same rules, always canonical.
  StronglyLinearQuery slq;
  /// kCanonical: the atoms' signature. kReverseBound: the mirrored forward
  /// signature (L' = R, R' = L, E' = kSwappedE, the column swap of
  /// `original_e`). Unset for the other forms.
  CslQuery csl;
  std::string original_e;  ///< kReverseBound only: the E relation to swap
};

/// Split `program` by its query's goal predicate into the goal rules and
/// the support rules, and classify the goal rules: strongly linear with a
/// bound first argument (kCanonical when prefix, suffix and exit body are
/// all single atoms, kComposed otherwise), or canonical with the binding on
/// the second argument (kReverseBound). Anything else — several queries, a
/// support rule that depends on the goal predicate, a degenerate variable
/// pattern — is kNotStronglyLinear.
QueryShape RecognizeQueryShape(const dl::Program& program);

/// Names used for materialized composition relations.
struct SlNames {
  std::string l_star = "mcm_lstar";
  std::string e_star = "mcm_estar";
  std::string r_star = "mcm_rstar";
};

/// Evaluate the composition rules into `db` (skipping compositions that are
/// single atoms) and return the equivalent CslQuery referencing the
/// resulting relation names.
[[nodiscard]] Result<CslQuery> MaterializeStronglyLinear(
    Database* db, const StronglyLinearQuery& slq, const SlNames& names = {});

}  // namespace mcm::rewrite
