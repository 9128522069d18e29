// Pass 4: static counting-safety analysis (Theorems 1-2, before any
// fixpoint runs).
//
// Reports the query form rewrite::RecognizeQueryShape decided (canonical /
// composed strongly linear / reverse-bound), builds the magic-graph skeleton
// from the program's ground facts plus any supplied EDB relations,
// classifies its nodes (single / multiple / recurring, Proposition 1), and
// renders a per-method verdict table:
//   * pure counting is unsafe exactly when the magic graph is cyclic — a
//     recurring node has an infinite index set I_b, so condition (b) of
//     Theorem 1 cannot hold for a counting set containing it;
//   * the magic set method is always safe;
//   * every magic counting method (basic/single/multiple/recurring x
//     independent/integrated) is safe on every instance: Step 1 routes the
//     offending nodes to the restricted magic set RM, satisfying the
//     theorems by construction (Proposition 3).
// The planner consumes the table to refuse plain-counting plans statically
// instead of discovering divergence mid-fixpoint.
#pragma once

#include <string>
#include <vector>

#include "datalog/ast.h"
#include "datalog/diagnostic.h"
#include "graph/classify.h"
#include "rewrite/strongly_linear.h"
#include "storage/database.h"

namespace mcm::analysis {

enum class Verdict : uint8_t {
  kSafe,     ///< method terminates and is correct on this instance
  kUnsafe,   ///< method diverges (counting-set fixpoint never closes)
  kUnknown,  ///< no EDB statistics: cannot decide statically
};

std::string_view VerdictToString(Verdict v);

/// One row of the verdict table.
struct MethodVerdict {
  std::string method;  ///< "counting", "magic_sets", "mc/basic/ind", ...
  Verdict verdict = Verdict::kUnknown;
  std::string reason;
};

/// How the query's recursive part matches the paper's class (decided once,
/// by rewrite::RecognizeQueryShape).
using rewrite::QueryForm;
using rewrite::QueryFormToString;

/// \brief Result of the static counting-safety analysis.
struct CountingSafetyReport {
  QueryForm form = QueryForm::kNotStronglyLinear;
  std::string signature;  ///< CSL signature when recognized ("p over l/e/r")
  std::string l_predicate;  ///< relation whose graph is the magic graph
  /// E/R relation names when they are plain stored atoms; empty when the
  /// component is a conjunction (it exists only after materialization) or,
  /// for reverse-bound queries, when the mirrored E is not materialized yet.
  std::string e_predicate;
  std::string r_predicate;
  /// The query's bound constant (feeds the cost pass); meaningful only when
  /// the query is strongly linear.
  dl::Term source_term;

  /// True when EDB statistics were available and the magic graph was built.
  bool analyzed = false;
  graph::GraphClass graph_class = graph::GraphClass::kRegular;
  size_t magic_nodes = 0;
  size_t magic_arcs = 0;
  size_t single_nodes = 0;
  size_t multiple_nodes = 0;
  size_t recurring_nodes = 0;

  std::vector<MethodVerdict> verdicts;

  /// Methods with an unsafe verdict ("counting", ...).
  std::vector<std::string> UnsafeMethods() const;

  /// Verdict for a named method; kUnknown if the method is not in the table.
  Verdict VerdictFor(const std::string& method) const;

  /// Render the verdict table (aligned columns, one method per row).
  std::string ToString() const;
};

/// Analyze the query of `program` (the paper's single-query form), whose
/// recognized shape is `shape`. `db` supplies EDB statistics and may be
/// null; in-program ground facts are always considered (materialized into
/// a scratch database when `db` lacks the L relation). Appends W401 when
/// pure counting is statically unsafe and N501/N502 notes describing what
/// was (or could not be) decided.
CountingSafetyReport AnalyzeCountingSafety(const dl::Program& program,
                                           const rewrite::QueryShape& shape,
                                           const Database* db,
                                           dl::DiagnosticBag* bag);

/// Materialize the in-program ground facts for `pred` into `scratch`.
/// Shared by the safety and cost passes (both fall back to program facts
/// when the caller supplies no database).
void MaterializeGroundFacts(const dl::Program& program, const std::string& pred,
                            Database* scratch);

/// Resolve a ground term against a symbol table without interning; returns
/// false when the symbol is unknown to `symbols`.
bool ResolveGroundTerm(const dl::Term& t, const SymbolTable& symbols,
                       Value* out);

}  // namespace mcm::analysis
