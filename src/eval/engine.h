// Fixpoint evaluation of stratified Datalog programs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "eval/rule_eval.h"
#include "eval/strata.h"
#include "runtime/execution_context.h"
#include "storage/database.h"
#include "util/lifetime_annotations.h"
#include "util/status.h"

namespace mcm::eval {

/// Knobs for a fixpoint run.
struct EvalOptions {
  /// Seminaive (delta-driven) evaluation; naive re-derives everything each
  /// round. Both compute the same fixpoint.
  bool seminaive = true;

  /// Abort with Status::Unsafe after this many rounds in a single recursive
  /// stratum (0 = unlimited). This is the guard that turns the counting
  /// method's divergence on cyclic data into a detectable error instead of
  /// an infinite loop.
  uint64_t max_iterations = 0;

  /// Abort with Status::Unsafe once a stratum has derived this many tuples
  /// (0 = unlimited).
  uint64_t max_tuples = 0;

  /// Abort with Status::Unsafe once the database's approximate footprint
  /// (Database::ApproxBytes) exceeds this budget (0 = unlimited). Checked at
  /// the same round granularity as the other caps.
  uint64_t max_memory_bytes = 0;

  /// Optional execution governor carrying a wall-clock deadline and a
  /// cooperative cancellation token, polled at stratum-round boundaries.
  /// Not owned; must outlive Run().
  const runtime::ExecutionContext* context = nullptr;

  /// Collect a per-rule cost breakdown (Engine::profile()). Adds two stat
  /// snapshots per rule evaluation; negligible overhead.
  bool profile = false;

  /// Skip program validation in Run(). Set by callers that already ran the
  /// static analyzer (analysis::Analyze) over the same program — e.g. the
  /// planner — so the checks are not re-derived per evaluation.
  bool assume_validated = false;
};

/// Statistics of one Run().
struct EvalRunInfo {
  uint64_t iterations = 0;      ///< Total fixpoint rounds over all strata.
  uint64_t tuples_derived = 0;  ///< New tuples inserted into IDB relations.
  size_t strata = 0;

  /// Why the run was stopped early (kNone on success). The same reason is
  /// rendered into the returned Status message.
  runtime::AbortReason abort_reason = runtime::AbortReason::kNone;
  size_t abort_stratum = 0;     ///< Stratum index that aborted (when set).
  std::string abort_rule;       ///< Hottest rule of the aborting stratum
                                ///< (only when EvalOptions::profile is on).
};

/// Per-rule cost breakdown (collected when EvalOptions::profile is set).
struct RuleProfile {
  std::string rule;             ///< printable form of the rule
  uint64_t evaluations = 0;     ///< evaluator invocations (incl. deltas)
  uint64_t tuples_derived = 0;  ///< new tuples this rule produced
  uint64_t tuples_read = 0;     ///< retrievals attributed to this rule
};

/// \brief Evaluates a stratified Datalog program against a Database.
///
/// IDB relations are created in the database (by predicate name) if absent;
/// EDB relations must already be populated by the caller. The engine is
/// reusable: construct once, Run() once per program.
class Engine {
 public:
  explicit Engine(Database* db, EvalOptions options = {})
      : db_(db), options_(options) {}

  /// Evaluate `program` to fixpoint. On success, info() describes the run.
  [[nodiscard]] Status Run(const dl::Program& program);

  /// Tuples of `goal`'s predicate matching the goal's constant arguments
  /// (variables match anything). Run() must have succeeded.
  [[nodiscard]] Result<std::vector<Tuple>> Query(const dl::Atom& goal) const;

  /// Convenience: parse `goal_text` (e.g. "answer(Y)") and Query().
  [[nodiscard]] Result<std::vector<Tuple>> Query(
      const std::string& goal_text) const;

  const EvalRunInfo& info() const MCM_LIFETIME_BOUND { return info_; }

  /// Per-rule breakdown, parallel to the program's rule list. Empty unless
  /// EvalOptions::profile was set.
  const std::vector<RuleProfile>& profile() const MCM_LIFETIME_BOUND {
    return profile_;
  }

  /// Render profile() as an "EXPLAIN ANALYZE"-style table, most expensive
  /// rule first.
  std::string ProfileToString() const;

 private:
  Status EvaluateStratum(size_t stratum_index, const Stratum& stratum,
                         const std::vector<CompiledRule>& rules);

  /// Record the abort in info() and build the Status for a tripped cap or
  /// governor signal; `detail` describes the cap and its value.
  Status Abort(runtime::AbortReason reason, size_t stratum_index,
               const Stratum& stratum, const std::string& detail);

  size_t EvaluateRule(size_t rule_index, const CompiledRule& cr,
                      const std::vector<BodySource>& sources, Relation* out);

  Database* db_;
  EvalOptions options_;
  EvalRunInfo info_;
  std::vector<RuleProfile> profile_;
};

/// One-shot helper: evaluate `program` against `db` and return the tuples
/// matching the program's (single) query goal.
[[nodiscard]] Result<std::vector<Tuple>> RunProgram(Database* db,
                                                    const dl::Program& program,
                                                    EvalOptions options = {});

}  // namespace mcm::eval
