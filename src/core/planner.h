// Query planner: evaluate an arbitrary program + query with the best
// applicable strategy.
//
// The policy is three values in PlannerOptions: an ordered rung list (the
// degradation ladder), a CountingPolicy for the plain-counting rung, and a
// LadderOrder. One routing function, shared by SolveProgram and
// ExplainProgram, turns them into a plan after the static analyzer has run
// (its errors abort planning; its verdicts and cost ranking feed the ladder):
//  1. Strongly linear path: when the analyzer's query shape
//     (AnalysisResult::shape) is strongly linear — canonical, with L, E, R
//     possibly *derived* in lower strata (the paper's Section 1
//     generalization), composed of conjunctions, or canonical with the
//     binding on the second argument (mirrored) — its relations exist, and
//     the request asks for the counting family (a counting or
//     magic-counting rung, or a counting policy other than kNever), the
//     support strata are materialized and the ladder's counting,
//     magic-counting and magic-sets rungs run in order. The planner never
//     recognizes the shape itself.
//  2. Otherwise, if the goal has a bound argument and the list holds a rung
//     other than bottom-up, the generalized magic-set rewriting runs; a
//     failure degrades to bottom-up when the list holds that rung.
//  3. Otherwise the program is evaluated bottom-up as-is.
//
// Every execution is governed (deadline, cancellation, iteration/tuple/
// memory caps from RunOptions). On the strongly linear path a recoverable
// abort (kUnsafe, kDeadlineExceeded) moves on to the next rung, so a
// one-rung list means "no fallback". PlanReport::attempts records each try.
#pragma once

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "core/method.h"
#include "datalog/ast.h"
#include "storage/database.h"
#include "util/status.h"

namespace mcm::core {

/// A strategy: the kind of a ladder rung, and which one answered a query.
enum class PlanKind : uint8_t {
  kCounting,       ///< pure counting, gated by CountingPolicy
  kMagicCounting,  ///< CSL path: Step1 + Step2 of the chosen MC method
  kMagicSets,      ///< magic sets: the safe bottom of the CSL ladder, or the
                   ///< generalized rewriting off the strongly linear path
  kBottomUp,       ///< plain seminaive evaluation
};

std::string PlanKindToString(PlanKind k);

/// One rung of the degradation ladder.
struct Rung {
  using Kind = PlanKind;
  /// variant/mode matter for kMagicCounting only; the other rungs keep the
  /// defaults, so == compares all three.
  Kind kind = Kind::kMagicSets;
  McVariant variant = McVariant::kMultiple;
  McMode mode = McMode::kIntegrated;

  static Rung Counting() { return {Kind::kCounting}; }
  static Rung Mc(McVariant v, McMode m) {
    return {Kind::kMagicCounting, v, m};
  }
  static Rung MagicSets() { return {Kind::kMagicSets}; }
  static Rung BottomUp() { return {Kind::kBottomUp}; }

  /// Counting and magic counting: the rungs the circuit breaker skips.
  bool counting_based() const {
    return kind == Kind::kCounting || kind == Kind::kMagicCounting;
  }
  /// The cost-table id: "counting", "mc/<variant>/<ind|int>", "magic_sets",
  /// "bottom_up".
  std::string Id() const;
  /// Inverse of Id(); false on an unknown id.
  static bool FromId(const std::string& id, Rung* out);
  bool operator==(const Rung& o) const {
    return kind == o.kind && variant == o.variant && mode == o.mode;
  }
};

/// The Figure 3 walk from one magic counting method down: `variant`/`mode`,
/// the safer variants (single -> multiple -> recurring) in the same mode,
/// magic sets, then bottom-up. Callers that want plain counting put
/// Rung::Counting() in front.
std::vector<Rung> SafeLadder(McVariant variant = McVariant::kMultiple,
                             McMode mode = McMode::kIntegrated);

/// When the plain-counting rung may run.
enum class CountingPolicy : uint8_t {
  kNever,         ///< skip it
  kIfProvenSafe,  ///< only on a statically proven acyclic magic graph
  kGoverned,      ///< also when unsafe or undecidable, under the governor;
                  ///< the caps stop divergence and the next rung answers
};

/// How the strongly linear path orders the ladder.
enum class LadderOrder : uint8_t {
  kAsListed,  ///< the list's order (fixed Figure 3 walk)
  /// The analyzer's predicted-cost ranking (cheapest safe method first)
  /// supplies the rungs of every kind the list holds, in ranking order; the
  /// list's own order applies when the cost parameters were not derivable.
  kPredictedCost,
};

struct PlannerOptions {
  std::vector<Rung> ladder = SafeLadder();
  CountingPolicy counting = CountingPolicy::kNever;
  LadderOrder order = LadderOrder::kAsListed;
  RunOptions run;
  /// Precomputed analysis of `program` against the same database. When
  /// null, SolveProgram runs the analyzer itself.
  const analysis::AnalysisResult* analysis = nullptr;
};

/// Whether `options` may put plain counting on the ladder: the requests the
/// query service's circuit breaker watches.
bool AdmitsCounting(const PlannerOptions& options);

/// Drop every counting-based rung, keeping (or adding) magic sets: the
/// query service's circuit breaker applies this once a query shape has
/// diverged repeatedly, so the strongly linear path answers with the safe
/// bottom rung directly. The counting policy stays, so a strongly linear
/// query still takes that path.
void SkipCountingRungs(PlannerOptions* options);

/// One entry of the planner's execution attempt log.
struct PlanAttempt {
  std::string method;  ///< "counting", "mc/multiple/integrated", ...
  Status status;       ///< OK for the attempt that answered the query
  runtime::AbortReason abort = runtime::AbortReason::kNone;
  double seconds = 0.0;
  /// Cost-model prediction for this method in tuple retrievals; negative
  /// when the cost pass had nothing (outside the CSL class, no EDB stats).
  double predicted_reads = -1.0;

  /// e.g. "counting: Unsafe [iteration_cap] (0.42ms)" or "magic_sets: ok".
  std::string ToString() const;
};

/// \brief Result of planning + executing one query.
struct PlanReport {
  PlanKind kind = PlanKind::kBottomUp;
  std::string description;      ///< human-readable plan summary
  std::vector<Tuple> results;   ///< tuples matching the query goal
  AccessStats stats;            ///< total retrieval cost of the execution
  graph::GraphClass detected_class = graph::GraphClass::kRegular;
  /// Analyzer output for the planned program: warnings/notes (errors abort
  /// planning before a report exists) and the static safety verdicts.
  std::vector<dl::Diagnostic> diagnostics;
  analysis::CountingSafetyReport safety;
  /// The cost pass's per-method table (Propositions 4-7); cost.computed is
  /// false outside the strongly linear class or without EDB statistics.
  analysis::CostReport cost;
  /// Predicted tuple retrievals for the method that answered the query
  /// (negative when no prediction existed); compare with
  /// stats.tuples_read, the measured count.
  double predicted_reads = -1.0;
  /// Everything the planner tried, in order; the last entry is the attempt
  /// that produced `results`. Size > 1 means the degradation ladder fired.
  std::vector<PlanAttempt> attempts;
};

/// Plan and execute the single query of `program` against `db` (EDB
/// relations must be loaded; IDB relations are created).
Result<PlanReport> SolveProgram(Database* db, const dl::Program& program,
                                const PlannerOptions& options = {});

/// Plan WITHOUT executing: run the analyzer (including the cost pass) and
/// report which method the planner would choose and in what ladder order,
/// with the cost table in PlanReport::cost. `results` stays empty and no
/// fixpoint runs — this is `mcmq --explain` / REPL `:explain`.
Result<PlanReport> ExplainProgram(const Database* db,
                                  const dl::Program& program,
                                  const PlannerOptions& options = {});

}  // namespace mcm::core
