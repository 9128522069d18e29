#include "core/planner.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/solver.h"
#include "datalog/validate.h"
#include "eval/engine.h"
#include "rewrite/magic.h"
#include "rewrite/strongly_linear.h"
#include "util/fault_injection.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace mcm::core {

std::string PlanKindToString(PlanKind k) {
  switch (k) {
    case PlanKind::kCounting:
      return "counting";
    case PlanKind::kMagicCounting:
      return "magic_counting";
    case PlanKind::kMagicSets:
      return "magic_sets";
    case PlanKind::kBottomUp:
      return "bottom_up";
  }
  return "?";
}

std::string PlanAttempt::ToString() const {
  std::string out = method + ": ";
  if (status.ok()) {
    out += "ok";
  } else {
    out += std::string(StatusCodeToString(status.code()));
    if (abort != runtime::AbortReason::kNone) {
      out += " [" + std::string(runtime::AbortReasonToString(abort)) + "]";
    }
  }
  if (predicted_reads >= 0) {
    out += StringPrintf(" (%.2fms, predicted %.0f reads)", seconds * 1e3,
                        predicted_reads);
  } else {
    out += StringPrintf(" (%.2fms)", seconds * 1e3);
  }
  return out;
}

std::string Rung::Id() const {
  switch (kind) {
    case Kind::kCounting:
      return "counting";
    case Kind::kMagicCounting:
      return "mc/" + McVariantToString(variant) + "/" +
             (mode == McMode::kIndependent ? "ind" : "int");
    case Kind::kMagicSets:
      return "magic_sets";
    case Kind::kBottomUp:
      return "bottom_up";
  }
  return "?";
}

bool Rung::FromId(const std::string& id, Rung* out) {
  // Every rung by id, built once: the planner maps each cost-ranking entry
  // through here per request.
  static const std::vector<std::pair<std::string, Rung>> kAll = [] {
    std::vector<std::pair<std::string, Rung>> all;
    for (Rung r : {Counting(), MagicSets(), BottomUp()}) {
      all.emplace_back(r.Id(), r);
    }
    for (McVariant v : {McVariant::kBasic, McVariant::kSingle,
                        McVariant::kMultiple, McVariant::kRecurring,
                        McVariant::kRecurringSmart}) {
      for (McMode m : {McMode::kIndependent, McMode::kIntegrated}) {
        all.emplace_back(Mc(v, m).Id(), Mc(v, m));
      }
    }
    return all;
  }();
  for (const auto& [name, rung] : kAll) {
    if (name == id) {
      *out = rung;
      return true;
    }
  }
  return false;
}

namespace {

bool Holds(const std::vector<Rung>& ladder, Rung::Kind kind) {
  return std::any_of(ladder.begin(), ladder.end(),
                     [kind](const Rung& r) { return r.kind == kind; });
}

}  // namespace

std::vector<Rung> SafeLadder(McVariant variant, McMode mode) {
  // The Figure 3 order; recurring_smart is recurring with a faster Step 1,
  // so, like recurring, it has no safer variant.
  static constexpr McVariant kWalk[] = {McVariant::kBasic, McVariant::kSingle,
                                        McVariant::kMultiple,
                                        McVariant::kRecurring};
  std::vector<Rung> ladder{Rung::Mc(variant, mode)};
  const McVariant* safer =
      std::find(std::begin(kWalk), std::end(kWalk), variant);
  if (safer != std::end(kWalk)) ++safer;
  for (; safer != std::end(kWalk); ++safer) {
    ladder.push_back(Rung::Mc(*safer, mode));
  }
  ladder.push_back(Rung::MagicSets());
  ladder.push_back(Rung::BottomUp());
  return ladder;
}

bool AdmitsCounting(const PlannerOptions& options) {
  return options.counting != CountingPolicy::kNever &&
         Holds(options.ladder, Rung::Kind::kCounting);
}

void SkipCountingRungs(PlannerOptions* options) {
  std::vector<Rung>& ladder = options->ladder;
  ladder.erase(std::remove_if(ladder.begin(), ladder.end(),
                              [](const Rung& r) { return r.counting_based(); }),
               ladder.end());
  if (!Holds(ladder, Rung::Kind::kMagicSets)) {
    ladder.insert(ladder.begin(), Rung::MagicSets());
  }
}

namespace {

/// "counting: Unsafe [iteration_cap] (0.4ms) -> magic_sets: ok (1.2ms)".
std::string AttemptLogSummary(const std::vector<PlanAttempt>& attempts) {
  std::string out;
  for (size_t i = 0; i < attempts.size(); ++i) {
    if (i > 0) out += " -> ";
    out += attempts[i].ToString();
  }
  return out;
}

/// Fold the attempt log into a final failure Status so callers that only
/// see the error still learn what was tried.
Status WithAttemptLog(const Status& last,
                      const std::vector<PlanAttempt>& attempts) {
  if (attempts.size() <= 1) return last;
  return Status(last.code(),
                last.message() + "; attempts: " + AttemptLogSummary(attempts));
}

/// An abort the degradation ladder may recover from; cancellation and
/// genuine errors (parse, arity, internal) always propagate.
bool IsRecoverableAbort(const Status& st) {
  return st.IsUnsafe() || st.IsDeadlineExceeded();
}

/// The cost model's prediction for a rung in tuple retrievals; negative
/// when the table has no row (not computed, or no finite estimate).
/// RecurringSmart reads recurring's row: same partition, faster Step 1.
double PredictedFor(const analysis::CostReport& cost, Rung rung) {
  if (!cost.computed) return -1.0;
  if (rung.variant == McVariant::kRecurringSmart) {
    rung.variant = McVariant::kRecurring;
  }
  const analysis::CostEstimate* e = cost.EstimateFor(rung.Id());
  return e != nullptr && e->finite ? e->predicted : -1.0;
}

/// Where a query is answered. SolveProgram executes it and ExplainProgram
/// reports it, so the two cannot disagree.
struct Route {
  enum class Path : uint8_t { kStronglyLinear, kMagicRewrite, kBottomUp };
  Path path = Path::kBottomUp;

  // kStronglyLinear: the analyzer's shape of the query and the rungs to
  // walk, in order.
  const rewrite::QueryShape* shape = nullptr;
  std::vector<Rung> rungs;
  std::string note;  ///< why the counting rung was refused, if it was
  bool ranked = false;

  // kMagicRewrite.
  Result<rewrite::MagicProgram> magic = Status::Unsupported("no rewrite");
};

/// Whether every relation the CSL solver will read exists once the support
/// strata (and, for composed parts, the compositions) are materialized. A
/// reverse-bound shape's forward query names the same three relations.
bool RelationsAvailable(const Database& db, const rewrite::QueryShape& shape) {
  std::unordered_set<std::string> derived;
  for (const auto& [pred, arity] : shape.support.PredicateArities()) {
    derived.insert(pred);
  }
  // A composed part is materialized under its own name; a single atom is
  // read in place.
  auto available = [&db, &derived](bool is_atom,
                                   const std::vector<dl::Literal>& part) {
    if (!is_atom) return true;
    const std::string& pred = part[0].atom.predicate;
    return db.Find(pred) != nullptr || derived.count(pred) > 0;
  };
  const rewrite::StronglyLinearQuery& q = shape.slq;
  return available(q.prefix_is_atom, q.prefix) &&
         available(q.exit_is_atom, q.exit_body) &&
         available(q.suffix_is_atom, q.suffix);
}

/// The strongly linear ladder: the listed (or cost-ranked) counting,
/// magic-counting and magic-sets rungs, with the counting rung gated by the
/// counting policy and the static verdict.
void BuildLadder(const PlannerOptions& options,
                 const analysis::AnalysisResult& analysis, Route* route) {
  const analysis::CostReport& cost = analysis.cost;
  route->ranked = options.order == LadderOrder::kPredictedCost &&
                  cost.computed && !cost.ranking.empty();
  std::vector<Rung> candidates;
  if (route->ranked) {
    // The ranking holds exactly the safe finite methods, cheapest first
    // ("counting" only when statically safe).
    for (const std::string& id : cost.ranking) {
      Rung r;
      if (Rung::FromId(id, &r) && Holds(options.ladder, r.kind)) {
        candidates.push_back(r);
      }
    }
    if (options.counting == CountingPolicy::kGoverned &&
        Holds(options.ladder, Rung::Kind::kCounting) &&
        !Holds(candidates, Rung::Kind::kCounting)) {
      candidates.insert(candidates.begin(), Rung::Counting());
    }
  } else {
    for (const Rung& r : options.ladder) {
      if (r.kind != Rung::Kind::kBottomUp) candidates.push_back(r);
    }
  }

  analysis::Verdict verdict = analysis.safety.VerdictFor("counting");
  for (const Rung& r : candidates) {
    if (r.kind == Rung::Kind::kCounting) {
      if (options.counting == CountingPolicy::kNever) continue;
      if (options.counting == CountingPolicy::kIfProvenSafe &&
          verdict != analysis::Verdict::kSafe) {
        route->note = verdict == analysis::Verdict::kUnsafe
                          ? "; plain counting refused: statically unsafe "
                            "(cyclic magic graph)"
                          : "; plain counting refused: safety not "
                            "statically decidable";
        continue;
      }
    }
    route->rungs.push_back(r);
  }
}

/// The one routing decision both SolveProgram and ExplainProgram follow.
Result<Route> PlanRoute(const Database& db, const dl::Program& program,
                        const PlannerOptions& options,
                        const analysis::AnalysisResult& analysis) {
  if (program.queries.size() != 1) {
    return Status::Unsupported("planner expects exactly one query");
  }
  const dl::Query& query = program.queries[0];
  Route route;

  // 1. The strongly linear ladder, when the request asks for the counting
  // family at all.
  bool counting_family =
      options.counting != CountingPolicy::kNever ||
      std::any_of(options.ladder.begin(), options.ladder.end(),
                  [](const Rung& r) { return r.counting_based(); });
  if (counting_family &&
      analysis.shape.form != rewrite::QueryForm::kNotStronglyLinear &&
      RelationsAvailable(db, analysis.shape)) {
    BuildLadder(options, analysis, &route);
    if (!route.rungs.empty()) {
      route.shape = &analysis.shape;
      route.path = Route::Path::kStronglyLinear;
      return route;
    }
  }

  // 2. Generalized magic sets when the goal carries bindings.
  bool has_binding = std::any_of(
      query.goal.args.begin(), query.goal.args.end(),
      [](const dl::Term& t) { return t.IsConstant(); });
  bool only_bottom_up = std::all_of(
      options.ladder.begin(), options.ladder.end(),
      [](const Rung& r) { return r.kind == Rung::Kind::kBottomUp; });
  if (has_binding && !only_bottom_up) {
    route.magic = rewrite::MagicRewrite(program, query.goal);
    if (route.magic.ok()) {
      route.path = Route::Path::kMagicRewrite;
      return route;
    }
  }

  // 3. Plain bottom-up evaluation.
  route.path = Route::Path::kBottomUp;
  return route;
}

/// Attempt-log name of a strongly linear rung, also the fault-injection
/// site suffix. Magic counting spells its mode in full: the sites and logs
/// predate the short cost-table ids and keep their form.
std::string TierName(const Rung& rung) {
  if (rung.kind != Rung::Kind::kMagicCounting) return rung.Id();
  return "mc/" + McVariantToString(rung.variant) + "/" +
         McModeToString(rung.mode);
}

std::string TierDescription(const Rung& rung, analysis::Verdict verdict) {
  switch (rung.kind) {
    case Rung::Kind::kCounting:
      if (verdict == analysis::Verdict::kSafe) {
        return "pure counting (statically proven safe: acyclic magic graph)";
      }
      return std::string("pure counting (statically ") +
             (verdict == analysis::Verdict::kUnsafe ? "unsafe"
                                                    : "undecidable") +
             ", attempted under the governor)";
    case Rung::Kind::kMagicCounting:
      return "magic counting (" + TierName(rung).substr(3) + ")";
    case Rung::Kind::kMagicSets:
    case Rung::Kind::kBottomUp:
      break;
  }
  return "magic sets (safe bottom of the degradation ladder)";
}

Result<MethodRun> RunTier(CslSolver* solver, const Rung& rung,
                          const RunOptions& run) {
  switch (rung.kind) {
    case Rung::Kind::kCounting:
      return solver->RunCounting(run);
    case Rung::Kind::kMagicCounting:
      return solver->RunMagicCounting(rung.variant, rung.mode, run);
    case Rung::Kind::kMagicSets:
    case Rung::Kind::kBottomUp:
      break;
  }
  return solver->RunMagicSets(run);
}

/// The caller's analysis, or a fresh one of `program` against `db`.
const analysis::AnalysisResult& AnalysisFor(
    const Database* db, const dl::Program& program,
    const PlannerOptions& options, analysis::AnalysisResult* local) {
  if (options.analysis != nullptr) return *options.analysis;
  analysis::AnalyzeOptions aopts;
  aopts.db = db;
  *local = analysis::Analyze(program, aopts);
  return *local;
}

}  // namespace

Result<PlanReport> SolveProgram(Database* db, const dl::Program& program,
                                const PlannerOptions& options) {
  // One analyzer run replaces the per-engine dl::Validate calls: planning
  // aborts on errors, warnings ride along in the report, and the static
  // counting-safety verdicts and cost ranking shape the ladder.
  analysis::AnalysisResult local_analysis;
  const analysis::AnalysisResult& analysis =
      AnalysisFor(db, program, options, &local_analysis);
  MCM_RETURN_NOT_OK(analysis.ToStatus());
  MCM_ASSIGN_OR_RETURN(Route route,
                       PlanRoute(*db, program, options, analysis));
  const dl::Query& query = program.queries[0];

  std::vector<PlanAttempt> attempts;
  AccessStats before = db->stats();
  auto finish_report = [&analysis, &attempts, db, &before](PlanReport report) {
    report.diagnostics = analysis.diagnostics.diagnostics();
    report.safety = analysis.safety;
    report.cost = analysis.cost;
    report.attempts = std::move(attempts);
    report.stats.tuples_read = db->stats().tuples_read - before.tuples_read;
    return report;
  };

  // Governor for the non-ladder paths (support materialization, magic
  // rewriting, bottom-up). Ladder tiers build their own per-attempt
  // deadline inside the solver so a retry gets a fresh budget.
  runtime::ExecutionContext planner_ctx;
  const runtime::ExecutionContext* governor = options.run.context;
  if (governor == nullptr && options.run.timeout_ms > 0) {
    planner_ctx =
        runtime::ExecutionContext::WithTimeout(options.run.timeout_ms);
    governor = &planner_ctx;
  }
  auto governed_eopts = [&options, governor]() {
    eval::EvalOptions eopts;
    eopts.max_iterations = options.run.max_iterations;
    eopts.max_tuples = options.run.max_tuples;
    eopts.max_memory_bytes = options.run.max_memory_bytes;
    eopts.context = governor;
    return eopts;
  };

  if (route.path == Route::Path::kStronglyLinear) {
    const rewrite::QueryShape& shape = *route.shape;
    // Materialize derived support predicates first.
    if (!shape.support.rules.empty()) {
      eval::EvalOptions eopts = governed_eopts();
      eopts.assume_validated = true;
      eval::Engine engine(db, eopts);
      MCM_RETURN_NOT_OK(engine.Run(shape.support));
    }
    std::string how;
    rewrite::CslQuery csl = shape.csl;
    if (shape.form == rewrite::QueryForm::kComposed) {
      MCM_ASSIGN_OR_RETURN(csl,
                           rewrite::MaterializeStronglyLinear(db, shape.slq));
      how = " via composed L/E/R (" + shape.slq.ToString() + ")";
    } else if (shape.form == rewrite::QueryForm::kReverseBound) {
      // Reverse-bound query P(X, b): run the mirrored forward query over
      // (L'=R, E'=E swapped, R'=L).
      MCM_RETURN_NOT_OK(rewrite::MaterializeSwappedE(db, shape.original_e,
                                                     rewrite::kSwappedE));
      how = " via reverse binding (mirrored query)";
    }
    Value a = rewrite::ResolveSource(csl, db);
    CslSolver solver(db, csl.l, csl.e, csl.r, a);

    // Every rung evaluates a machine-generated rewrite of the program the
    // analyzer above already validated, so the engine may skip its
    // per-rung re-validation.
    RunOptions run_options = options.run;
    run_options.assume_validated = true;
    analysis::Verdict counting_verdict =
        analysis.safety.VerdictFor("counting");

    Status last = Status::OK();
    for (const Rung& rung : route.rungs) {
      std::string name = TierName(rung);
      Timer attempt_timer;
      Status injected =
          util::FaultInjection::Instance().Check("planner/" + name);
      Result<MethodRun> run = injected.ok()
                                  ? RunTier(&solver, rung, run_options)
                                  : Result<MethodRun>(injected);
      PlanAttempt attempt;
      attempt.method = name;
      attempt.status = run.ok() ? Status::OK() : run.status();
      attempt.abort = runtime::ClassifyAbort(attempt.status);
      attempt.seconds = attempt_timer.ElapsedSeconds();
      attempt.predicted_reads = PredictedFor(analysis.cost, rung);
      attempts.push_back(std::move(attempt));
      if (run.ok()) {
        PlanReport report;
        report.kind = rung.kind;
        report.predicted_reads = attempts.back().predicted_reads;
        report.description =
            TierDescription(rung, counting_verdict) + " over " +
            csl.ToString() + how +
            (shape.support.rules.empty() ? "" : " with materialized support") +
            route.note +
            (route.ranked ? "; method order auto-selected by predicted cost"
                          : "");
        if (attempts.size() > 1) {
          report.description +=
              "; degradation ladder: " + AttemptLogSummary(attempts);
        }
        report.detected_class = run->detected_class;
        for (Value v : run->answers) report.results.push_back(Tuple{v});
        return finish_report(std::move(report));
      }
      last = run.status();
      if (!IsRecoverableAbort(last)) break;
    }
    return WithAttemptLog(last, attempts);
  }

  if (route.path == Route::Path::kMagicRewrite) {
    MCM_RETURN_NOT_OK(
        util::FaultInjection::Instance().Check("planner/magic_rewrite"));
    eval::Engine engine(db, governed_eopts());
    // Note: the rewritten program is *not* the analyzed one (magic
    // predicates violate the head-boundedness checks by design), so it is
    // validated by the engine as usual.
    Timer attempt_timer;
    Status st = engine.Run(route.magic->program);
    attempts.push_back(PlanAttempt{"magic_rewrite", st,
                                   runtime::ClassifyAbort(st),
                                   attempt_timer.ElapsedSeconds()});
    if (st.ok()) {
      MCM_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                           engine.Query(route.magic->adorned_goal));
      PlanReport report;
      report.kind = PlanKind::kMagicSets;
      report.description = "generalized magic sets (goal pattern drives " +
                           route.magic->adorned_goal.predicate + ")";
      report.results = std::move(tuples);
      return finish_report(std::move(report));
    }
    // The governor's deadline/cancellation is global to this plan, so a
    // retry cannot succeed — propagate. Other failures (non-stratifiable
    // or unsafe rewritten program, cap trips) degrade to bottom-up when the
    // ladder holds that rung.
    if (st.IsCancelled() || st.IsDeadlineExceeded() ||
        !Holds(options.ladder, Rung::Kind::kBottomUp)) {
      return WithAttemptLog(st, attempts);
    }
  }

  // Plain bottom-up evaluation.
  MCM_RETURN_NOT_OK(
      util::FaultInjection::Instance().Check("planner/bottom_up"));
  eval::EvalOptions eopts = governed_eopts();
  eopts.assume_validated = true;  // the analyzer above already validated
  eval::Engine engine(db, eopts);
  Timer attempt_timer;
  Status st = engine.Run(program);
  attempts.push_back(PlanAttempt{"bottom_up", st, runtime::ClassifyAbort(st),
                                 attempt_timer.ElapsedSeconds()});
  if (!st.ok()) return WithAttemptLog(st, attempts);
  MCM_ASSIGN_OR_RETURN(std::vector<Tuple> tuples, engine.Query(query.goal));
  PlanReport report;
  report.kind = PlanKind::kBottomUp;
  report.description = "bottom-up seminaive evaluation";
  report.results = std::move(tuples);
  return finish_report(std::move(report));
}

Result<PlanReport> ExplainProgram(const Database* db,
                                  const dl::Program& program,
                                  const PlannerOptions& options) {
  analysis::AnalysisResult local_analysis;
  const analysis::AnalysisResult& analysis =
      AnalysisFor(db, program, options, &local_analysis);
  MCM_RETURN_NOT_OK(analysis.ToStatus());
  MCM_ASSIGN_OR_RETURN(Route route,
                       PlanRoute(*db, program, options, analysis));

  PlanReport report;
  report.diagnostics = analysis.diagnostics.diagnostics();
  report.safety = analysis.safety;
  report.cost = analysis.cost;
  switch (route.path) {
    case Route::Path::kStronglyLinear: {
      const Rung& chosen = route.rungs.front();
      std::vector<std::string> ids;
      for (const Rung& rung : route.rungs) {
        PlanAttempt attempt;
        attempt.method = rung.Id();
        attempt.predicted_reads = PredictedFor(analysis.cost, rung);
        ids.push_back(attempt.method);
        report.attempts.push_back(std::move(attempt));
      }
      report.kind = chosen.kind;
      report.predicted_reads = PredictedFor(analysis.cost, chosen);
      report.description =
          "explain: would run " + chosen.Id() + " over " +
          analysis.safety.signature +
          (route.ranked ? " (order auto-selected by predicted cost)" : "") +
          route.note + "; ladder: " + Join(ids, " -> ");
      break;
    }
    case Route::Path::kMagicRewrite:
      report.kind = PlanKind::kMagicSets;
      report.description =
          "explain: would run generalized magic sets (goal pattern drives " +
          program.queries[0].goal.predicate + ")";
      break;
    case Route::Path::kBottomUp:
      report.kind = PlanKind::kBottomUp;
      report.description = "explain: would run bottom-up seminaive evaluation";
      break;
  }
  return report;
}

}  // namespace mcm::core
