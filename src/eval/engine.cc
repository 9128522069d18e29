#include "eval/engine.h"

#include <algorithm>
#include <unordered_map>

#include "datalog/parser.h"
#include "datalog/validate.h"
#include "util/fault_injection.h"

namespace mcm::eval {

Status Engine::Run(const dl::Program& program) {
  if (!options_.assume_validated) {
    MCM_RETURN_NOT_OK(dl::Validate(program));
  }
  MCM_ASSIGN_OR_RETURN(Stratification strat, Stratify(program));
  info_ = EvalRunInfo{};
  info_.strata = strat.strata.size();

  // Create all relations mentioned by the program (EDB relations may already
  // exist and stay untouched).
  for (const auto& [pred, arity] : program.PredicateArities()) {
    Relation* existing = db_->Find(pred);
    if (existing != nullptr) {
      if (existing->arity() != arity) {
        return Status::InvalidArgument(
            "relation '" + pred + "' exists with arity " +
            std::to_string(existing->arity()) + ", program uses " +
            std::to_string(arity));
      }
    } else {
      db_->GetOrCreateRelation(pred, arity);
    }
  }

  profile_.clear();
  if (options_.profile) {
    profile_.resize(program.rules.size());
    for (size_t i = 0; i < program.rules.size(); ++i) {
      profile_[i].rule = program.rules[i].ToString();
    }
  }

  // Compile all rules once.
  std::vector<CompiledRule> compiled;
  compiled.reserve(program.rules.size());
  for (const dl::Rule& r : program.rules) {
    MCM_ASSIGN_OR_RETURN(CompiledRule cr, CompiledRule::Compile(r, db_));
    compiled.push_back(std::move(cr));
  }

  for (size_t i = 0; i < strat.strata.size(); ++i) {
    MCM_FAULT_POINT("engine/stratum");
    MCM_RETURN_NOT_OK(EvaluateStratum(i, strat.strata[i], compiled));
  }
  return Status::OK();
}

Status Engine::Abort(runtime::AbortReason reason, size_t stratum_index,
                     const Stratum& stratum, const std::string& detail) {
  info_.abort_reason = reason;
  info_.abort_stratum = stratum_index;

  std::string msg = detail + " in recursive stratum #" +
                    std::to_string(stratum_index) + " containing '" +
                    stratum.predicates[0] + "'";
  // With profiling on, name the stratum's hottest rule so the user sees
  // *where* the budget went, not just that it ran out.
  if (options_.profile && !profile_.empty()) {
    const RuleProfile* hottest = nullptr;
    for (size_t ri : stratum.rule_indices) {
      const RuleProfile& p = profile_[ri];
      if (hottest == nullptr || p.tuples_read > hottest->tuples_read) {
        hottest = &p;
      }
    }
    if (hottest != nullptr && hottest->tuples_read > 0) {
      info_.abort_rule = hottest->rule;
      msg += "; hottest rule: " + hottest->rule + " (" +
             std::to_string(hottest->tuples_read) + " tuple reads)";
    }
  }

  switch (reason) {
    case runtime::AbortReason::kDeadlineExceeded:
      return Status::DeadlineExceeded(msg);
    case runtime::AbortReason::kCancelled:
      return Status::Cancelled(msg);
    default:
      return Status::Unsafe(msg);
  }
}

Status Engine::EvaluateStratum(size_t stratum_index, const Stratum& stratum,
                               const std::vector<CompiledRule>& rules) {
  // Governor poll + abort bookkeeping shared by every check below.
  auto governor_check = [&]() -> Status {
    if (options_.context == nullptr) return Status::OK();
    runtime::AbortReason reason = options_.context->CheckAbort();
    if (reason == runtime::AbortReason::kNone) return Status::OK();
    return Abort(reason, stratum_index, stratum,
                 reason == runtime::AbortReason::kCancelled
                     ? "evaluation cancelled"
                     : "wall-clock deadline exceeded");
  };

  // Every relation a rule touches exists by now (Run created them), and
  // none is created or dropped during the stratum: resolve each rule's
  // body sources and head relation once.
  struct Resolved {
    std::vector<BodySource> sources;
    Relation* out;
  };
  auto resolve = [this](const CompiledRule& cr) {
    return Resolved{cr.FullSources(*db_),
                    db_->Find(cr.rule().head.predicate)};
  };
  std::vector<Resolved> full;
  full.reserve(stratum.rule_indices.size());
  for (size_t ri : stratum.rule_indices) full.push_back(resolve(rules[ri]));

  MCM_RETURN_NOT_OK(governor_check());

  // --- Non-recursive stratum: a single pass over its rules suffices. ---
  if (!stratum.recursive) {
    for (size_t k = 0; k < stratum.rule_indices.size(); ++k) {
      const size_t ri = stratum.rule_indices[k];
      info_.tuples_derived +=
          EvaluateRule(ri, rules[ri], full[k].sources, full[k].out);
    }
    ++info_.iterations;
    return Status::OK();
  }

  // --- Recursive stratum. ---
  // Local predicates by slot; a seminaive delta of local predicate p is the
  // id range [delta_lo[p], delta_hi[p]) of its full relation.
  std::unordered_map<std::string, size_t> local;
  std::vector<const Relation*> local_rel;
  for (const std::string& pred : stratum.predicates) {
    local.emplace(pred, local_rel.size());
    local_rel.push_back(db_->Find(pred));
  }

  // Pre-compile delta-first variants: for each rule and each body position
  // holding a local predicate, a copy of the rule whose join order starts
  // at that position, and that reads the delta there. This is what makes
  // seminaive rounds cost O(|delta| * fanout) instead of O(|relation|) per
  // round.
  struct DeltaVariant {
    size_t rule_index;
    size_t pos;    // body position reading the delta
    size_t local;  // slot of the predicate at `pos`
    CompiledRule compiled;
    Resolved resolved;
  };
  std::vector<DeltaVariant> variants;
  for (size_t ri : stratum.rule_indices) {
    const CompiledRule& cr = rules[ri];
    for (size_t pos : cr.positive_positions()) {
      auto it = local.find(cr.rule().body[pos].atom.predicate);
      if (it == local.end()) continue;
      auto order = CompiledRule::DeltaFirstOrder(cr.rule(), pos);
      Result<CompiledRule> variant =
          CompiledRule::Compile(cr.rule(), db_, std::move(order));
      if (!variant.ok()) {
        // Reordering rejected (e.g. affine-binding constraints): fall back
        // to the written order; correctness is unaffected.
        variant = CompiledRule::Compile(cr.rule(), db_);
        MCM_RETURN_NOT_OK(variant.status());
      }
      Resolved resolved = resolve(*variant);
      variants.push_back({ri, pos, it->second, std::move(variant).value(),
                          std::move(resolved)});
    }
  }

  // Pre-existing tuples of local predicates (e.g. facts inserted by lower
  // passes or by the caller) participate as initial deltas.
  std::vector<uint32_t> delta_lo(local_rel.size(), 0);
  std::vector<uint32_t> delta_hi(local_rel.size(), 0);

  // Round 0: naive pass so that derivations needing no recursive tuple
  // (exit rules) fire.
  uint64_t stratum_tuples = 0;
  auto naive_pass = [&]() {
    for (size_t k = 0; k < stratum.rule_indices.size(); ++k) {
      const size_t ri = stratum.rule_indices[k];
      MCM_FAULT_POINT("engine/insert");
      size_t n = EvaluateRule(ri, rules[ri], full[k].sources, full[k].out);
      info_.tuples_derived += n;
      stratum_tuples += n;
    }
    return Status::OK();
  };
  MCM_RETURN_NOT_OK(naive_pass());
  ++info_.iterations;

  uint64_t rounds = 1;
  while (true) {
    MCM_FAULT_POINT("engine/round");
    MCM_RETURN_NOT_OK(governor_check());
    // Deltas: for each local predicate, the id range added since the
    // previous round (append-only storage makes this a range).
    bool any_delta = false;
    for (size_t p = 0; p < local_rel.size(); ++p) {
      delta_lo[p] = delta_hi[p];
      delta_hi[p] = static_cast<uint32_t>(local_rel[p]->size());
      if (delta_hi[p] > delta_lo[p]) any_delta = true;
    }
    if (!any_delta) break;

    if (options_.max_iterations != 0 && rounds > options_.max_iterations) {
      return Abort(runtime::AbortReason::kIterationCap, stratum_index,
                   stratum,
                   "fixpoint exceeded iteration cap (" +
                       std::to_string(options_.max_iterations) +
                       "), likely divergent (cyclic data)");
    }

    if (!options_.seminaive) {
      // Naive round: every rule against full relations.
      MCM_RETURN_NOT_OK(naive_pass());
    } else {
      // Seminaive round: for each rule and each body position holding a
      // local (same-stratum) predicate, evaluate the delta-first variant
      // where that position reads the delta and all others read the full
      // relation.
      for (DeltaVariant& dv : variants) {
        dv.resolved.sources[dv.pos].range =
            IdRange{delta_lo[dv.local], delta_hi[dv.local]};
        MCM_FAULT_POINT("engine/insert");
        size_t n = EvaluateRule(dv.rule_index, dv.compiled,
                                dv.resolved.sources, dv.resolved.out);
        info_.tuples_derived += n;
        stratum_tuples += n;
      }
    }
    ++info_.iterations;
    ++rounds;

    if (options_.max_tuples != 0 && stratum_tuples > options_.max_tuples) {
      return Abort(runtime::AbortReason::kTupleCap, stratum_index, stratum,
                   "fixpoint exceeded tuple cap (" +
                       std::to_string(options_.max_tuples) + ")");
    }
    if (options_.max_memory_bytes != 0 &&
        db_->ApproxBytes() > options_.max_memory_bytes) {
      return Abort(runtime::AbortReason::kMemoryBudget, stratum_index,
                   stratum,
                   "fixpoint exceeded memory budget (" +
                       std::to_string(options_.max_memory_bytes) +
                       " bytes, ~" + std::to_string(db_->ApproxBytes()) +
                       " in use)");
    }
  }
  return Status::OK();
}

size_t Engine::EvaluateRule(size_t rule_index, const CompiledRule& cr,
                            const std::vector<BodySource>& sources,
                            Relation* out) {
  if (!options_.profile) return cr.Evaluate(sources, out);
  uint64_t reads_before = db_->stats().tuples_read;
  size_t derived = cr.Evaluate(sources, out);
  RuleProfile& p = profile_[rule_index];
  p.evaluations++;
  p.tuples_derived += derived;
  p.tuples_read += db_->stats().tuples_read - reads_before;
  return derived;
}

std::string Engine::ProfileToString() const {
  std::vector<const RuleProfile*> sorted;
  sorted.reserve(profile_.size());
  for (const RuleProfile& p : profile_) sorted.push_back(&p);
  std::sort(sorted.begin(), sorted.end(),
            [](const RuleProfile* a, const RuleProfile* b) {
              return a->tuples_read > b->tuples_read;
            });
  std::string out = "rule profile (by tuple reads):\n";
  for (const RuleProfile* p : sorted) {
    out += "  reads=" + std::to_string(p->tuples_read) +
           " derived=" + std::to_string(p->tuples_derived) +
           " evals=" + std::to_string(p->evaluations) + "  " + p->rule +
           "\n";
  }
  return out;
}

Result<std::vector<Tuple>> Engine::Query(const dl::Atom& goal) const {
  const Relation* rel = db_->Find(goal.predicate);
  if (rel == nullptr) {
    return Status::NotFound("relation '" + goal.predicate + "' not found");
  }
  if (rel->arity() != goal.arity()) {
    return Status::InvalidArgument("goal arity mismatch for '" +
                                   goal.predicate + "'");
  }
  // Resolve constant positions.
  std::vector<std::pair<uint32_t, Value>> filters;
  for (uint32_t i = 0; i < goal.args.size(); ++i) {
    const dl::Term& t = goal.args[i];
    if (t.kind == dl::Term::Kind::kInt) {
      filters.emplace_back(i, t.value);
    } else if (t.kind == dl::Term::Kind::kSymbol) {
      Value v = db_->symbols().Find(t.name);
      if (v < 0) return std::vector<Tuple>{};  // unknown symbol: no matches
      filters.emplace_back(i, v);
    } else if (t.IsAffine()) {
      return Status::InvalidArgument("affine term in query goal");
    }
  }
  std::vector<Tuple> out;
  for (const Tuple& t : rel->TuplesUnchecked()) {
    bool match = true;
    for (const auto& [col, val] : filters) {
      if (t[col] != val) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(t);
  }
  return out;
}

Result<std::vector<Tuple>> Engine::Query(const std::string& goal_text) const {
  MCM_ASSIGN_OR_RETURN(dl::Atom goal, dl::ParseAtom(goal_text));
  return Query(goal);
}

Result<std::vector<Tuple>> RunProgram(Database* db, const dl::Program& program,
                                      EvalOptions options) {
  Engine engine(db, options);
  MCM_RETURN_NOT_OK(engine.Run(program));
  if (program.queries.size() != 1) {
    return Status::InvalidArgument("RunProgram expects exactly one query");
  }
  return engine.Query(program.queries[0].goal);
}

}  // namespace mcm::eval
