#include "eval/rule_eval.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "datalog/validate.h"

namespace mcm::eval {

namespace {

// Env slot assignment for variables, in first-binding order.
class SlotMap {
 public:
  int Lookup(const std::string& name) const {
    auto it = slots_.find(name);
    return it == slots_.end() ? -1 : it->second;
  }
  int Assign(const std::string& name) {
    auto it = slots_.find(name);
    if (it != slots_.end()) return it->second;
    int slot = static_cast<int>(names_.size());
    slots_.emplace(name, slot);
    names_.push_back(name);
    return slot;
  }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::unordered_map<std::string, int> slots_;
  std::vector<std::string> names_;
};

}  // namespace

std::vector<size_t> CompiledRule::DeltaFirstOrder(const dl::Rule& rule,
                                                  size_t first_pos) {
  std::vector<size_t> positives;
  for (size_t pos = 0; pos < rule.body.size(); ++pos) {
    if (rule.body[pos].IsPositiveAtom() && pos != first_pos) {
      positives.push_back(pos);
    }
  }
  std::vector<size_t> order{first_pos};
  std::unordered_set<std::string> bound;
  auto bind_atom_vars = [&](size_t pos) {
    for (const dl::Term& t : rule.body[pos].atom.args) {
      if (t.IsVariable()) bound.insert(t.name);
    }
  };
  bind_atom_vars(first_pos);
  while (!positives.empty()) {
    size_t best_i = 0;
    int best_score = -1;
    for (size_t i = 0; i < positives.size(); ++i) {
      int score = 0;
      for (const dl::Term& t : rule.body[positives[i]].atom.args) {
        if (t.IsConstant() ||
            ((t.IsVariable() || t.IsAffine()) && bound.count(t.name) > 0)) {
          ++score;
        }
      }
      if (score > best_score) {
        best_score = score;
        best_i = i;
      }
    }
    size_t pos = positives[best_i];
    positives.erase(positives.begin() + static_cast<ptrdiff_t>(best_i));
    order.push_back(pos);
    bind_atom_vars(pos);
  }
  return order;
}

Result<CompiledRule> CompiledRule::Compile(const dl::Rule& rule, Database* db,
                                           std::vector<size_t> join_order) {
  MCM_RETURN_NOT_OK(dl::ValidateRule(rule));

  CompiledRule cr;
  cr.rule_ = rule;
  SlotMap slots;

  // Default join order: positive atoms as written.
  if (join_order.empty()) {
    for (size_t pos = 0; pos < rule.body.size(); ++pos) {
      if (rule.body[pos].IsPositiveAtom()) join_order.push_back(pos);
    }
  }

  auto intern = [&](const dl::Term& t) -> Value {
    assert(t.IsConstant());
    if (t.kind == dl::Term::Kind::kInt) return t.value;
    return db->symbols().Intern(t.name);
  };

  // Build a BoundTerm for a term whose variables must already be assigned.
  auto bound_term = [&](const dl::Term& t) -> BoundTerm {
    BoundTerm bt;
    if (t.IsConstant()) {
      bt.kind = BoundTerm::Kind::kConstant;
      bt.constant = intern(t);
    } else if (t.IsAffine()) {
      bt.kind = BoundTerm::Kind::kAffine;
      bt.var = slots.Lookup(t.name);
      bt.offset = t.value;
      assert(bt.var >= 0);
    } else {
      bt.kind = BoundTerm::Kind::kVariable;
      bt.var = slots.Lookup(t.name);
      assert(bt.var >= 0);
    }
    return bt;
  };

  // Pass 1: collect positive atoms in join order, assigning variable slots
  // and classifying each argument as probe (bound) vs bind (free).
  std::unordered_set<std::string> bound_vars;
  for (size_t pos : join_order) {
    const dl::Literal& lit = rule.body[pos];
    if (!lit.IsPositiveAtom()) {
      return Status::InvalidArgument(
          "join_order position is not a positive atom");
    }
    cr.positive_positions_.push_back(pos);

    JoinStep step;
    step.body_pos = pos;
    std::unordered_set<std::string> locally_bound;
    for (uint32_t col = 0; col < lit.atom.args.size(); ++col) {
      const dl::Term& t = lit.atom.args[col];
      if (t.IsConstant()) {
        BoundTerm bt;
        bt.kind = BoundTerm::Kind::kConstant;
        bt.constant = intern(t);
        step.args.push_back(bt);
        step.probe_cols.push_back(col);
      } else if (t.IsAffine()) {
        // Validator guarantees the base variable is bound elsewhere; if it
        // is bound *before* this atom, the affine value is a probe key.
        if (bound_vars.count(t.name) == 0) {
          return Status::Unsupported(
              "affine term '" + t.ToString() +
              "' must be bound before its positive occurrence in: " +
              rule.ToString());
        }
        BoundTerm bt;
        bt.kind = BoundTerm::Kind::kAffine;
        bt.var = slots.Lookup(t.name);
        bt.offset = t.value;
        step.args.push_back(bt);
        step.probe_cols.push_back(col);
      } else {
        // Variable.
        if (bound_vars.count(t.name) > 0) {
          BoundTerm bt;
          bt.kind = BoundTerm::Kind::kVariable;
          bt.var = slots.Lookup(t.name);
          step.args.push_back(bt);
          step.probe_cols.push_back(col);
        } else if (locally_bound.count(t.name) > 0) {
          // Second occurrence within the same atom: filter, not probe —
          // the binding comes from an earlier column of this very tuple.
          int slot = slots.Lookup(t.name);
          BoundTerm bt;
          bt.kind = BoundTerm::Kind::kVariable;
          bt.var = slot;
          step.args.push_back(bt);
          step.filter_checks.emplace_back(col, slot);
        } else {
          int slot = slots.Assign(t.name);
          locally_bound.insert(t.name);
          BoundTerm bt;
          bt.kind = BoundTerm::Kind::kVariable;
          bt.var = slot;
          step.args.push_back(bt);
          step.bind_cols.push_back(col);
          step.bind_vars.push_back(slot);
        }
      }
    }
    bound_vars.insert(locally_bound.begin(), locally_bound.end());
    step.probe_mask = MaskOf(step.probe_cols);
    cr.steps_.push_back(std::move(step));
  }

  // Pass 2: attach guards (negations, comparisons) at the earliest step
  // after which all their variables are bound.
  auto vars_of_literal = [](const dl::Literal& lit) {
    std::vector<std::string> vars;
    auto visit = [&vars](const dl::Term& t) {
      if (t.IsVariable() || t.IsAffine()) vars.push_back(t.name);
    };
    if (lit.kind == dl::Literal::Kind::kAtom) {
      for (const dl::Term& t : lit.atom.args) visit(t);
    } else {
      visit(lit.cmp.lhs);
      visit(lit.cmp.rhs);
    }
    return vars;
  };

  // Variables bound after each step (prefix-cumulative).
  std::vector<std::unordered_set<std::string>> bound_after(cr.steps_.size());
  {
    std::unordered_set<std::string> acc;
    for (size_t s = 0; s < cr.steps_.size(); ++s) {
      for (int slot : cr.steps_[s].bind_vars) {
        acc.insert(slots.names()[static_cast<size_t>(slot)]);
      }
      bound_after[s] = acc;
    }
  }

  for (size_t pos = 0; pos < rule.body.size(); ++pos) {
    const dl::Literal& lit = rule.body[pos];
    if (lit.IsPositiveAtom()) continue;

    Guard g;
    if (lit.IsNegatedAtom()) {
      g.kind = Guard::Kind::kNegation;
      g.body_pos = pos;
      for (const dl::Term& t : lit.atom.args) g.args.push_back(bound_term(t));
    } else {
      g.kind = Guard::Kind::kComparison;
      g.op = lit.cmp.op;
      g.lhs = bound_term(lit.cmp.lhs);
      g.rhs = bound_term(lit.cmp.rhs);
    }

    std::vector<std::string> vars = vars_of_literal(lit);
    size_t guard_idx = cr.guards_.size();
    if (vars.empty()) {
      cr.initial_guards_.push_back(guard_idx);
    } else {
      // Earliest step after which all vars are bound.
      size_t attach = cr.steps_.size();  // sentinel: never bound
      for (size_t s = 0; s < cr.steps_.size(); ++s) {
        bool all = std::all_of(vars.begin(), vars.end(),
                               [&](const std::string& v) {
                                 return bound_after[s].count(v) > 0;
                               });
        if (all) {
          attach = s;
          break;
        }
      }
      if (attach == cr.steps_.size()) {
        return Status::InvalidArgument(
            "guard variables never bound (unsafe rule): " + rule.ToString());
      }
      cr.steps_[attach].guards.push_back(guard_idx);
    }
    cr.guards_.push_back(std::move(g));
  }

  // Head argument resolution.
  for (const dl::Term& t : rule.head.args) {
    cr.head_args_.push_back(bound_term(t));
  }

  cr.var_names_ = slots.names();

  return cr;
}

std::vector<BodySource> CompiledRule::FullSources(const Database& db) const {
  std::vector<BodySource> sources(rule_.body.size());
  for (size_t pos = 0; pos < rule_.body.size(); ++pos) {
    const dl::Literal& lit = rule_.body[pos];
    if (lit.kind == dl::Literal::Kind::kAtom) {
      sources[pos].rel = db.Find(lit.atom.predicate);
    }
  }
  return sources;
}

bool CompiledRule::CheckGuards(const std::vector<size_t>& guards,
                               const BodySource* sources,
                               const Value* env) const {
  for (size_t gi : guards) {
    const Guard& g = guards_[gi];
    if (g.kind == Guard::Kind::kComparison) {
      if (!dl::EvalCmp(g.op, Resolve(g.lhs, env), Resolve(g.rhs, env))) {
        return false;
      }
    } else {
      const Relation* rel = sources[g.body_pos].rel;
      if (rel == nullptr) continue;  // empty relation: negation holds
      Value row[kMaxTupleArity];
      for (size_t i = 0; i < g.args.size(); ++i) {
        row[i] = Resolve(g.args[i], env);
      }
      if (rel->ContainsRow(row)) return false;
    }
  }
  return true;
}

size_t CompiledRule::JoinTuple(size_t step_idx, const Value* row,
                               const BodySource* sources, Value* env,
                               Relation* out) const {
  const JoinStep& step = steps_[step_idx];
  // `row` points into the relation's arena, which the recursive call may
  // grow (a recursive rule inserts into a relation it reads): read it all
  // before recursing.
  for (size_t i = 0; i < step.bind_cols.size(); ++i) {
    env[step.bind_vars[i]] = row[step.bind_cols[i]];
  }
  // Repeated-variable filters within this atom.
  for (const auto& [col, slot] : step.filter_checks) {
    if (row[col] != env[slot]) return 0;
  }
  if (!step.guards.empty() && !CheckGuards(step.guards, sources, env)) {
    return 0;
  }
  return EvaluateFrom(step_idx + 1, sources, env, out);
}

size_t CompiledRule::EvaluateFrom(size_t step_idx, const BodySource* sources,
                                  Value* env, Relation* out) const {
  if (step_idx == steps_.size()) {
    Value row[kMaxTupleArity];
    for (size_t i = 0; i < head_args_.size(); ++i) {
      row[i] = Resolve(head_args_[i], env);
    }
    return out->InsertRow(row) ? 1 : 0;
  }

  const JoinStep& step = steps_[step_idx];
  const BodySource& src = sources[step.body_pos];
  const Relation* rel = src.rel;
  if (rel == nullptr ||
      src.range.lo >= std::min<size_t>(src.range.hi, rel->size())) {
    return 0;  // empty relation, or empty delta
  }

  size_t produced = 0;
  if (step.probe_cols.empty()) {
    // Full scan. The span is fixed now: tuples inserted while it is walked
    // are not visited.
    const TupleSpan span = rel->Scan(src.range);
    for (uint32_t id = span.first_id(); id < span.end_id(); ++id) {
      produced +=
          JoinTuple(step_idx, rel->RowUnchecked(id), sources, env, out);
    }
  } else {
    // args is stored per column in column order, so args[col] is the
    // BoundTerm for column col; probe_cols ascend, the mask's key order.
    Value key[kMaxTupleArity];
    for (size_t i = 0; i < step.probe_cols.size(); ++i) {
      key[i] = Resolve(step.args[step.probe_cols[i]], env);
    }
    if (step.bind_cols.empty()) {
      // Fully bound: membership check.
      if (rel->ContainsRow(key, src.range) &&
          CheckGuards(step.guards, sources, env)) {
        produced += EvaluateFrom(step_idx + 1, sources, env, out);
      }
    } else {
      // Index probe on the bound columns. The postings view keeps the
      // length it had at probe time, so inserts into `rel` during the
      // loop (recursive rules) are not visited.
      for (uint32_t id : rel->Probe(step.probe_mask, key, src.range)) {
        produced +=
            JoinTuple(step_idx, rel->RowUnchecked(id), sources, env, out);
      }
    }
  }
  return produced;
}

size_t CompiledRule::Evaluate(const std::vector<BodySource>& sources,
                              Relation* out) const {
  std::vector<Value> env(var_names_.size(), 0);
  // Constant-only guards.
  if (!CheckGuards(initial_guards_, sources.data(), env.data())) return 0;
  return EvaluateFrom(0, sources.data(), env.data(), out);
}

}  // namespace mcm::eval
