#include "analysis/safety.h"

#include <algorithm>

#include "graph/query_graph.h"

namespace mcm::analysis {

using dl::DiagCode;

std::string_view VerdictToString(Verdict v) {
  switch (v) {
    case Verdict::kSafe: return "safe";
    case Verdict::kUnsafe: return "UNSAFE";
    case Verdict::kUnknown: return "unknown";
  }
  return "?";
}

std::vector<std::string> CountingSafetyReport::UnsafeMethods() const {
  std::vector<std::string> out;
  for (const MethodVerdict& v : verdicts) {
    if (v.verdict == Verdict::kUnsafe) out.push_back(v.method);
  }
  return out;
}

Verdict CountingSafetyReport::VerdictFor(const std::string& method) const {
  for (const MethodVerdict& v : verdicts) {
    if (v.method == method) return v.verdict;
  }
  return Verdict::kUnknown;
}

std::string CountingSafetyReport::ToString() const {
  std::string out = "counting-safety verdicts (" +
                    std::string(QueryFormToString(form));
  if (analyzed) {
    out += "; magic graph over '" + l_predicate +
           "': " + graph::GraphClassToString(graph_class) + ", " +
           std::to_string(magic_nodes) + " node(s) / " +
           std::to_string(magic_arcs) + " arc(s), " +
           std::to_string(recurring_nodes) + " recurring";
  } else {
    out += "; magic graph not analyzed";
  }
  out += "):\n";
  size_t width = 0;
  for (const MethodVerdict& v : verdicts) {
    width = std::max(width, v.method.size());
  }
  for (const MethodVerdict& v : verdicts) {
    out += "  " + v.method + std::string(width - v.method.size() + 2, ' ');
    std::string verdict(VerdictToString(v.verdict));
    out += verdict + std::string(verdict.size() < 8 ? 8 - verdict.size() : 1,
                                 ' ');
    out += v.reason + "\n";
  }
  return out;
}

namespace {

/// The recursive rules of the goal predicate (for warning spans).
dl::Span RecursiveRuleSpan(const dl::Program& program,
                           const std::string& goal_pred) {
  for (const dl::Rule& r : program.rules) {
    if (r.head.predicate != goal_pred) continue;
    for (const dl::Literal& l : r.body) {
      if (l.kind == dl::Literal::Kind::kAtom &&
          l.atom.predicate == goal_pred) {
        return r.span();
      }
    }
  }
  return dl::Span{};
}

}  // namespace

bool ResolveGroundTerm(const dl::Term& t, const SymbolTable& symbols,
                       Value* out) {
  if (t.kind == dl::Term::Kind::kInt) {
    *out = t.value;
    return true;
  }
  if (t.kind == dl::Term::Kind::kSymbol) {
    Value v = symbols.Find(t.name);
    if (v < 0) return false;
    *out = v;
    return true;
  }
  return false;
}

void MaterializeGroundFacts(const dl::Program& program, const std::string& pred,
                            Database* scratch) {
  for (const dl::Rule& r : program.rules) {
    if (!r.IsFact() || r.head.predicate != pred) continue;
    if (r.head.arity() > kMaxTupleArity) continue;
    Relation* rel = scratch->GetOrCreateRelation(pred, r.head.arity());
    if (rel->arity() != r.head.arity()) continue;
    Tuple t(r.head.arity());
    bool ground = true;
    for (uint32_t i = 0; i < r.head.arity(); ++i) {
      const dl::Term& arg = r.head.args[i];
      if (arg.kind == dl::Term::Kind::kInt) {
        t[i] = arg.value;
      } else if (arg.kind == dl::Term::Kind::kSymbol) {
        t[i] = scratch->symbols().Intern(arg.name);
      } else {
        ground = false;
        break;
      }
    }
    if (ground) rel->Insert(t);
  }
}

namespace {

void AddMcVerdicts(CountingSafetyReport* report) {
  struct VariantRow {
    const char* name;
    const char* regular;
    const char* acyclic;
    const char* cyclic;
  };
  static constexpr VariantRow kRows[] = {
      {"basic",
       "regular graph: counting covers the whole magic set",
       "non-regular graph detected: falls back to RM = MS (pure magic)",
       "non-regular graph detected: falls back to RM = MS (pure magic)"},
      {"single",
       "regular graph: i_x = +inf, counting covers the whole magic set",
       "counting restricted to indices below i_x; rest to RM",
       "counting restricted to indices below i_x; recurring nodes to RM"},
      {"multiple",
       "regular graph: every node single, counting covers everything",
       "counting keeps single nodes; multiple nodes to RM",
       "counting keeps single nodes; recurring/multiple nodes to RM"},
      {"recurring",
       "regular graph: counting covers everything",
       "counting keeps all finite index sets (single + multiple nodes)",
       "recurring nodes to RM; counting keeps the finite index sets"},
  };
  for (const VariantRow& row : kRows) {
    std::string reason;
    if (!report->analyzed) {
      reason = "safe on every instance (Proposition 3: Step 1 routes "
               "divergent nodes to RM)";
    } else {
      switch (report->graph_class) {
        case graph::GraphClass::kRegular: reason = row.regular; break;
        case graph::GraphClass::kAcyclicNonRegular:
          reason = row.acyclic;
          break;
        case graph::GraphClass::kCyclic: reason = row.cyclic; break;
      }
    }
    for (const char* mode : {"ind", "int"}) {
      MethodVerdict v;
      v.method = std::string("mc/") + row.name + "/" + mode;
      v.verdict = Verdict::kSafe;
      v.reason = reason;
      report->verdicts.push_back(std::move(v));
    }
  }
}

}  // namespace

CountingSafetyReport AnalyzeCountingSafety(const dl::Program& program,
                                           const rewrite::QueryShape& shape,
                                           const Database* db,
                                           dl::DiagnosticBag* bag) {
  CountingSafetyReport report;
  report.form = shape.form;
  // Outside the paper's class: nothing to report.
  if (shape.form == QueryForm::kNotStronglyLinear) return report;
  report.source_term = shape.slq.source;
  std::string unknown_reason;
  if (shape.form == QueryForm::kComposed) {
    const rewrite::StronglyLinearQuery& slq = shape.slq;
    report.signature = slq.ToString();
    if (slq.prefix_is_atom) {
      report.l_predicate = slq.prefix[0].atom.predicate;
    } else {
      unknown_reason =
          "the L-part is a conjunction; its graph exists only after "
          "materialization";
    }
    if (slq.exit_is_atom) {
      report.e_predicate = slq.exit_body[0].atom.predicate;
    }
    if (slq.suffix_is_atom) {
      report.r_predicate = slq.suffix[0].atom.predicate;
    }
  } else {
    // A reverse-bound query's magic graph is the graph of the original R
    // (the mirrored L); its mirrored E only exists after materialization,
    // so e_predicate stays empty.
    report.signature = shape.csl.ToString();
    report.l_predicate = shape.csl.l;
    if (shape.form == QueryForm::kCanonical) {
      report.e_predicate = shape.csl.e;
    }
    report.r_predicate = shape.csl.r;
  }

  const dl::Query& query = program.queries[0];
  bag->Add(DiagCode::kQueryClassCsl, query.span(),
           "query is " + std::string(QueryFormToString(report.form)) + ": " +
               report.signature);

  // Pick the EDB statistics source: a caller-supplied database that already
  // holds the L relation wins; otherwise in-program ground facts are
  // materialized into a scratch database.
  Database scratch;
  const Relation* l_rel = nullptr;
  const SymbolTable* symbols = nullptr;
  if (!report.l_predicate.empty()) {
    if (db != nullptr && db->Find(report.l_predicate) != nullptr) {
      l_rel = db->Find(report.l_predicate);
      symbols = &db->symbols();
    } else {
      MaterializeGroundFacts(program, report.l_predicate, &scratch);
      if (const Relation* rel = scratch.Find(report.l_predicate);
          rel != nullptr && !rel->empty()) {
        l_rel = rel;
        symbols = &scratch.symbols();
      } else {
        unknown_reason = "no facts or stored relation for '" +
                         report.l_predicate + "'";
      }
    }
  }

  Value source = 0;
  bool have_source = false;
  if (l_rel != nullptr && l_rel->arity() == 2) {
    have_source = ResolveGroundTerm(report.source_term, *symbols, &source);
    if (!have_source) {
      // The query constant never occurs in the data: the magic graph is the
      // isolated source node — trivially regular, every method safe.
      report.analyzed = true;
      report.graph_class = graph::GraphClass::kRegular;
      report.magic_nodes = 1;
      report.single_nodes = 1;
    }
  } else if (l_rel != nullptr && l_rel->arity() != 2) {
    unknown_reason = "relation '" + report.l_predicate + "' is not binary";
    l_rel = nullptr;
  }

  if (l_rel != nullptr && have_source) {
    // The magic graph depends only on the L arcs and the source, so empty
    // E/R stand-ins suffice for classification.
    Relation empty_e("mcm_lint_e", 2), empty_r("mcm_lint_r", 2);
    auto qg = graph::QueryGraph::Build(*l_rel, empty_e, empty_r, source);
    if (qg.ok()) {
      graph::MagicGraphAnalysis mga =
          graph::AnalyzeMagicGraph(qg->magic_graph(), qg->source());
      report.analyzed = true;
      report.graph_class = mga.graph_class;
      report.magic_nodes = qg->n_l();
      report.magic_arcs = qg->m_l();
      for (graph::NodeClass c : mga.node_class) {
        switch (c) {
          case graph::NodeClass::kSingle: ++report.single_nodes; break;
          case graph::NodeClass::kMultiple: ++report.multiple_nodes; break;
          case graph::NodeClass::kRecurring: ++report.recurring_nodes; break;
        }
      }
    } else {
      unknown_reason = qg.status().message();
    }
  }

  // --- Verdict table --------------------------------------------------
  {
    MethodVerdict v;
    v.method = "counting";
    if (!report.analyzed) {
      v.verdict = Verdict::kUnknown;
      v.reason = "cannot build the magic graph statically (" +
                 (unknown_reason.empty() ? std::string("no EDB statistics")
                                         : unknown_reason) +
                 ")";
    } else if (report.graph_class == graph::GraphClass::kCyclic) {
      v.verdict = Verdict::kUnsafe;
      v.reason = "magic graph is cyclic (" +
                 std::to_string(report.recurring_nodes) +
                 " recurring node(s)): the counting-set fixpoint diverges; "
                 "Theorem 1(b) cannot hold";
    } else {
      v.verdict = Verdict::kSafe;
      v.reason = "magic graph is acyclic: every index set I_b is finite";
    }
    report.verdicts.push_back(std::move(v));
  }
  {
    MethodVerdict v;
    v.method = "magic_sets";
    v.verdict = Verdict::kSafe;
    v.reason = "safe on every instance (no counting indices involved)";
    report.verdicts.push_back(std::move(v));
  }
  AddMcVerdicts(&report);

  if (!report.analyzed) {
    bag->Add(DiagCode::kNoEdbStats, query.span(),
             "counting-safety: " +
                 (unknown_reason.empty()
                      ? std::string("no EDB statistics available")
                      : unknown_reason) +
                 "; verdicts for pure counting are structural only");
  } else if (report.graph_class == graph::GraphClass::kCyclic) {
    bag->Add(DiagCode::kCountingUnsafe,
             RecursiveRuleSpan(program, query.goal.predicate),
             "pure counting is unsafe for this instance: magic graph over '" +
                 report.l_predicate + "' is cyclic (" +
                 std::to_string(report.recurring_nodes) + " of " +
                 std::to_string(report.magic_nodes) +
                 " node(s) recurring); unsafe methods: counting "
                 "(independent and integrated); safe alternatives: "
                 "magic_sets and every magic counting method "
                 "(mc/basic..mc/recurring routes recurring nodes to the "
                 "magic side)");
  }

  return report;
}

}  // namespace mcm::analysis
