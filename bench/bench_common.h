// Shared helpers for the paper-reproduction benchmarks.
//
// Every benchmark reports cost in the paper's unit — tuple retrievals
// (AccessStats::tuples_read) — as google-benchmark counters:
//   reads      total retrievals of the method run (step 1 + step 2)
//   formula    the paper's Theta-expression evaluated on the instance
//   ratio      reads / formula — should flatten to a constant across the
//              size sweep if the measured cost has the predicted shape
// plus the instance parameters (n_L, m_L, m_R) for context.
#pragma once

#include <benchmark/benchmark.h>

#include <string>

#include "scenarios.h"
#include "core/solver.h"
#include "graph/classify.h"
#include "graph/query_graph.h"
#include "workload/generators.h"

namespace mcm::bench {

/// A loaded instance plus its exact magic-graph analysis.
struct Instance {
  workload::CslData data;
  Database db;
  graph::MagicGraphAnalysis analysis;
  size_t n_l = 0, m_l = 0, m_r = 0, m_e = 0;

  explicit Instance(workload::CslData d) : data(std::move(d)) {
    data.Load(&db);
    Relation empty_e("__e", 2), empty_r("__r", 2);
    auto qg = graph::QueryGraph::Build(*db.Find("l"), *db.Find("e"),
                                       *db.Find("r"), data.source);
    if (qg.ok()) {
      analysis = graph::AnalyzeMagicGraph(qg->magic_graph(), qg->source());
      n_l = qg->n_l();
      m_l = qg->m_l();
      m_r = qg->m_r();
      m_e = qg->m_e();
    }
  }

  core::CslSolver MakeSolver() {
    return core::CslSolver(&db, "l", "e", "r", data.source);
  }
};

/// Attach the standard counters to `state`.
inline void Report(benchmark::State& state, const Instance& inst,
                   const core::MethodRun& run, double formula) {
  state.counters["reads"] = static_cast<double>(run.total.tuples_read);
  state.counters["step1"] = static_cast<double>(run.step1.tuples_read);
  state.counters["formula"] = formula;
  state.counters["ratio"] =
      formula > 0 ? static_cast<double>(run.total.tuples_read) / formula : 0;
  state.counters["n_L"] = static_cast<double>(inst.n_l);
  state.counters["m_L"] = static_cast<double>(inst.m_l);
  state.counters["m_R"] = static_cast<double>(inst.m_r);
  state.counters["answers"] = static_cast<double>(run.answers.size());
}

}  // namespace mcm::bench
