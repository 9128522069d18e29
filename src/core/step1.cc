#include "core/step1.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "graph/classify.h"
#include "graph/query_graph.h"

namespace mcm::core {

namespace {

/// Per-node bookkeeping shared by the level-synchronous fixpoints.
struct NodeInfo {
  int64_t first_index = -1;
  bool flagged = false;           ///< non-single evidence seen
  std::vector<int64_t> indices;   ///< distinct recorded indices (sorted asc)
};

/// Prepare (clear or create) the three working relations.
struct WorkRels {
  Relation* ms;
  Relation* rm;
  Relation* rc;
};

WorkRels PrepareRelations(Database* db, const WorkNames& names) {
  WorkRels w;
  w.ms = db->GetOrCreateRelation(names.ms, 1);
  w.rm = db->GetOrCreateRelation(names.rm, 1);
  w.rc = db->GetOrCreateRelation(names.rc, 2);
  w.ms->Clear();
  w.rm->Clear();
  w.rc->Clear();
  return w;
}

/// The basic/single fixpoint (Section 6): BFS where each node expands only
/// once (at its first index); re-derivations merely record duplicate flags.
/// Always terminates in O(m_L) retrievals, cycles included.
Step1Result BasicSingleFixpoint(Database* db, const Relation& l, Value a,
                                bool single_variant, McMode mode,
                                const WorkNames& names,
                                DetectionMode detection) {
  std::unordered_map<Value, NodeInfo> info;
  std::vector<Value> frontier{a};
  info[a].first_index = 0;
  int64_t level = 0;
  uint64_t levels = 0;

  bool any_flagged = false;
  while (!frontier.empty()) {
    ++levels;
    std::vector<Value> next;
    for (Value x : frontier) {
      for (uint32_t id : l.ProbeColumn(0, x)) {
        Value x1 = l.RowUnchecked(id)[1];
        auto [it, fresh] = info.emplace(x1, NodeInfo{});
        NodeInfo& ni = it->second;
        if (fresh) {
          ni.first_index = level + 1;
          next.push_back(x1);
        } else {
          bool differs = ni.first_index != level + 1;
          if (detection == DetectionMode::kAnyDuplicate || differs) {
            if (!ni.flagged) {
              ni.flagged = true;
              any_flagged = true;
            }
          }
        }
      }
    }
    frontier = std::move(next);
    ++level;
  }

  WorkRels w = PrepareRelations(db, names);
  Step1Result out;
  out.levels = levels;

  for (const auto& [v, ni] : info) w.ms->Insert(Tuple{v});
  out.ms_size = w.ms->size();

  if (!any_flagged) {
    // Regular graph: pure counting.
    for (const auto& [v, ni] : info) {
      w.rc->Insert(Tuple{ni.first_index, v});
    }
    out.detected = graph::GraphClass::kRegular;
  } else if (!single_variant) {
    // Basic method: all-magic.
    for (const auto& [v, ni] : info) w.rm->Insert(Tuple{v});
    out.detected = graph::GraphClass::kAcyclicNonRegular;
  } else {
    // Single method: counting below i_x, magic at or above.
    int64_t i_x = INT64_MAX;
    for (const auto& [v, ni] : info) {
      if (ni.flagged) i_x = std::min(i_x, ni.first_index);
    }
    for (const auto& [v, ni] : info) {
      if (ni.first_index < i_x) {
        w.rc->Insert(Tuple{ni.first_index, v});
      } else {
        w.rm->Insert(Tuple{v});
      }
    }
    out.detected = graph::GraphClass::kAcyclicNonRegular;
  }

  if (mode == McMode::kIntegrated && w.rc->empty()) {
    w.rc->Insert(Tuple{0, a});
  }
  out.rm_size = w.rm->size();
  out.rc_size = w.rc->size();
  return out;
}

/// The multiple fixpoint (Section 8): nodes expand at up to two distinct
/// indices; once a node holds two it stops absorbing more. Terminates in
/// O(m_L) retrievals, cycles included.
Step1Result MultipleFixpoint(Database* db, const Relation& l, Value a,
                             McMode mode, const WorkNames& names,
                             DetectionMode detection) {
  std::unordered_map<Value, NodeInfo> info;
  // Frontier holds nodes that acquired a new index == level.
  std::vector<Value> frontier{a};
  info[a].first_index = 0;
  info[a].indices = {0};
  int64_t level = 0;
  uint64_t levels = 0;

  while (!frontier.empty()) {
    ++levels;
    std::vector<Value> next;
    for (Value x : frontier) {
      for (uint32_t id : l.ProbeColumn(0, x)) {
        Value x1 = l.RowUnchecked(id)[1];
        auto [it, fresh] = info.emplace(x1, NodeInfo{});
        NodeInfo& ni = it->second;
        int64_t idx = level + 1;
        if (fresh) {
          ni.first_index = idx;
          ni.indices = {idx};
          next.push_back(x1);
          continue;
        }
        // Node already has two distinct indices: suppressed.
        if (ni.indices.size() >= 2) continue;
        bool have = std::find(ni.indices.begin(), ni.indices.end(), idx) !=
                    ni.indices.end();
        if (have) {
          // Duplicate derivation at an index we already hold.
          if (detection == DetectionMode::kAnyDuplicate) ni.flagged = true;
          continue;
        }
        ni.indices.push_back(idx);
        ni.flagged = true;
        next.push_back(x1);
      }
    }
    frontier = std::move(next);
    ++level;
  }

  WorkRels w = PrepareRelations(db, names);
  Step1Result out;
  out.levels = levels;

  bool any_flagged = false;
  for (const auto& [v, ni] : info) {
    w.ms->Insert(Tuple{v});
    if (ni.flagged) any_flagged = true;
  }
  for (const auto& [v, ni] : info) {
    if (ni.flagged) {
      w.rm->Insert(Tuple{v});
    } else {
      w.rc->Insert(Tuple{ni.first_index, v});
    }
  }
  out.detected = any_flagged ? graph::GraphClass::kAcyclicNonRegular
                             : graph::GraphClass::kRegular;
  if (mode == McMode::kIntegrated && w.rc->empty()) {
    w.rc->Insert(Tuple{0, a});
  }
  out.ms_size = w.ms->size();
  out.rm_size = w.rm->size();
  out.rc_size = w.rc->size();
  return out;
}

/// The recurring fixpoint (Section 9): full counting-set enumeration with
/// the pigeonhole cap I < 2K-1; nodes that record an index >= K (final) are
/// exactly the recurring ones. O(n_L * m_L) retrievals.
Step1Result RecurringFixpoint(Database* db, const Relation& l, Value a,
                              McMode mode, const WorkNames& names) {
  std::unordered_map<Value, std::vector<int64_t>> indices;  // sorted asc
  std::vector<Value> frontier{a};
  indices[a] = {0};
  int64_t level = 0;
  uint64_t levels = 0;
  int64_t k = 1;  // nodes seen so far

  while (!frontier.empty() && level < 2 * k - 1) {
    ++levels;
    std::vector<Value> next;
    for (Value x : frontier) {
      for (uint32_t id : l.ProbeColumn(0, x)) {
        Value x1 = l.RowUnchecked(id)[1];
        auto [it, fresh] = indices.emplace(x1, std::vector<int64_t>{});
        if (fresh) ++k;
        std::vector<int64_t>& set = it->second;
        int64_t idx = level + 1;
        if (std::find(set.begin(), set.end(), idx) == set.end()) {
          set.push_back(idx);
          next.push_back(x1);
        }
      }
    }
    frontier = std::move(next);
    ++level;
  }

  WorkRels w = PrepareRelations(db, names);
  Step1Result out;
  out.levels = levels;

  bool any_recurring = false;
  bool any_multiple = false;
  for (const auto& [v, set] : indices) {
    w.ms->Insert(Tuple{v});
    bool recurring = std::any_of(set.begin(), set.end(),
                                 [&](int64_t i) { return i >= k; });
    if (recurring) {
      any_recurring = true;
      w.rm->Insert(Tuple{v});
    } else {
      if (set.size() > 1) any_multiple = true;
      for (int64_t i : set) w.rc->Insert(Tuple{i, v});
    }
  }
  out.detected = any_recurring    ? graph::GraphClass::kCyclic
                 : any_multiple   ? graph::GraphClass::kAcyclicNonRegular
                                  : graph::GraphClass::kRegular;
  if (mode == McMode::kIntegrated && w.rc->empty()) {
    w.rc->Insert(Tuple{0, a});
  }
  out.ms_size = w.ms->size();
  out.rm_size = w.rm->size();
  out.rc_size = w.rc->size();
  return out;
}

/// The "smart" Step 1 (end of Section 9): build the magic graph once, find
/// recurring nodes with Tarjan in linear time, and run the distance-set DP
/// only on the non-recurring DAG.
Result<Step1Result> SmartRecurringStep1(Database* db, const Relation& l,
                                        Value a, McMode mode,
                                        const WorkNames& names) {
  // The magic graph needs no E/R part; reuse QueryGraph with empty E/R.
  Relation empty_e("__empty_e", 2, nullptr);
  Relation empty_r("__empty_r", 2, nullptr);
  MCM_ASSIGN_OR_RETURN(graph::QueryGraph qg,
                       graph::QueryGraph::Build(l, empty_e, empty_r, a));
  // Charge the traversal: building G_L touches each L arc once. The
  // QueryGraph reader is uninstrumented, so account for it explicitly.
  db->stats().tuples_read += qg.m_l();

  graph::MagicGraphAnalysis analysis =
      graph::AnalyzeMagicGraph(qg.magic_graph(), qg.source());

  WorkRels w = PrepareRelations(db, names);
  Step1Result out;
  out.levels = 1;
  out.detected = analysis.graph_class;

  for (graph::NodeId v = 0; v < qg.magic_graph().NumNodes(); ++v) {
    Value value = qg.LValueOf(v);
    w.ms->Insert(Tuple{value});
    if (analysis.node_class[v] == graph::NodeClass::kRecurring) {
      w.rm->Insert(Tuple{value});
    } else {
      for (int64_t i : analysis.distance_sets[v]) {
        w.rc->Insert(Tuple{i, value});
      }
    }
  }
  if (mode == McMode::kIntegrated && w.rc->empty()) {
    w.rc->Insert(Tuple{0, a});
  }
  out.ms_size = w.ms->size();
  out.rm_size = w.rm->size();
  out.rc_size = w.rc->size();
  return out;
}

}  // namespace

Result<Step1Result> ComputeReducedSets(Database* db, const std::string& l_name,
                                       Value a, McVariant variant, McMode mode,
                                       const WorkNames& names,
                                       DetectionMode detection) {
  Relation* l = db->Find(l_name);
  if (l == nullptr) {
    return Status::NotFound("L relation '" + l_name + "' not found");
  }
  if (l->arity() != 2) {
    return Status::InvalidArgument("L relation must be binary");
  }
  switch (variant) {
    case McVariant::kBasic:
      return BasicSingleFixpoint(db, *l, a, /*single_variant=*/false, mode,
                                 names, detection);
    case McVariant::kSingle:
      return BasicSingleFixpoint(db, *l, a, /*single_variant=*/true, mode,
                                 names, detection);
    case McVariant::kMultiple:
      return MultipleFixpoint(db, *l, a, mode, names, detection);
    case McVariant::kRecurring:
      return RecurringFixpoint(db, *l, a, mode, names);
    case McVariant::kRecurringSmart:
      return SmartRecurringStep1(db, *l, a, mode, names);
  }
  return Status::Internal("unknown Step-1 variant");
}

}  // namespace mcm::core
