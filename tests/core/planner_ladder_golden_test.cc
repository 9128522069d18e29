// Golden ladder table: for every planner preset the CLIs and the line
// protocol expose, and for one instance of every query shape the planner
// distinguishes, record what ExplainProgram says it would run and what
// SolveProgram actually runs — plan kind, ladder ids, attempt log, answer
// count and exact tuple retrievals. A change to the planner's policy
// representation must leave this table byte-identical; only Preset() may
// change with the options API.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/planner.h"
#include "datalog/parser.h"
#include "service/protocol.h"
#include "workload/generators.h"

namespace mcm::core {
namespace {

/// The planner options each user-facing spelling maps to. The "mcmq:"
/// entries mirror examples/mcmq.cpp's --method and --no-fallback handling;
/// "breaker" is a counting request after the service's circuit breaker
/// short-circuited it.
PlannerOptions Preset(const std::string& name) {
  PlannerOptions o;
  std::string method = name;
  bool no_fallback = false;
  if (method.size() > 4 && method.compare(method.size() - 4, 4, ":nfb") == 0) {
    no_fallback = true;
    method.resize(method.size() - 4);
  }
  if (method == "safe" || method == "auto" || method == "counting") {
    service::protocol::ApplyMethod(method, &o);
  } else if (method == "breaker") {
    service::protocol::ApplyMethod("counting", &o);
    SkipCountingRungs(&o);
  } else if (method == "mcmq:bottom_up") {
    o.ladder = {Rung::BottomUp()};
  } else if (method == "mcmq:magic") {
    o.ladder = {Rung::MagicSets(), Rung::BottomUp()};
  } else if (method == "mcmq:mc:single:ind") {
    o.ladder = SafeLadder(McVariant::kSingle, McMode::kIndependent);
  } else if (method == "mcmq:mc:recurring:int") {
    o.ladder = SafeLadder(McVariant::kRecurring, McMode::kIntegrated);
  } else {
    ADD_FAILURE() << "unknown preset " << name;
  }
  if (no_fallback) o.ladder.resize(1);
  return o;
}

const char* const kPresets[] = {
    "safe",
    "auto",
    "counting",
    "mcmq:bottom_up",
    "mcmq:bottom_up:nfb",
    "mcmq:magic",
    "mcmq:magic:nfb",
    "mcmq:mc:single:ind",
    "mcmq:mc:single:ind:nfb",
    "mcmq:mc:recurring:int",
    "mcmq:mc:recurring:int:nfb",
    "breaker",
};

constexpr const char* kCslSrc = R"(
  p(X, Y) :- e(X, Y).
  p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).
  p(0, Y)?
)";

constexpr const char* kTcRules = R"(
  tc(X, Y) :- e(X, Y).
  tc(X, Y) :- e(X, Z), tc(Z, Y).
)";

struct Instance {
  const char* name;
  std::string source;
  void (*load)(Database* db);
};

void LoadLayered(Database* db, size_t skip_arcs, size_t back_arcs) {
  workload::LayeredSpec spec;
  spec.layers = 5;
  spec.width = 4;
  spec.skip_arcs = skip_arcs;
  spec.back_arcs = back_arcs;
  spec.seed = 11;
  workload::AssembleCsl(workload::MakeLayeredL(spec), {}).Load(db);
}

void LoadChain(Database* db) {
  Relation* e = db->GetOrCreateRelation("e", 2);
  for (int i = 0; i < 6; ++i) e->Insert2(i, i + 1);
}

std::vector<Instance> Instances() {
  return {
      {"regular_csl", kCslSrc,
       [](Database* db) { workload::MakeFigure1Style().Load(db); }},
      {"acyclic_csl", kCslSrc, [](Database* db) { LoadLayered(db, 3, 0); }},
      {"cyclic_csl", kCslSrc, [](Database* db) { LoadLayered(db, 2, 2); }},
      {"reverse_bound", R"(
         sg(X, Y) :- eq(X, Y).
         sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).
         sg(X, 0)?
       )",
       [](Database* db) {
         workload::MakeSameGeneration(30, 2, 777).Load(db, "parent", "eq",
                                                        "parent");
       }},
      {"composed_sl", R"(
         p(X, Y) :- e(X, Y).
         p(X, Y) :- up(X, Z), up(Z, X1), p(X1, Y1), down(Y, W), down(W, Y1).
         p(0, Y)?
       )",
       [](Database* db) {
         Relation* up = db->GetOrCreateRelation("up", 2);
         Relation* down = db->GetOrCreateRelation("down", 2);
         Relation* e = db->GetOrCreateRelation("e", 2);
         for (int i = 0; i < 6; ++i) up->Insert2(i, i + 1);
         for (int i = 0; i < 6; ++i) down->Insert2(100 + i, 101 + i);
         e->Insert2(4, 104);
       }},
      {"non_csl_bound", std::string(kTcRules) + "tc(0, Y)?\n", LoadChain},
      {"unbound", std::string(kTcRules) + "tc(X, Y)?\n", LoadChain},
  };
}

std::string Row(const std::string& preset, const Instance& inst) {
  std::string row = preset + " " + inst.name + ":";
  auto prog = dl::Parse(inst.source);
  if (!prog.ok()) return row + " parse error " + prog.status().ToString();
  PlannerOptions options = Preset(preset);

  {
    Database db;
    inst.load(&db);
    Result<PlanReport> explain = ExplainProgram(&db, *prog, options);
    if (explain.ok()) {
      row += " explain " + PlanKindToString(explain->kind) + " [";
      for (size_t i = 0; i < explain->attempts.size(); ++i) {
        row += (i > 0 ? "," : "") + explain->attempts[i].method;
      }
      row += "]";
    } else {
      row += " explain error " +
             std::string(StatusCodeToString(explain.status().code()));
    }
  }
  {
    Database db;
    inst.load(&db);
    Result<PlanReport> solve = SolveProgram(&db, *prog, options);
    if (solve.ok()) {
      row += " | solve " + PlanKindToString(solve->kind) + " [";
      for (size_t i = 0; i < solve->attempts.size(); ++i) {
        row += (i > 0 ? "," : "") + solve->attempts[i].method;
      }
      row += "] answers=" + std::to_string(solve->results.size()) +
             " reads=" + std::to_string(solve->stats.tuples_read);
    } else {
      row += " | solve error " +
             std::string(StatusCodeToString(solve.status().code()));
    }
  }
  return row;
}

// clang-format off
const char* const kGolden[] = {
    "safe regular_csl: explain magic_counting [mc/multiple/int,mc/recurring/int,magic_sets] | solve magic_counting [mc/multiple/integrated] answers=4 reads=58",
    "safe acyclic_csl: explain magic_counting [mc/multiple/int,mc/recurring/int,magic_sets] | solve magic_counting [mc/multiple/integrated] answers=5 reads=603",
    "safe cyclic_csl: explain magic_counting [mc/multiple/int,mc/recurring/int,magic_sets] | solve magic_counting [mc/multiple/integrated] answers=8 reads=1219",
    "safe reverse_bound: explain magic_counting [mc/multiple/int,mc/recurring/int,magic_sets] | solve magic_counting [mc/multiple/integrated] answers=19 reads=380",
    "safe composed_sl: explain magic_counting [mc/multiple/int,mc/recurring/int,magic_sets] | solve magic_counting [mc/multiple/integrated] answers=1 reads=45",
    "safe non_csl_bound: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=6 reads=95",
    "safe unbound: explain bottom_up [] | solve bottom_up [bottom_up] answers=21 reads=53",
    "auto regular_csl: explain counting [counting,mc/basic/int,mc/basic/ind,mc/single/int,mc/single/ind,mc/multiple/int,mc/multiple/ind,magic_sets,mc/recurring/int,mc/recurring/ind] | solve counting [counting] answers=4 reads=55",
    "auto acyclic_csl: explain counting [counting,mc/recurring/int,mc/recurring/ind,mc/multiple/int,mc/single/int,magic_sets,mc/basic/int,mc/basic/ind,mc/multiple/ind,mc/single/ind] | solve counting [counting] answers=5 reads=355",
    "auto cyclic_csl: explain magic_sets [magic_sets,mc/multiple/int,mc/basic/int,mc/basic/ind,mc/multiple/ind,mc/single/int,mc/single/ind,mc/recurring/int,mc/recurring/ind] | solve magic_sets [magic_sets] answers=8 reads=1244",
    "auto reverse_bound: explain counting [counting,mc/recurring/int,mc/recurring/ind,mc/multiple/int,magic_sets,mc/basic/int,mc/basic/ind,mc/multiple/ind,mc/single/int,mc/single/ind] | solve counting [counting] answers=19 reads=322",
    "auto composed_sl: explain magic_counting [mc/multiple/int,mc/recurring/int,magic_sets] | solve magic_counting [mc/multiple/integrated] answers=1 reads=45",
    "auto non_csl_bound: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=6 reads=95",
    "auto unbound: explain bottom_up [] | solve bottom_up [bottom_up] answers=21 reads=53",
    "counting regular_csl: explain counting [counting,mc/multiple/int,mc/recurring/int,magic_sets] | solve counting [counting] answers=4 reads=55",
    "counting acyclic_csl: explain counting [counting,mc/multiple/int,mc/recurring/int,magic_sets] | solve counting [counting] answers=5 reads=355",
    "counting cyclic_csl: explain counting [counting,mc/multiple/int,mc/recurring/int,magic_sets] | solve magic_counting [counting,mc/multiple/integrated] answers=8 reads=17683",
    "counting reverse_bound: explain counting [counting,mc/multiple/int,mc/recurring/int,magic_sets] | solve counting [counting] answers=19 reads=322",
    "counting composed_sl: explain counting [counting,mc/multiple/int,mc/recurring/int,magic_sets] | solve counting [counting] answers=1 reads=44",
    "counting non_csl_bound: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=6 reads=95",
    "counting unbound: explain bottom_up [] | solve bottom_up [bottom_up] answers=21 reads=53",
    "mcmq:bottom_up regular_csl: explain bottom_up [] | solve bottom_up [bottom_up] answers=4 reads=53",
    "mcmq:bottom_up acyclic_csl: explain bottom_up [] | solve bottom_up [bottom_up] answers=5 reads=772",
    "mcmq:bottom_up cyclic_csl: explain bottom_up [] | solve bottom_up [bottom_up] answers=8 reads=929",
    "mcmq:bottom_up reverse_bound: explain bottom_up [] | solve bottom_up [bottom_up] answers=19 reads=1811",
    "mcmq:bottom_up composed_sl: explain bottom_up [] | solve bottom_up [bottom_up] answers=1 reads=31",
    "mcmq:bottom_up non_csl_bound: explain bottom_up [] | solve bottom_up [bottom_up] answers=6 reads=53",
    "mcmq:bottom_up unbound: explain bottom_up [] | solve bottom_up [bottom_up] answers=21 reads=53",
    "mcmq:bottom_up:nfb regular_csl: explain bottom_up [] | solve bottom_up [bottom_up] answers=4 reads=53",
    "mcmq:bottom_up:nfb acyclic_csl: explain bottom_up [] | solve bottom_up [bottom_up] answers=5 reads=772",
    "mcmq:bottom_up:nfb cyclic_csl: explain bottom_up [] | solve bottom_up [bottom_up] answers=8 reads=929",
    "mcmq:bottom_up:nfb reverse_bound: explain bottom_up [] | solve bottom_up [bottom_up] answers=19 reads=1811",
    "mcmq:bottom_up:nfb composed_sl: explain bottom_up [] | solve bottom_up [bottom_up] answers=1 reads=31",
    "mcmq:bottom_up:nfb non_csl_bound: explain bottom_up [] | solve bottom_up [bottom_up] answers=6 reads=53",
    "mcmq:bottom_up:nfb unbound: explain bottom_up [] | solve bottom_up [bottom_up] answers=21 reads=53",
    "mcmq:magic regular_csl: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=4 reads=87",
    "mcmq:magic acyclic_csl: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=5 reads=1022",
    "mcmq:magic cyclic_csl: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=8 reads=1231",
    "mcmq:magic reverse_bound: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=19 reads=2367",
    "mcmq:magic composed_sl: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=1 reads=46",
    "mcmq:magic non_csl_bound: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=6 reads=95",
    "mcmq:magic unbound: explain bottom_up [] | solve bottom_up [bottom_up] answers=21 reads=53",
    "mcmq:magic:nfb regular_csl: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=4 reads=87",
    "mcmq:magic:nfb acyclic_csl: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=5 reads=1022",
    "mcmq:magic:nfb cyclic_csl: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=8 reads=1231",
    "mcmq:magic:nfb reverse_bound: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=19 reads=2367",
    "mcmq:magic:nfb composed_sl: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=1 reads=46",
    "mcmq:magic:nfb non_csl_bound: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=6 reads=95",
    "mcmq:magic:nfb unbound: explain bottom_up [] | solve bottom_up [bottom_up] answers=21 reads=53",
    "mcmq:mc:single:ind regular_csl: explain magic_counting [mc/single/ind,mc/multiple/ind,mc/recurring/ind,magic_sets] | solve magic_counting [mc/single/independent] answers=4 reads=58",
    "mcmq:mc:single:ind acyclic_csl: explain magic_counting [mc/single/ind,mc/multiple/ind,mc/recurring/ind,magic_sets] | solve magic_counting [mc/single/independent] answers=5 reads=1058",
    "mcmq:mc:single:ind cyclic_csl: explain magic_counting [mc/single/ind,mc/multiple/ind,mc/recurring/ind,magic_sets] | solve magic_counting [mc/single/independent] answers=8 reads=1262",
    "mcmq:mc:single:ind reverse_bound: explain magic_counting [mc/single/ind,mc/multiple/ind,mc/recurring/ind,magic_sets] | solve magic_counting [mc/single/independent] answers=19 reads=767",
    "mcmq:mc:single:ind composed_sl: explain magic_counting [mc/single/ind,mc/multiple/ind,mc/recurring/ind,magic_sets] | solve magic_counting [mc/single/independent] answers=1 reads=45",
    "mcmq:mc:single:ind non_csl_bound: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=6 reads=95",
    "mcmq:mc:single:ind unbound: explain bottom_up [] | solve bottom_up [bottom_up] answers=21 reads=53",
    "mcmq:mc:single:ind:nfb regular_csl: explain magic_counting [mc/single/ind] | solve magic_counting [mc/single/independent] answers=4 reads=58",
    "mcmq:mc:single:ind:nfb acyclic_csl: explain magic_counting [mc/single/ind] | solve magic_counting [mc/single/independent] answers=5 reads=1058",
    "mcmq:mc:single:ind:nfb cyclic_csl: explain magic_counting [mc/single/ind] | solve magic_counting [mc/single/independent] answers=8 reads=1262",
    "mcmq:mc:single:ind:nfb reverse_bound: explain magic_counting [mc/single/ind] | solve magic_counting [mc/single/independent] answers=19 reads=767",
    "mcmq:mc:single:ind:nfb composed_sl: explain magic_counting [mc/single/ind] | solve magic_counting [mc/single/independent] answers=1 reads=45",
    "mcmq:mc:single:ind:nfb non_csl_bound: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=6 reads=95",
    "mcmq:mc:single:ind:nfb unbound: explain bottom_up [] | solve bottom_up [bottom_up] answers=21 reads=53",
    "mcmq:mc:recurring:int regular_csl: explain magic_counting [mc/recurring/int,magic_sets] | solve magic_counting [mc/recurring/integrated] answers=4 reads=58",
    "mcmq:mc:recurring:int acyclic_csl: explain magic_counting [mc/recurring/int,magic_sets] | solve magic_counting [mc/recurring/integrated] answers=5 reads=397",
    "mcmq:mc:recurring:int cyclic_csl: explain magic_counting [mc/recurring/int,magic_sets] | solve magic_counting [mc/recurring/integrated] answers=8 reads=2215",
    "mcmq:mc:recurring:int reverse_bound: explain magic_counting [mc/recurring/int,magic_sets] | solve magic_counting [mc/recurring/integrated] answers=19 reads=330",
    "mcmq:mc:recurring:int composed_sl: explain magic_counting [mc/recurring/int,magic_sets] | solve magic_counting [mc/recurring/integrated] answers=1 reads=45",
    "mcmq:mc:recurring:int non_csl_bound: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=6 reads=95",
    "mcmq:mc:recurring:int unbound: explain bottom_up [] | solve bottom_up [bottom_up] answers=21 reads=53",
    "mcmq:mc:recurring:int:nfb regular_csl: explain magic_counting [mc/recurring/int] | solve magic_counting [mc/recurring/integrated] answers=4 reads=58",
    "mcmq:mc:recurring:int:nfb acyclic_csl: explain magic_counting [mc/recurring/int] | solve magic_counting [mc/recurring/integrated] answers=5 reads=397",
    "mcmq:mc:recurring:int:nfb cyclic_csl: explain magic_counting [mc/recurring/int] | solve magic_counting [mc/recurring/integrated] answers=8 reads=2215",
    "mcmq:mc:recurring:int:nfb reverse_bound: explain magic_counting [mc/recurring/int] | solve magic_counting [mc/recurring/integrated] answers=19 reads=330",
    "mcmq:mc:recurring:int:nfb composed_sl: explain magic_counting [mc/recurring/int] | solve magic_counting [mc/recurring/integrated] answers=1 reads=45",
    "mcmq:mc:recurring:int:nfb non_csl_bound: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=6 reads=95",
    "mcmq:mc:recurring:int:nfb unbound: explain bottom_up [] | solve bottom_up [bottom_up] answers=21 reads=53",
    "breaker regular_csl: explain magic_sets [magic_sets] | solve magic_sets [magic_sets] answers=4 reads=94",
    "breaker acyclic_csl: explain magic_sets [magic_sets] | solve magic_sets [magic_sets] answers=5 reads=1032",
    "breaker cyclic_csl: explain magic_sets [magic_sets] | solve magic_sets [magic_sets] answers=8 reads=1244",
    "breaker reverse_bound: explain magic_sets [magic_sets] | solve magic_sets [magic_sets] answers=19 reads=639",
    "breaker composed_sl: explain magic_sets [magic_sets] | solve magic_sets [magic_sets] answers=1 reads=55",
    "breaker non_csl_bound: explain magic_sets [] | solve magic_sets [magic_rewrite] answers=6 reads=95",
    "breaker unbound: explain bottom_up [] | solve bottom_up [bottom_up] answers=21 reads=53",
};
// clang-format on

TEST(PlannerLadderGolden, TableIsUnchanged) {
  std::vector<std::string> actual;
  for (const char* preset : kPresets) {
    for (const Instance& inst : Instances()) {
      actual.push_back(Row(preset, inst));
    }
  }
  std::vector<std::string> expected(std::begin(kGolden), std::end(kGolden));
  std::string dump;
  for (const std::string& row : actual) dump += "    \"" + row + "\",\n";
  EXPECT_EQ(actual, expected) << "actual table:\n" << dump;
}

// The CSL instances cover the three magic-graph classes the ladder is
// ranked over; guard that they still are what their names say.
TEST(PlannerLadderGolden, CslInstancesCoverEveryGraphClass) {
  for (const Instance& inst : Instances()) {
    std::string name = inst.name;
    if (name.size() < 4 || name.substr(name.size() - 4) != "_csl") continue;
    auto prog = dl::Parse(inst.source);
    ASSERT_TRUE(prog.ok());
    Database db;
    inst.load(&db);
    Result<PlanReport> explain = ExplainProgram(&db, *prog);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    ASSERT_TRUE(explain->cost.computed) << name;
    EXPECT_EQ(graph::GraphClassToString(explain->cost.graph_class),
              name.substr(0, name.find('_')))
        << name;
  }
}

// Recursive rules that look like the CSL rule but reuse a head variable in
// the recursive atom are outside the paper's class. Every preset must
// answer them exactly like bottom-up evaluation, and neither the analyzer
// nor ExplainProgram may report a strongly linear plan.
TEST(PlannerLadderGolden, DegenerateRulesAnswerLikeBottomUp) {
  constexpr const char* kReusesY =
      "p(X, Y) :- e(X, Y).\n"
      "p(X, Y) :- l(X, X1), p(X1, Y), r(Y, Y).\n";
  constexpr const char* kReusesX =
      "p(X, Y) :- e(X, Y).\n"
      "p(X, Y) :- l(X, X), p(X, Y1), r(Y, Y1).\n";
  const std::string programs[] = {
      std::string(kReusesY) + "p(1, Y)?\n",
      std::string(kReusesX) + "p(1, Y)?\n",
      std::string(kReusesY) + "p(X, 40)?\n",
  };
  auto load = [](Database* db) {
    Relation* l = db->GetOrCreateRelation("l", 2);
    Relation* e = db->GetOrCreateRelation("e", 2);
    Relation* r = db->GetOrCreateRelation("r", 2);
    for (auto [a, b] : {std::pair{1, 2}, {2, 3}, {1, 1}}) l->Insert2(a, b);
    for (auto [a, b] : {std::pair{1, 10}, {2, 20}, {3, 30}, {3, 40}}) {
      e->Insert2(a, b);
    }
    for (auto [a, b] : {std::pair{30, 30}, {5, 20}, {6, 30}, {11, 10},
                        {25, 11}, {40, 6}}) {
      r->Insert2(a, b);
    }
  };
  // The goal's free-variable values: the strongly linear path returns them
  // alone, the other paths return whole goal tuples.
  auto answers = [](const dl::Atom& goal, const std::vector<Tuple>& rows) {
    std::vector<Value> out;
    for (const Tuple& t : rows) {
      for (uint32_t i = 0; i < t.arity(); ++i) {
        if (t.arity() == 1 || goal.args[i].IsVariable()) out.push_back(t[i]);
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };

  for (const std::string& src : programs) {
    auto prog = dl::Parse(src);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    const dl::Atom& goal = prog->queries[0].goal;
    std::vector<Value> expected;
    {
      Database db;
      load(&db);
      Result<PlanReport> ref =
          SolveProgram(&db, *prog, Preset("mcmq:bottom_up"));
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      expected = answers(goal, ref->results);
      ASSERT_FALSE(expected.empty()) << src;
    }
    for (const char* preset : kPresets) {
      SCOPED_TRACE(std::string(preset) + " on\n" + src);
      Database db;
      load(&db);
      Result<PlanReport> explain = ExplainProgram(&db, *prog, Preset(preset));
      ASSERT_TRUE(explain.ok()) << explain.status().ToString();
      EXPECT_EQ(explain->safety.form, analysis::QueryForm::kNotStronglyLinear);
      EXPECT_NE(explain->kind, PlanKind::kCounting);
      EXPECT_NE(explain->kind, PlanKind::kMagicCounting);
      EXPECT_EQ(explain->description.find("CSL{"), std::string::npos)
          << explain->description;

      Result<PlanReport> solve = SolveProgram(&db, *prog, Preset(preset));
      ASSERT_TRUE(solve.ok()) << solve.status().ToString();
      EXPECT_EQ(answers(goal, solve->results), expected)
          << solve->description;
    }
  }
}

}  // namespace
}  // namespace mcm::core
