// Exact-reads golden test: the paper's cost unit (tuple retrievals) and the
// answer set of every method on the three paper-table scenarios at scale 2
// are pinned to recorded values. Any change to storage or evaluation that
// moves a single read, or changes an answer, fails here.
//
// A read count that moves is a semantic change (evaluation order or the
// points where reads are charged changed), not noise: re-record only with
// a stated reason.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/scenarios.h"
#include "core/solver.h"
#include "storage/database.h"

namespace mcm {
namespace {

using bench::MakeScenario;
using bench::Scenario;
using bench::ScenarioName;
using core::CslSolver;
using core::McMode;
using core::McVariant;
using core::MethodRun;

constexpr int kScale = 2;

struct Golden {
  const char* scenario;
  const char* method;  ///< a CslSolver::AllMethodNames() entry, or "reference"
  uint64_t reads;      ///< MethodRun::total.tuples_read
  size_t answers;      ///< |answer set|
  uint64_t answer_hash;  ///< AnswerHash of the sorted answer values
};

// Recorded with the node-based storage core (before the flat arena), so the
// flat core is checked against the reads of the design it replaced.
// `counting` on the cyclic scenario diverges and is checked to abort.
const Golden kGolden[] = {
    {"regular", "counting", 812u, 1u, 0xe0a0a27a32b9948ULL},
    {"regular", "magic_sets", 6436u, 1u, 0xe0a0a27a32b9948ULL},
    {"regular", "mc/basic/independent", 962u, 1u, 0xe0a0a27a32b9948ULL},
    {"regular", "mc/basic/integrated", 962u, 1u, 0xe0a0a27a32b9948ULL},
    {"regular", "mc/single/independent", 962u, 1u, 0xe0a0a27a32b9948ULL},
    {"regular", "mc/single/integrated", 962u, 1u, 0xe0a0a27a32b9948ULL},
    {"regular", "mc/multiple/independent", 962u, 1u, 0xe0a0a27a32b9948ULL},
    {"regular", "mc/multiple/integrated", 962u, 1u, 0xe0a0a27a32b9948ULL},
    {"regular", "mc/recurring/independent", 962u, 1u, 0xe0a0a27a32b9948ULL},
    {"regular", "mc/recurring/integrated", 962u, 1u, 0xe0a0a27a32b9948ULL},
    {"regular", "mc/recurring_smart/independent",
     962u, 1u, 0xe0a0a27a32b9948ULL},
    {"regular", "mc/recurring_smart/integrated",
     962u, 1u, 0xe0a0a27a32b9948ULL},
    {"regular", "reference", 5021u, 1u, 0xe0a0a27a32b9948ULL},
    {"acyclic", "counting", 1357u, 9u, 0x75726ea3df6fae28ULL},
    {"acyclic", "magic_sets", 15798u, 9u, 0x75726ea3df6fae28ULL},
    {"acyclic", "mc/basic/independent", 16684u, 9u, 0x75726ea3df6fae28ULL},
    {"acyclic", "mc/basic/integrated", 17081u, 9u, 0x75726ea3df6fae28ULL},
    {"acyclic", "mc/single/independent", 15755u, 9u, 0x75726ea3df6fae28ULL},
    {"acyclic", "mc/single/integrated", 5145u, 9u, 0x75726ea3df6fae28ULL},
    {"acyclic", "mc/multiple/independent", 15678u, 9u, 0x75726ea3df6fae28ULL},
    {"acyclic", "mc/multiple/integrated", 2362u, 9u, 0x75726ea3df6fae28ULL},
    {"acyclic", "mc/recurring/independent", 1512u, 9u, 0x75726ea3df6fae28ULL},
    {"acyclic", "mc/recurring/integrated", 1533u, 9u, 0x75726ea3df6fae28ULL},
    {"acyclic", "mc/recurring_smart/independent",
     1502u, 9u, 0x75726ea3df6fae28ULL},
    {"acyclic", "mc/recurring_smart/integrated",
     1523u, 9u, 0x75726ea3df6fae28ULL},
    {"acyclic", "reference", 12615u, 9u, 0x75726ea3df6fae28ULL},
    {"cyclic", "magic_sets", 45258u, 59u, 0x65e7051877a17c82ULL},
    {"cyclic", "mc/basic/independent", 47206u, 59u, 0x65e7051877a17c82ULL},
    {"cyclic", "mc/basic/integrated", 49007u, 59u, 0x65e7051877a17c82ULL},
    {"cyclic", "mc/single/independent", 47142u, 59u, 0x65e7051877a17c82ULL},
    {"cyclic", "mc/single/integrated", 24785u, 59u, 0x65e7051877a17c82ULL},
    {"cyclic", "mc/multiple/independent", 47205u, 59u, 0x65e7051877a17c82ULL},
    {"cyclic", "mc/multiple/integrated", 23789u, 59u, 0x65e7051877a17c82ULL},
    {"cyclic", "mc/recurring/independent", 55004u, 59u, 0x65e7051877a17c82ULL},
    {"cyclic", "mc/recurring/integrated", 31588u, 59u, 0x65e7051877a17c82ULL},
    {"cyclic", "mc/recurring_smart/independent",
     45135u, 59u, 0x65e7051877a17c82ULL},
    {"cyclic", "mc/recurring_smart/integrated",
     23694u, 59u, 0x65e7051877a17c82ULL},
    {"cyclic", "reference", 35956u, 59u, 0x65e7051877a17c82ULL},
};

/// FNV-1a over the sorted answer values.
uint64_t AnswerHash(const std::vector<Value>& answers) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (Value v : answers) {
    for (int b = 0; b < 8; ++b) {
      h ^= (static_cast<uint64_t>(v) >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

Result<MethodRun> RunByName(CslSolver* solver, const std::string& name) {
  if (name == "reference") return solver->RunReference();
  if (name == "counting") return solver->RunCounting();
  if (name == "magic_sets") return solver->RunMagicSets();
  for (McVariant v : {McVariant::kBasic, McVariant::kSingle,
                      McVariant::kMultiple, McVariant::kRecurring,
                      McVariant::kRecurringSmart}) {
    for (McMode m : {McMode::kIndependent, McMode::kIntegrated}) {
      if (name == "mc/" + core::McVariantToString(v) + "/" +
                      core::McModeToString(m)) {
        return solver->RunMagicCounting(v, m);
      }
    }
  }
  return Status::InvalidArgument("unknown method " + name);
}

const Golden* FindGolden(const std::string& scenario,
                         const std::string& method) {
  for (const Golden& g : kGolden) {
    if (scenario == g.scenario && method == g.method) return &g;
  }
  return nullptr;
}

TEST(ReadsGolden, EveryMethodOnEveryScenarioMatchesTheRecord) {
  size_t checked = 0;
  for (Scenario s :
       {Scenario::kRegular, Scenario::kAcyclic, Scenario::kCyclic}) {
    workload::CslData data = MakeScenario(s, kScale);
    Database db;
    data.Load(&db);
    CslSolver solver(&db, "l", "e", "r", data.source);

    std::vector<std::string> methods = CslSolver::AllMethodNames();
    methods.push_back("reference");
    Result<MethodRun> reference = solver.RunReference();
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    for (const std::string& method : methods) {
      SCOPED_TRACE(std::string(ScenarioName(s)) + " " + method);
      Result<MethodRun> run = RunByName(&solver, method);
      const Golden* g = FindGolden(ScenarioName(s), method);
      if (g == nullptr) {
        // Only the diverging method has no record: it must keep aborting.
        EXPECT_FALSE(run.ok()) << "unrecorded run: {\"" << ScenarioName(s)
                               << "\", \"" << method << "\", "
                               << run->total.tuples_read << "u, "
                               << run->answers.size() << "u, 0x" << std::hex
                               << AnswerHash(run->answers) << "ULL},";
        continue;
      }
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->total.tuples_read, g->reads);
      EXPECT_EQ(run->answers.size(), g->answers);
      EXPECT_EQ(AnswerHash(run->answers), g->answer_hash);
      EXPECT_EQ(run->answers, reference->answers);
      ++checked;
    }
  }
  // 3 scenarios x (12 methods + reference), less cyclic counting.
  EXPECT_EQ(checked, 38u);
}

}  // namespace
}  // namespace mcm
