// Serial layer replay for the traced run of the service workloads. Each
// sampled request goes through the same calls a service worker makes, one
// layer at a time and each inside its own span:
//
//   protocol (SanitizeLine, ParsePrefixes, MakeRequest)  -> datalog.parse
//   -> storage.pin -> storage.seed (EdbView::AttachTo) -> storage.index
//   (first Relation::Probe on each borrowed relation, minus a second one)
//   -> analysis.analyze -> core.solve (SolveProgram with that analysis)
//   -> protocol (FormatResponse)
#pragma once

#include <functional>
#include <vector>

#include "common.h"
#include "storage/access_stats.h"
#include "storage/tuple.h"
#include "storage/versioned_store.h"

namespace perfbench {

/// The answers p(constant, Y) must have at the given EDB epoch.
using ExpectedAnswers =
    std::function<std::vector<mcm::Value>(mcm::Value constant, uint64_t epoch)>;

/// The sorted distinct Y values of a p(c, Y) result: the planner returns
/// binary goal tuples from the generic paths and unary answer tuples from
/// the magic counting path.
std::vector<mcm::Value> AnswerValues(const std::vector<mcm::Tuple>& results);

/// Replays one request per entry of `constants` against `store` and writes
/// the datalog, analysis, storage, core and service.protocol_us per-layer
/// metrics into `sheet`. Wrong answers count as failed and wrong.
void ReplayLayers(mcm::VersionedStore* store,
                  const std::vector<mcm::Value>& constants,
                  const ExpectedAnswers& expected, Sheet* sheet);

}  // namespace perfbench
