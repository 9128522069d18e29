// The three workloads. Each builds its inputs from cfg.seed, sets up (and
// times the set-up of) the system under test, checks every answer against
// its oracle, and fills `sheet`. A false return means the run could not
// complete at all (set-up failed); wrong answers are counted, not returned.
#pragma once

#include <string>

#include "common.h"

namespace perfbench {

/// One thread, in process: every (scenario, method) job of the paper's
/// methods on the three layered instances.
bool RunEngineLarge(const Config& cfg, Sheet* sheet);

/// TCP Frontend over a 2-worker QueryService; closed loop over four
/// connections from one generator thread; read-only small EDB.
bool RunEdgeSmall(const Config& cfg, Sheet* sheet);

/// In-process hot-swap QueryService with 2 workers; open-loop reads plus a
/// fixed-rate writer over an in-memory VersionedStore.
bool RunServeWrite(const Config& cfg, Sheet* sheet);

/// The engine-large instances, in job order.
inline constexpr const char* kScenarioNames[] = {"regular", "acyclic",
                                                 "cyclic"};

/// "core.method_ms.<scenario>.<method>" with '/' turned into '.'.
std::string MethodMetricName(const std::string& scenario,
                             const std::string& method);

}  // namespace perfbench
