// The paper-table scenarios: layered CSL instances of the three graph
// classes (regular, acyclic, cyclic) at a given scale.
//
// Shared by the paper-reproduction benchmarks (bench_common.h) and the
// exact-reads golden test, so it depends on the workload generators only,
// not on google-benchmark.
#pragma once

#include <string>

#include "workload/generators.h"

namespace mcm::bench {

/// The three graph classes the paper's tables row over.
enum class Scenario { kRegular, kAcyclic, kCyclic };

inline const char* ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kRegular:
      return "regular";
    case Scenario::kAcyclic:
      return "acyclic";
    case Scenario::kCyclic:
      return "cyclic";
  }
  return "?";
}

/// Instance shape: `kWide` scales depth and width together (the "average"
/// database); `kDeep` keeps the width constant so the depth is Theta(n_L),
/// which makes the worst-case cost formulas (whose n_L factors come from
/// path lengths) asymptotically tight.
enum class Shape { kWide, kDeep };

/// Standard two-region layered instance of the given scenario and scale.
/// The dirty region (skips or back arcs) starts two thirds of the way down
/// so the single/multiple/recurring variants have a clean prefix to
/// exploit.
inline workload::CslData MakeScenario(Scenario scenario, int scale,
                                      uint64_t seed = 42,
                                      Shape shape = Shape::kWide) {
  workload::LayeredSpec spec;
  if (shape == Shape::kWide) {
    spec.layers = 4 * static_cast<size_t>(scale);
    spec.width = 4 * static_cast<size_t>(scale);
  } else {
    spec.layers = 16 * static_cast<size_t>(scale);
    spec.width = 2;
  }
  spec.extra_arcs = 2;
  spec.seed = seed;
  spec.bad_start_layer = (2 * spec.layers) / 3;
  if (scenario == Scenario::kAcyclic) {
    spec.skip_arcs = spec.width * 2;
  } else if (scenario == Scenario::kCyclic) {
    spec.back_arcs = spec.width;
  }
  workload::LGraph lg = workload::MakeLayeredL(spec);
  return workload::AssembleCsl(lg, workload::ErSpec{},
                               std::string(ScenarioName(scenario)));
}

}  // namespace mcm::bench
