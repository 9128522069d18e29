// perfbench: the repository benchmark driver. Runs one workload and prints
// its report lines followed by one JSON result line.
//
//   perfbench --workload engine-large|edge-small|serve-write --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of the traced run. Exit codes: 0 with a
// result, 1 with a result that has a wrong answer, 2 without a result
// (usage or set-up error).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "core/solver.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Every per-layer metric, in print order, with its unit. Each workload
/// fills the ones whose layer it calls; the rest print as 0, meaning the
/// traced run recorded no span or count of that kind on the workload.
std::vector<std::pair<std::string, std::string>> LayerMetrics() {
  std::vector<std::pair<std::string, std::string>> out = {
      {"service.queue_ms_p50", "ms"},
      {"service.queue_ms_p99", "ms"},
      {"service.run_ms_p50", "ms"},
      {"service.edge_ms_p50", "ms"},
      {"service.protocol_us", "us"},
      {"service.shed", "count"},
      {"service.retries", "count"},
      {"service.breaker_short_circuits", "count"},
      {"datalog.parse_us", "us"},
      {"analysis.analyze_ms", "ms"},
      {"analysis.predicted_over_measured", "ratio"},
      {"storage.pin_us", "us"},
      {"storage.seed_us", "us"},
      {"storage.index_build_us", "us"},
      {"storage.bytes_per_tuple", "B"},
      {"storage.approx_bytes_ratio", "ratio"},
      {"storage.insert_useful_frac", "ratio"},
      {"storage.probes", "count"},
      {"core.solve_ms", "ms"},
      {"core.attempts_per_query", "count"},
  };
  for (const char* scenario : kScenarioNames) {
    for (const std::string& method : mcm::core::CslSolver::AllMethodNames()) {
      if (std::strcmp(scenario, "cyclic") == 0 && method == "counting") {
        continue;  // the expected-Unsafe job, reported as unsafe_abort_s
      }
      out.emplace_back(MethodMetricName(scenario, method), "ms");
    }
  }
  for (const char* scenario : kScenarioNames) {
    out.emplace_back(std::string("core.step1_ms.") + scenario, "ms");
  }
  for (const char* scenario : kScenarioNames) {
    out.emplace_back(std::string("core.reads.") + scenario, "count");
  }
  for (const char* scenario : kScenarioNames) {
    out.emplace_back(std::string("eval.ns_per_read.") + scenario, "ns");
  }
  out.emplace_back("loadgen.late_ms_p99", "ms");
  out.emplace_back("trace.overhead_frac", "ratio");
  return out;
}

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"answers_per_cpu_s", "1/s"},
    {"query_cpu_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "engine-large|edge-small|serve-write --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

std::string Json(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Prints `metrics` in `order` as report lines and returns the JSON object
/// body; a metric the workload left unset prints as 0.
std::string EmitMetrics(
    const std::vector<std::pair<std::string, std::string>>& order,
    const std::map<std::string, Metric>& metrics, bool* missing_unit) {
  std::string json;
  for (const auto& [name, unit] : order) {
    auto it = metrics.find(name);
    double value = it == metrics.end() ? 0.0 : it->second.value;
    if (it != metrics.end() && it->second.unit != unit) *missing_unit = true;
    std::printf("%-44s %.6g %s\n", name.c_str(), value, unit.c_str());
    if (!json.empty()) json += ", ";
    json += "\"" + name + "\": {\"value\": " + Json(value) + ", \"unit\": \"" +
            unit + "\"}";
  }
  return json;
}

}  // namespace

std::string MethodMetricName(const std::string& scenario,
                             const std::string& method) {
  std::string name = "core.method_ms." + scenario + "." + method;
  for (char& c : name) {
    if (c == '/') c = '.';
  }
  return name;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string val = argv[++i];
    if (arg == "--workload") {
      cfg.workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), nullptr);
      have_seconds = cfg.seconds > 0;
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return Usage("--trace takes 0 or 1");
      cfg.trace = val == "1";
    } else if (arg == "--trace-out") {
      cfg.trace_out = val;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seconds) return Usage("--seconds must be positive");

  Sheet sheet;
  bool ok = false;
  if (cfg.workload == "engine-large") {
    ok = RunEngineLarge(cfg, &sheet);
  } else if (cfg.workload == "edge-small") {
    ok = RunEdgeSmall(cfg, &sheet);
  } else if (cfg.workload == "serve-write") {
    ok = RunServeWrite(cfg, &sheet);
  } else {
    return Usage(("unknown workload '" + cfg.workload + "'").c_str());
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: %s did not run to completion\n",
                 cfg.workload.c_str());
    return 2;
  }
  if (cfg.trace && !cfg.trace_out.empty() &&
      !Tracer::WriteSpans(cfg.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 cfg.trace_out.c_str());
    return 2;
  }

  std::printf("# workload %s  seed %llu  seconds %g  trace %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  for (const auto& [name, text] : sheet.detail) {
    std::printf("%-44s %s\n", name.c_str(), text.c_str());
  }
  double failed_frac = sheet.attempted == 0
                           ? 1.0
                           : static_cast<double>(sheet.failed) /
                                 static_cast<double>(sheet.attempted);
  std::printf("%-44s %.6g ratio  (%llu of %llu attempts; %llu wrong)\n",
              "failed_frac", failed_frac,
              static_cast<unsigned long long>(sheet.failed),
              static_cast<unsigned long long>(sheet.attempted),
              static_cast<unsigned long long>(sheet.wrong));
  if (!cfg.trace) {
    for (const auto& [name, unit] : kEndToEnd) {
      if (sheet.e2e.count(name) == 0) {
        std::fprintf(stderr, "perfbench: %s was not measured\n", name.c_str());
        return 2;
      }
    }
  }
  bool bad_unit = false;
  std::string body =
      cfg.trace ? EmitMetrics(LayerMetrics(), sheet.layer, &bad_unit)
                : EmitMetrics(kEndToEnd, sheet.e2e, &bad_unit);
  if (bad_unit) {
    std::fprintf(stderr,
                 "perfbench: a metric was filled with the wrong unit\n");
    return 2;
  }
  bool correct = sheet.wrong == 0 && sheet.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(sheet.attempted),
              static_cast<unsigned long long>(sheet.failed), body.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
