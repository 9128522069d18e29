#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "analysis/analyzer.h"
#include "core/planner.h"
#include "datalog/parser.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "storage/database.h"
#include "storage/edb_view.h"

namespace perfbench {
namespace {

double SinceUs(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-3;
}

}  // namespace

std::vector<mcm::Value> AnswerValues(const std::vector<mcm::Tuple>& results) {
  std::vector<mcm::Value> out;
  out.reserve(results.size());
  for (const mcm::Tuple& t : results) out.push_back(t[t.arity() - 1]);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void ReplayLayers(mcm::VersionedStore* store,
                  const std::vector<mcm::Value>& constants,
                  const ExpectedAnswers& expected, Sheet* sheet) {
  namespace protocol = mcm::service::protocol;
  const std::string rules = kSameGenRules;
  const protocol::LineLimits limits;
  std::vector<double> protocol_us, parse_us, pin_us, seed_us, index_us,
      analyze_ms, solve_ms, attempts, predicted_ratio;
  mcm::AccessStats solve_stats;

  for (size_t i = 0; i < constants.size(); ++i) {
    ScopedSpan root("replay.request", 0, i);
    ++sheet->attempted;
    const std::string line = "p(" + std::to_string(constants[i]) + ", Y)?";

    int64_t t0 = NowNs();
    mcm::service::QueryRequest request;
    {
      ScopedSpan span("service.protocol_in", root.id(), i);
      mcm::Status clean = protocol::SanitizeLine(line, limits);
      mcm::Result<protocol::RequestPrefixes> prefixes =
          protocol::ParsePrefixes(line);
      if (!clean.ok() || !prefixes.ok()) {
        ++sheet->failed;
        continue;
      }
      request = protocol::MakeRequest(rules, *prefixes, "safe");
    }
    double protocol_in = SinceUs(t0);

    t0 = NowNs();
    mcm::Result<mcm::dl::Program> program = [&] {
      ScopedSpan span("datalog.parse", root.id(), i);
      return mcm::dl::Parse(request.program_text);
    }();
    parse_us.push_back(SinceUs(t0));
    if (!program.ok()) {
      ++sheet->failed;
      continue;
    }

    t0 = NowNs();
    std::shared_ptr<const mcm::EdbVersion> pin = [&] {
      ScopedSpan span("storage.pin", root.id(), i);
      return store->Pin();
    }();
    pin_us.push_back(SinceUs(t0));

    mcm::Database work(&store->symbols());
    t0 = NowNs();
    mcm::Status seeded = [&] {
      ScopedSpan span("storage.seed", root.id(), i);
      mcm::EdbView view(*pin);
      return view.AttachTo(&work);
    }();
    seed_us.push_back(SinceUs(t0));
    if (!seeded.ok()) {
      ++sheet->failed;
      continue;
    }

    // The first probe on a freshly borrowed relation builds its index; a
    // second probe with the same key does not. Their difference is the
    // index build. The built indexes stay, as they would for the solver.
    double index = 0;
    {
      ScopedSpan span("storage.index", root.id(), i);
      for (const std::string& name : work.RelationNames()) {
        const mcm::Relation* rel = work.Find(name);
        if (rel == nullptr || rel->empty()) continue;
        const std::vector<mcm::Value> key{rel->PeekUnchecked(0)[0]};
        int64_t a = NowNs();
        (void)rel->Probe({0}, key);
        int64_t b = NowNs();
        (void)rel->Probe({0}, key);
        int64_t c = NowNs();
        index += static_cast<double>((b - a) - (c - b)) * 1e-3;
      }
    }
    index_us.push_back(index);
    work.ResetStats();

    t0 = NowNs();
    mcm::analysis::AnalysisResult analysis = [&] {
      ScopedSpan span("analysis.analyze", root.id(), i);
      mcm::analysis::AnalyzeOptions options;
      options.db = &work;
      return mcm::analysis::Analyze(*program, options);
    }();
    analyze_ms.push_back(SinceUs(t0) * 1e-3);

    mcm::core::PlannerOptions options = request.planner;
    options.analysis = &analysis;
    t0 = NowNs();
    mcm::Result<mcm::core::PlanReport> report = [&] {
      ScopedSpan span("core.solve", root.id(), i);
      return mcm::core::SolveProgram(&work, *program, options);
    }();
    solve_ms.push_back(SinceUs(t0) * 1e-3);
    if (!report.ok()) {
      ++sheet->failed;
      std::fprintf(stderr, "replay %zu: %s\n", i,
                   report.status().ToString().c_str());
      continue;
    }
    attempts.push_back(static_cast<double>(report->attempts.size()));
    if (report->predicted_reads >= 0 && report->stats.tuples_read > 0) {
      predicted_ratio.push_back(report->predicted_reads /
                                static_cast<double>(report->stats.tuples_read));
    }
    solve_stats += work.stats();  // reset after the index probes

    if (AnswerValues(report->results) != expected(constants[i], pin->epoch())) {
      ++sheet->failed;
      ++sheet->wrong;
      std::fprintf(stderr, "replay %zu: wrong answer for %lld\n", i,
                   static_cast<long long>(constants[i]));
    }

    t0 = NowNs();
    {
      ScopedSpan span("service.protocol_out", root.id(), i);
      mcm::service::QueryResponse response;
      response.outcome = mcm::service::Outcome::kOk;
      response.edb_epoch = pin->epoch();
      response.report = std::move(*report);
      std::string text = protocol::FormatResponse(i + 1, response);
      if (text.empty()) ++sheet->failed;
    }
    protocol_us.push_back(protocol_in + SinceUs(t0));
  }

  double n = static_cast<double>(std::max<size_t>(solve_ms.size(), 1));
  auto& layer = sheet->layer;
  layer["service.protocol_us"] = {Median(protocol_us), "us"};
  layer["datalog.parse_us"] = {Median(parse_us), "us"};
  layer["storage.pin_us"] = {Median(pin_us), "us"};
  layer["storage.seed_us"] = {Median(seed_us), "us"};
  layer["storage.index_build_us"] = {Median(index_us), "us"};
  layer["analysis.analyze_ms"] = {Median(analyze_ms), "ms"};
  layer["analysis.predicted_over_measured"] = {Median(predicted_ratio),
                                               "ratio"};
  layer["core.solve_ms"] = {Median(solve_ms), "ms"};
  double attempts_total = 0;
  for (double a : attempts) attempts_total += a;
  layer["core.attempts_per_query"] = {attempts_total / n, "count"};
  layer["storage.probes"] = {static_cast<double>(solve_stats.probes) / n,
                             "count"};
  layer["storage.insert_useful_frac"] = {
      solve_stats.insert_attempts == 0
          ? 0
          : static_cast<double>(solve_stats.tuples_inserted) /
                static_cast<double>(solve_stats.insert_attempts),
      "ratio"};
  sheet->Detail("replayed_requests", static_cast<double>(constants.size()),
                "count", "serial layer replay after the traced load");
}

}  // namespace perfbench
