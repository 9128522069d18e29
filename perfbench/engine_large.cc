// engine-large: the paper's methods on the three layered instances of the
// reproduction benchmarks (regular, acyclic and cyclic; wide shape), here at
// scale 3 (n_L = 144), one thread, in process. One pass runs every
// (scenario, method) job that terminates -- 35 jobs, ~2.6M tuple retrievals
// -- and the counting job on the cyclic instance runs apart, because it is
// expected to end Unsafe when the governor's caps trip. Storage and eval do
// almost all the work; no service, protocol, parse or analysis code runs.
//
// Scale 3, not the reproduction benchmarks' 5: a pass takes ~0.3 s instead
// of ~3 s, so a run holds over a hundred passes and each job's fastest pass
// is a steady figure on a shared host, where a job's CPU time at scale 5
// moved by up to 45% between runs minutes apart.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/solver.h"
#include "core/step1.h"
#include "storage/database.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mcm::core::CslSolver;
using mcm::core::McMode;
using mcm::core::McVariant;
using mcm::core::MethodRun;

constexpr int kScale = 3;
constexpr uint64_t kStructureSeed = 42;  // bench_common.h's instances
/// How long the engine thread stays on one CPU before it moves to the next.
constexpr double kHopSeconds = 1.0;

/// bench/bench_common.h MakeScenario(scenario, kScale, 42, kWide): a two-region
/// layered L graph whose dirty region (skip arcs or back arcs) starts two
/// thirds of the way down, with R mirroring L.
mcm::workload::CslData MakeInstance(int scenario, uint64_t seed) {
  mcm::workload::LayeredSpec spec;
  spec.layers = 4 * kScale;
  spec.width = 4 * kScale;
  spec.extra_arcs = 2;
  spec.seed = kStructureSeed;
  spec.bad_start_layer = (2 * spec.layers) / 3;
  if (scenario == 1) spec.skip_arcs = spec.width * 2;
  if (scenario == 2) spec.back_arcs = spec.width;
  mcm::workload::CslData data = mcm::workload::AssembleCsl(
      mcm::workload::MakeLayeredL(spec), mcm::workload::ErSpec{},
      kScenarioNames[scenario]);
  Relabel(&data, seed + 1000003ULL * static_cast<uint64_t>(scenario));
  return data;
}

struct Instance {
  mcm::workload::CslData data;
  std::unique_ptr<mcm::Database> db;
  std::unique_ptr<CslSolver> solver;
  std::vector<mcm::Value> reference;
};

struct Job {
  int scenario = 0;
  std::string method;
  std::string metric;  ///< core.method_ms.<scenario>.<method>
};

mcm::Result<MethodRun> RunMethod(CslSolver* solver, const std::string& name) {
  if (name == "counting") return solver->RunCounting();
  if (name == "magic_sets") return solver->RunMagicSets();
  for (McVariant v : {McVariant::kBasic, McVariant::kSingle,
                      McVariant::kMultiple, McVariant::kRecurring,
                      McVariant::kRecurringSmart}) {
    for (McMode m : {McMode::kIndependent, McMode::kIntegrated}) {
      if (name == "mc/" + mcm::core::McVariantToString(v) + "/" +
                      mcm::core::McModeToString(m)) {
        return solver->RunMagicCounting(v, m);
      }
    }
  }
  return mcm::Status::InvalidArgument("unknown method " + name);
}

/// Measurements of one pass over the jobs.
struct Pass {
  double seconds = 0;               ///< wall time of the whole pass
  std::vector<double> job_ms;       ///< per job, wall time around the call
  std::vector<double> job_cpu_ms;   ///< per job, thread CPU time of the call
  std::vector<double> method_ms;    ///< per job, MethodRun::seconds
  std::vector<uint64_t> job_reads;  ///< per job, total tuple retrievals
  mcm::AccessStats storage;         ///< summed Database stats delta
  size_t correct = 0;               ///< jobs whose answer matched
};

class EngineLarge {
 public:
  EngineLarge(const Config& cfg, Sheet* sheet) : cfg_(cfg), sheet_(sheet) {
    for (int s = 0; s < 3; ++s) {
      for (const std::string& m : CslSolver::AllMethodNames()) {
        if (s == 2 && m == "counting") continue;
        jobs_.push_back({s, m, MethodMetricName(kScenarioNames[s], m)});
      }
    }
  }

  bool Run() {
    int repeats = 0;
    double setup_s = RepeatSetup([this] { return SetupOnce(); }, &repeats);
    if (setup_s < 0) return false;
    sheet_->e2e["setup_s"] = {setup_s, "s"};
    sheet_->Detail("setup_s", setup_s, "s",
                   "median process CPU time of " + std::to_string(repeats) +
                       " set-ups");

    // Oracle, outside set-up: the reference evaluation of the original
    // program on each instance.
    for (Instance& inst : instances_) {
      mcm::Result<MethodRun> ref = inst.solver->RunReference();
      if (!ref.ok()) {
        std::fprintf(stderr, "reference failed: %s\n",
                     ref.status().ToString().c_str());
        return false;
      }
      inst.reference = ref->answers;
    }

    RunPass(0);  // warm-up: lazy EDB indexes, allocator
    if (cfg_.trace) {
      std::vector<Pass> plain = Measure(cfg_.seconds / 2);
      Tracer::Enable(true);
      std::vector<Pass> traced = Measure(cfg_.seconds / 2);
      std::vector<double> step1 = Step1Sweep();
      RunUnsafe();
      Tracer::Enable(false);
      Layers(plain, traced, step1);
    } else {
      std::vector<Pass> passes = Measure(cfg_.seconds);
      EndToEnd(passes, RunUnsafe());
    }
    return true;
  }

 private:
  double SetupOnce() {
    instances_.clear();
    const int64_t cpu0 = ProcessCpuNs();
    int64_t bytes = 0;
    size_t tuples = 0, approx = 0;
    for (int s = 0; s < 3; ++s) {
      Instance inst;
      inst.data = MakeInstance(s, cfg_.seed);
      {
        AllocProbe probe;
        inst.db = std::make_unique<mcm::Database>();
        inst.data.Load(inst.db.get());
        bytes += probe.bytes();
      }
      tuples += inst.db->TotalTuples();
      approx += inst.db->ApproxBytes();
      inst.solver = std::make_unique<CslSolver>(inst.db.get(), "l", "e", "r",
                                                inst.data.source);
      instances_.push_back(std::move(inst));
    }
    double seconds = static_cast<double>(ProcessCpuNs() - cpu0) * 1e-9;
    load_bytes_ = static_cast<double>(bytes);
    load_tuples_ = static_cast<double>(tuples);
    approx_bytes_ = static_cast<double>(approx);
    return seconds;
  }

  /// One pass over every job.
  Pass RunPass(uint64_t pass_id) {
    Pass pass;
    ScopedSpan pass_span("engine.pass", 0, pass_id);
    std::vector<mcm::AccessStats> before;
    for (const Instance& inst : instances_) before.push_back(inst.db->stats());
    Clock::time_point start = Clock::now();
    for (size_t j = 0; j < jobs_.size(); ++j) {
      const Job& job = jobs_[j];
      Instance& inst = instances_[static_cast<size_t>(job.scenario)];
      ++sheet_->attempted;
      Clock::time_point t0 = Clock::now();
      const int64_t cpu0 = ThreadCpuNs();
      mcm::Result<MethodRun> run = [&] {
        ScopedSpan span("core.method", pass_span.id(), j);
        return RunMethod(inst.solver.get(), job.method);
      }();
      pass.job_cpu_ms.push_back(static_cast<double>(ThreadCpuNs() - cpu0) *
                                1e-6);
      pass.job_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      if (!run.ok()) {
        ++sheet_->failed;
        std::fprintf(stderr, "%s failed: %s\n", job.metric.c_str(),
                     run.status().ToString().c_str());
        pass.method_ms.push_back(0);
        pass.job_reads.push_back(0);
        continue;
      }
      if (run->answers == inst.reference) {
        ++pass.correct;
      } else {
        ++sheet_->failed;
        ++sheet_->wrong;
        std::fprintf(stderr, "%s: wrong answer (%zu values, reference %zu)\n",
                     job.metric.c_str(), run->answers.size(),
                     inst.reference.size());
      }
      pass.method_ms.push_back(run->seconds * 1e3);
      pass.job_reads.push_back(run->total.tuples_read);
    }
    pass.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    for (size_t i = 0; i < instances_.size(); ++i) {
      const mcm::AccessStats& now = instances_[i].db->stats();
      pass.storage.tuples_read += now.tuples_read - before[i].tuples_read;
      pass.storage.tuples_inserted +=
          now.tuples_inserted - before[i].tuples_inserted;
      pass.storage.insert_attempts +=
          now.insert_attempts - before[i].insert_attempts;
      pass.storage.probes += now.probes - before[i].probes;
      pass.storage.scans += now.scans - before[i].scans;
    }

    return pass;
  }

  /// Counting on the cyclic instance diverges; the governor must stop it
  /// with Unsafe. Returns the time that took. Not counted as an attempt
  /// unless it ends any other way: its expected outcome is the refusal.
  double RunUnsafe() {
    Clock::time_point t0 = Clock::now();
    mcm::Result<MethodRun> unsafe = [&] {
      ScopedSpan span("core.unsafe_counting", 0, jobs_.size());
      return instances_[2].solver->RunCounting();
    }();
    double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    if (unsafe.ok() || unsafe.status().code() != mcm::StatusCode::kUnsafe) {
      ++sheet_->attempted;
      ++sheet_->failed;
      ++sheet_->wrong;
      std::fprintf(stderr, "counting on the cyclic instance: expected "
                           "Unsafe, got %s\n",
                   unsafe.ok() ? "an answer"
                               : unsafe.status().ToString().c_str());
    }
    return seconds;
  }

  /// Passes until `seconds` of passes have run (at least one). The thread
  /// moves to the next CPU (see CpuRotation) before the first pass that
  /// starts kHopSeconds or more after the last move.
  std::vector<Pass> Measure(double seconds) {
    CpuRotation rotation(/*every_thread=*/false);
    const auto hop = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kHopSeconds));
    std::vector<Pass> passes;
    Clock::time_point start = Clock::now();
    Clock::time_point next_hop = start;
    do {
      if (Clock::now() >= next_hop) {
        rotation.Next();
        next_hop = Clock::now() + hop;
      }
      passes.push_back(RunPass(next_pass_++));
    } while (std::chrono::duration<double>(Clock::now() - start).count() <
             seconds);
    return passes;
  }

  /// Step 1 alone (ComputeReducedSets) for every magic counting job, summed
  /// per scenario. Writes into separate working relations.
  std::vector<double> Step1Sweep() {
    std::vector<double> per_scenario(3, 0);
    const mcm::core::WorkNames names{"pb_ms", "pb_rm", "pb_rc"};
    for (int s = 0; s < 3; ++s) {
      Instance& inst = instances_[static_cast<size_t>(s)];
      for (McVariant v : {McVariant::kBasic, McVariant::kSingle,
                          McVariant::kMultiple, McVariant::kRecurring,
                          McVariant::kRecurringSmart}) {
        for (McMode m : {McMode::kIndependent, McMode::kIntegrated}) {
          ++sheet_->attempted;
          ScopedSpan span("core.step1", 0, static_cast<uint64_t>(s));
          Clock::time_point t0 = Clock::now();
          auto r = mcm::core::ComputeReducedSets(inst.db.get(), "l",
                                                 inst.data.source, v, m, names);
          per_scenario[static_cast<size_t>(s)] +=
              std::chrono::duration<double, std::milli>(Clock::now() - t0)
                  .count();
          if (!r.ok()) ++sheet_->failed;
        }
      }
      for (const std::string& n : {names.ms, names.rm, names.rc}) {
        inst.db->Drop(n);
      }
    }
    return per_scenario;
  }

  void EndToEnd(const std::vector<Pass>& passes, double unsafe_s) {
    std::vector<double> pass_s;
    double answered = 0;
    uint64_t reads = 0;
    for (const Pass& p : passes) {
      answered += static_cast<double>(p.correct);
      pass_s.push_back(p.seconds);
      reads = p.storage.tuples_read;
    }
    // A job's wall time is its median over the passes, so a hiccup on a
    // shared machine moves one sample of one job; the percentiles are then
    // taken over the fixed set of jobs. The gated figures use the thread's
    // CPU time (the jobs run on this thread alone), which leaves out the
    // time the host ran other guests, and take each job's fastest pass: a
    // job does the same work every pass, so a slower one measures what else
    // shared the core and its caches at the time, not the program.
    std::vector<double> job_ms, job_cpu_ms;
    double cpu_s_per_pass = 0;
    for (size_t j = 0; j < jobs_.size(); ++j) {
      std::vector<double> runs;
      double cpu = passes.front().job_cpu_ms[j];
      for (const Pass& p : passes) {
        runs.push_back(p.job_ms[j]);
        cpu = std::min(cpu, p.job_cpu_ms[j]);
      }
      job_ms.push_back(Median(runs));
      job_cpu_ms.push_back(cpu);
      cpu_s_per_pass += cpu * 1e-3;
    }
    std::sort(job_ms.begin(), job_ms.end());
    std::sort(job_cpu_ms.begin(), job_cpu_ms.end());
    const double p50 = Quantile(job_ms, 0.5), p90 = Quantile(job_ms, 0.9);
    const double cpu_p50 = Quantile(job_cpu_ms, 0.5);
    const double answered_per_pass =
        answered / static_cast<double>(passes.size());
    const double per_cpu_s = answered_per_pass / cpu_s_per_pass;
    // Answers per pass over the median pass time: a slow outlier pass on a
    // shared machine moves the median less than the mean.
    double pass_med = Median(pass_s);
    double qps = answered_per_pass / pass_med;
    sheet_->e2e["answers_per_cpu_s"] = {per_cpu_s, "1/s"};
    sheet_->e2e["query_cpu_p50_ms"] = {cpu_p50, "ms"};
    const std::string over =
        "over the " + std::to_string(jobs_.size()) +
        " (scenario, method) jobs, each the median of " +
        std::to_string(passes.size()) + " passes";
    sheet_->Detail("answers_per_cpu_s", per_cpu_s, "1/s",
                   "method jobs answered per CPU-second; each job's fastest "
                   "pass");
    sheet_->Detail("query_cpu_p50_ms", cpu_p50, "ms",
                   "thread CPU; over the " + std::to_string(jobs_.size()) +
                       " jobs, each the fastest of " +
                       std::to_string(passes.size()) + " passes");
    sheet_->Detail("qps", qps, "1/s",
                   "wall clock; method jobs answered per second of a median "
                   "pass");
    sheet_->Detail("query_p50_ms", p50, "ms", "wall clock; " + over);
    sheet_->Detail("query_p90_ms", p90, "ms", "wall clock; " + over);
    sheet_->Detail("pass_s", pass_med, "s",
                   "median of " + std::to_string(passes.size()) +
                       " passes of " +
                       std::to_string(jobs_.size()) + " jobs; max " +
                       std::to_string(*std::max_element(pass_s.begin(),
                                                        pass_s.end())));
    sheet_->Detail("unsafe_abort_s", unsafe_s, "s",
                   "RunCounting on the cyclic instance, after the passes");
    sheet_->Detail("reads_per_pass", static_cast<double>(reads), "count");
    sheet_->Detail("ns_per_read", pass_med * 1e9 / static_cast<double>(reads),
                   "ns");
    double rss = PeakRssMb();
    sheet_->e2e["peak_rss_mb"] = {rss, "MB"};
    sheet_->Detail("peak_rss_mb", rss, "MB");
  }

  void Layers(const std::vector<Pass>& plain, const std::vector<Pass>& traced,
              const std::vector<double>& step1) {
    auto& layer = sheet_->layer;
    for (size_t j = 0; j < jobs_.size(); ++j) {
      std::vector<double> ms;
      for (const Pass& p : traced) ms.push_back(p.method_ms[j]);
      layer[jobs_[j].metric] = {Median(ms), "ms"};
    }
    const Pass& last = traced.back();
    for (int s = 0; s < 3; ++s) {
      std::string scen = kScenarioNames[s];
      double reads = 0;
      std::vector<double> ns;
      for (const Pass& p : traced) {
        double ms = 0, r = 0;
        for (size_t j = 0; j < jobs_.size(); ++j) {
          if (jobs_[j].scenario != s) continue;
          ms += p.method_ms[j];
          r += static_cast<double>(p.job_reads[j]);
        }
        reads = r;
        ns.push_back(r > 0 ? ms * 1e6 / r : 0);
      }
      layer["core.reads." + scen] = {reads, "count"};
      layer["eval.ns_per_read." + scen] = {Median(ns), "ns"};
      layer["core.step1_ms." + scen] = {step1[static_cast<size_t>(s)], "ms"};
    }
    layer["storage.probes"] = {static_cast<double>(last.storage.probes),
                               "count"};
    layer["storage.insert_useful_frac"] = {
        last.storage.insert_attempts == 0
            ? 0
            : static_cast<double>(last.storage.tuples_inserted) /
                  static_cast<double>(last.storage.insert_attempts),
        "ratio"};
    layer["storage.bytes_per_tuple"] = {load_bytes_ / load_tuples_, "B"};
    layer["storage.approx_bytes_ratio"] = {approx_bytes_ / load_bytes_,
                                           "ratio"};
    std::vector<double> plain_s, traced_s;
    for (const Pass& p : plain) plain_s.push_back(p.seconds);
    for (const Pass& p : traced) traced_s.push_back(p.seconds);
    layer["trace.overhead_frac"] = {Median(traced_s) / Median(plain_s) - 1,
                                    "ratio"};
    sheet_->Detail("traced_passes", static_cast<double>(traced.size()),
                   "count");
  }

  const Config& cfg_;
  Sheet* sheet_;
  std::vector<Job> jobs_;
  std::vector<Instance> instances_;
  uint64_t next_pass_ = 1;  // pass 0 is the warm-up
  double load_bytes_ = 0, load_tuples_ = 0, approx_bytes_ = 0;
};

}  // namespace

bool RunEngineLarge(const Config& cfg, Sheet* sheet) {
  EngineLarge bench(cfg, sheet);
  return bench.Run();
}

}  // namespace perfbench
