// Shared pieces of the repository benchmark: run configuration, the result
// sheet every workload fills in, latency summaries, the in-memory span
// tracer, the allocation counter behind the memory probes, seeded input
// helpers and the independent same-generation oracle.
#pragma once

#include <sched.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "storage/value.h"
#include "workload/generators.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time used so far, in ns: by the whole process, or by the calling
/// thread. On a virtual machine whose kernel accounts steal time (Linux with
/// CONFIG_PARAVIRT_TIME_ACCOUNTING), time the host gave to other guests is
/// not counted, so CPU-time figures stay put while wall-clock ones stretch
/// with the host's load.
inline int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
inline int64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }
inline int64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (TSV); empty = do not write.
  std::string trace_out;
};

/// The program every service-side request evaluates: same generation over
/// the parent relation (l = r = parent, e = identity).
inline constexpr const char* kSameGenRules =
    "p(X, Y) :- e(X, Y).\n"
    "p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).";

/// One measured quantity, printed by name with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one workload run reports. `e2e` and `layer` are the metrics
/// named in BENCHMARK.json; `detail` holds the workload-specific figures
/// printed above the result line (pass_s, commit_p90_ms, ...).
struct Sheet {
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< failed, shed, timed-out and wrong answers
  uint64_t wrong = 0;   ///< answers that disagree with the oracle
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::vector<std::pair<std::string, std::string>> detail;

  void Detail(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
};

/// Median, p90 and p99 of a latency sample. A percentile is reported only
/// when at least ten samples lie beyond it (0 otherwise): p90 needs 100
/// samples, p99 needs 1000.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};
Summary Summarize(std::vector<double> values);
/// Quantile with linear interpolation between order statistics.
double Quantile(const std::vector<double>& sorted, double q);
double Median(std::vector<double> values);
/// "p50 1.2, p90 3.4, p99 5.6 over 2400 samples"-style note for the report.
std::string SummaryNote(const Summary& s);

/// A latency sample stamped with when its request was sent (or due).
struct Timed {
  int64_t t_ns = 0;
  double value = 0;
};

/// Latency over consecutive windows: the `seconds` from `origin_ns` on are
/// cut into windows of `window_s` (a final short window is dropped), each
/// window is summarized on its own, and the result is the median across
/// windows of each figure. One burst of interference on a shared machine
/// then moves one window, not the result. `per_s` is the median window's
/// sample count per second.
struct Windowed {
  Summary summary;  ///< n = samples in full windows; percentiles = medians
  double per_s = 0;
  size_t windows = 0;
};
Windowed SummarizeWindows(const std::vector<Timed>& samples, int64_t origin_ns,
                          double seconds, double window_s);
std::string WindowedNote(const Windowed& w, double window_s);

/// Set-up time as a median: calls `once` (which tears down the previous
/// state untimed, then builds and returns the process CPU time the build
/// took, in seconds, or a negative number on failure) at least five times
/// and on until half a second of set-up has been timed, at most two hundred
/// times. The state of
/// the last call is the one the run uses. Returns the median, or -1 on
/// failure.
template <typename F>
double RepeatSetup(F&& once, int* repeats) {
  std::vector<double> times;
  double total = 0;
  while (times.size() < 5 || (total < 0.5 && times.size() < 200)) {
    double t = once();
    if (t < 0) return -1;
    times.push_back(t);
    total += t;
  }
  *repeats = static_cast<int>(times.size());
  return Median(std::move(times));
}

// --- tracing ---------------------------------------------------------------

/// One recorded interval. Spans stay in memory until WriteSpans().
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root
  uint64_t request = 0;
};

/// Process-wide span store. Off unless Enable(true); a disabled tracer
/// records nothing. Each thread appends to its own buffer (no lock on the
/// recording path after the thread's first span).
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled() { return on_.load(std::memory_order_relaxed); }
  static uint32_t NextId() { return next_id_.fetch_add(1) + 1; }
  /// Record a finished interval; returns its id (0 when disabled).
  static uint32_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                         uint32_t parent, uint64_t request,
                         uint32_t id = 0);
  /// All spans recorded so far, from every thread.
  static std::vector<Span> Collect();
  /// Write every span as TSV (name, start, end, id, parent, request).
  static bool WriteSpans(const std::string& path);

 private:
  static std::atomic<bool> on_;
  static std::atomic<uint32_t> next_id_;
};

/// RAII span around one call. Does nothing while tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint32_t parent, uint64_t request)
      : name_(name), parent_(parent), request_(request) {
    if (Tracer::enabled()) {
      id_ = Tracer::NextId();
      start_ns_ = NowNs();
    }
  }
  ~ScopedSpan() {
    if (id_ != 0) {
      Tracer::Record(name_, start_ns_, NowNs(), parent_, request_, id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  const char* name_;
  uint32_t parent_;
  uint64_t request_;
  uint32_t id_ = 0;
  int64_t start_ns_ = 0;
};

// --- CPU placement -----------------------------------------------------------

/// Moves the calling thread, or every thread of the process, onto one CPU
/// at a time, in turn over the CPUs the process may use; on destruction
/// each moved thread gets the process's former CPU set back. Threads
/// started meanwhile inherit their creator's CPU.
///
/// Why: on a shared host one virtual CPU can run slower than the others
/// for tens of seconds (another guest busy on the same core), and which one
/// moves over time. The scheduler keeps an otherwise idle machine's thread
/// where it is, so a run could spend all its time on a slow CPU; one that
/// visits every CPU in turn and keeps each unit of work's cheapest run
/// measures the program, not the placement.
class CpuRotation {
 public:
  explicit CpuRotation(bool every_thread);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Moves the thread(s) onto the next CPU in turn.
  void Next();

 private:
  void Apply(const cpu_set_t& mask);

  bool every_thread_;
  cpu_set_t saved_;
  std::vector<int> cpus_;  ///< empty when the CPU set could not be read
  size_t next_ = 0;
};

// --- memory probes -----------------------------------------------------------

/// Counts the bytes the calling thread allocates (net of frees) while a
/// probe is open; the global operator new/delete of this binary feed it.
class AllocProbe {
 public:
  AllocProbe();
  ~AllocProbe();
  AllocProbe(const AllocProbe&) = delete;
  AllocProbe& operator=(const AllocProbe&) = delete;
  /// Net bytes allocated on this thread since construction.
  int64_t bytes() const;

 private:
  int64_t start_;
};

/// Peak resident set of this process, in MB (getrusage ru_maxrss).
double PeakRssMb();

// --- inputs ------------------------------------------------------------------

/// Seeded relabelling of an instance: every value of l, e and r (and the
/// source) is mapped through one injective map into [0, 2 * distinct).
/// The structure, and with it every method's retrieval count, is
/// unchanged; only the labels, and so the hash layouts, follow the seed.
/// Returns the map from old to new labels.
std::map<mcm::Value, mcm::Value> Relabel(mcm::workload::CslData* data,
                                         uint64_t seed);

/// Same-generation instance of `people` persons with the benchmark's fixed
/// family structure, relabelled by `seed`.
mcm::workload::CslData SameGeneration(size_t people, uint64_t seed,
                                      std::vector<mcm::Value>* persons);

/// Independent oracle for p(a, Y) over the same-generation program on an
/// acyclic parent relation: the answers are the y that reach, in k steps up
/// r, some e-image of a node k steps up l from a. Computed by level
/// counting directly over the arc lists, without the engine.
class SameGenOracle {
 public:
  SameGenOracle(const std::vector<std::pair<mcm::Value, mcm::Value>>& l,
                const std::vector<std::pair<mcm::Value, mcm::Value>>& e,
                const std::vector<std::pair<mcm::Value, mcm::Value>>& r);
  /// Sorted distinct answers for the query constant `a`.
  std::vector<mcm::Value> Answers(mcm::Value a) const;

 private:
  std::map<mcm::Value, uint32_t> index_;
  std::vector<std::vector<uint32_t>> l_up_, e_out_, r_down_;
  std::vector<mcm::Value> label_;
  uint32_t Id(mcm::Value v);
};

/// Zipf(s = 1) sampler over ranks [0, n).
class Zipf {
 public:
  explicit Zipf(size_t n);
  size_t Draw(double u) const;  ///< u uniform in [0, 1)

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
