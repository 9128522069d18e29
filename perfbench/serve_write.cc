// serve-write: a hot-swap QueryService with 2 workers, in process, over an
// in-memory VersionedStore holding a same-generation EDB of 1000 persons.
// Reads arrive in an open loop (evenly spaced from a seeded phase, uniform
// seeded query constants) at a fixed rate well under the 2-worker capacity;
// one writer thread commits at a fixed rate, each commit toggling a fixed set
// of parent arcs in l and r (inserted at one epoch, deleted at the next). So
// storage is used both ways: commits rebuild l and r copy-on-write, and
// every reader borrows the version it pinned and indexes it. Constants
// rarely repeat and epochs keep advancing. Threads: generator, writer and
// two workers.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "replay.h"
#include "service/query_service.h"
#include "storage/database.h"
#include "storage/versioned_store.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kPeople = 1000;
constexpr size_t kWorkers = 2;
/// Reads per second, evenly spaced. Two workers answer ~300/s back to back
/// on the reference 4-core machine, but a worker that idles between
/// requests runs each slower (~10 ms), and a shared host can slow it by half
/// again; 60/s keeps the load under half of capacity even then, so a run
/// measures service time rather than a queue that a slow minute built.
/// Fixed, so that a slower program shows as longer waits, not as less
/// offered load.
constexpr double kReadRate = 60;
constexpr double kCommitRate = 20;  ///< commits per second
constexpr size_t kToggled = 4;      ///< parent arcs flipped by each commit
constexpr double kWarmupSeconds = 1.0;
/// Latency figures are medians over windows of this length (see
/// SummarizeWindows); 240 reads a window support its p90.
constexpr double kWindowSeconds = 4.0;
constexpr size_t kReplay = 60;  ///< requests replayed layer by layer
/// Share of an untraced run spent on the serial phase (one read in flight,
/// no writer), which times each read's CPU cost; the open loop has the rest.
constexpr double kSerialShare = 1.0 / 4;
constexpr size_t kSerialWarmup = 10;  ///< serial reads not measured

struct Read {
  int64_t due_ns = 0;  ///< offset from the phase start
  size_t person = 0;
};

/// Completion stamp written by the request's on_done hook: one slot per
/// scheduled read, allocated before the phase starts.
struct Slot {
  std::atomic<int64_t> done_ns{0};
};

struct Phase {
  std::vector<Timed> latency_ms;  ///< stamped with the due time
  std::vector<double> queue_ms, run_ms, late_ms;
  std::vector<Timed> commit_ms;  ///< stamped with the due time
  size_t answered = 0;  ///< correct answers to reads due inside the window
  size_t correct = 0;   ///< correct answers to every read of the phase
  /// CPU time of the phase less the generator thread's, which also checks
  /// the answers: the workers and the writer.
  double server_cpu_s = 0;
  double window_s = 0;
  int64_t origin_ns = 0;  ///< start of the measured window
  int64_t last_done_ns = 0;  ///< last completion of a read due inside it
  std::vector<size_t> persons;  ///< the reads' persons, in schedule order
};

class ServeWrite {
 public:
  ServeWrite(const Config& cfg, Sheet* sheet)
      : cfg_(cfg), sheet_(sheet), schedule_(cfg.seed * 7919 + 3) {}

  ~ServeWrite() {
    if (service_ != nullptr) service_->Shutdown(/*drain=*/true);
  }

  bool Run() {
    int repeats = 0;
    double setup_s = RepeatSetup([this] { return SetupOnce(); }, &repeats);
    if (setup_s < 0) return false;
    sheet_->e2e["setup_s"] = {setup_s, "s"};
    sheet_->Detail("setup_s", setup_s, "s",
                   "median process CPU time of " + std::to_string(repeats) +
                       " set-ups");
    BuildOracle();

    mcm::service::ServiceStats before = service_->stats();
    if (cfg_.trace) {
      Phase plain = RunPhase(cfg_.seconds / 2);
      Tracer::Enable(true);
      Phase traced = RunPhase(cfg_.seconds / 2);
      Layers(plain, traced, before);
      Tracer::Enable(false);
    } else {
      Phase phase = RunPhase(cfg_.seconds * (1 - kSerialShare));
      EndToEnd(phase, Serial(cfg_.seconds * kSerialShare));
    }
    return true;
  }

 private:
  double SetupOnce() {
    if (service_ != nullptr) service_->Shutdown(/*drain=*/true);
    service_.reset();  // tear-down of the previous set-up is not timed
    store_.reset();
    const int64_t cpu0 = ProcessCpuNs();
    data_ = SameGeneration(kPeople, cfg_.seed, &persons_);
    mcm::Database db;
    {
      AllocProbe probe;
      data_.Load(&db);
      load_bytes_ = static_cast<double>(probe.bytes());
    }
    load_tuples_ = static_cast<double>(db.TotalTuples());
    approx_bytes_ = static_cast<double>(db.ApproxBytes());
    store_ = std::make_unique<mcm::VersionedStore>();
    if (!store_->Recover().ok()) return -1;
    if (!store_->BootstrapFromDatabase(db).ok()) return -1;
    base_epoch_ = store_->TipEpoch();
    mcm::service::ServiceOptions sopts;
    sopts.workers = kWorkers;
    service_ =
        std::make_unique<mcm::service::QueryService>(store_.get(), sopts);
    return static_cast<double>(ProcessCpuNs() - cpu0) * 1e-9;
  }

  /// The toggled arcs (fixed with the family structure: new parents for the
  /// youngest persons, which changes many answers) and the answers of every
  /// person's query without and with them.
  void BuildOracle() {
    std::vector<std::pair<mcm::Value, mcm::Value>> toggled_l = data_.l;
    std::vector<std::pair<mcm::Value, mcm::Value>> toggled_r = data_.r;
    mcm::Rng rng(97);
    while (toggles_.size() < kToggled) {
      size_t child = rng.NextIndex(kPeople / 4);
      size_t parent = child + 1 + rng.NextIndex(kPeople - child - 1);
      std::pair<mcm::Value, mcm::Value> arc{persons_[child], persons_[parent]};
      if (std::find(toggled_l.begin(), toggled_l.end(), arc) != toggled_l.end())
        continue;
      toggles_.push_back(arc);
      toggled_l.push_back(arc);
      toggled_r.push_back(arc);
    }
    SameGenOracle base(data_.l, data_.e, data_.r);
    SameGenOracle flipped(toggled_l, data_.e, toggled_r);
    answers_[0].clear();
    answers_[1].clear();
    size_t differ = 0;
    for (mcm::Value p : persons_) {
      answers_[0].push_back(base.Answers(p));
      answers_[1].push_back(flipped.Answers(p));
      if (answers_[0].back() != answers_[1].back()) ++differ;
    }
    sheet_->Detail("toggle_changes_answers", static_cast<double>(differ),
                   "count", "persons whose answer differs between parities");
  }

  /// Expected answers for person index `i` at `epoch`: commits alternate
  /// insert/delete of the toggled arcs, so odd epochs past the bootstrap
  /// carry them.
  const std::vector<mcm::Value>& Expected(size_t i, uint64_t epoch) const {
    return answers_[(epoch - base_epoch_) % 2][i];
  }

  /// Commit number k: odd k inserts the toggled arcs, even k deletes them.
  /// True when it produced epoch base + k.
  bool Commit(size_t k) {
    mcm::UpdateBatch batch;
    for (const auto& [child, parent] : toggles_) {
      std::vector<std::string> fields{std::to_string(child),
                                      std::to_string(parent)};
      for (const char* rel : {"l", "r"}) {
        if (k % 2 == 1) {
          batch.Insert(rel, fields);
        } else {
          batch.Delete(rel, fields);
        }
      }
    }
    mcm::Result<uint64_t> epoch = store_->Commit(batch);
    return epoch.ok() && *epoch == base_epoch_ + k;
  }

  /// One open-loop phase: a warm-up plus `seconds`, reads and commits on
  /// their seeded schedules, then every answer checked.
  Phase RunPhase(double seconds) {
    Phase phase;
    phase.window_s = seconds;
    const double total = kWarmupSeconds + seconds;
    std::vector<Read> reads;
    const double read_phase = schedule_.NextDouble() / kReadRate;
    for (size_t i = 0;; ++i) {
      double t = read_phase + static_cast<double>(i) / kReadRate;
      if (t >= total) break;
      reads.push_back({static_cast<int64_t>(t * 1e9),
                       schedule_.NextIndex(kPeople)});
    }
    std::vector<std::string> texts;
    texts.reserve(reads.size());
    for (const Read& r : reads) {
      phase.persons.push_back(r.person);
      texts.push_back(std::string(kSameGenRules) + "\np(" +
                      std::to_string(persons_[r.person]) + ", Y)?");
    }
    std::vector<Slot> slots(reads.size());
    std::vector<int64_t> sent(reads.size(), 0);
    std::vector<std::shared_ptr<mcm::service::QueryTicket>> tickets(
        reads.size());
    const double commit_phase = schedule_.NextDouble() / kCommitRate;

    const int64_t process0 = ProcessCpuNs(), thread0 = ThreadCpuNs();
    const int64_t start = NowNs();
    const Clock::time_point start_tp = Clock::now();
    phase.origin_ns = start + static_cast<int64_t>(kWarmupSeconds * 1e9);
    auto at = [start_tp](int64_t offset_ns) {
      return start_tp + std::chrono::nanoseconds(offset_ns);
    };
    size_t commits_made = 0, commits_failed = 0;  // writer thread only
    std::thread writer([&] {
      for (size_t j = 0;; ++j) {
        double t = commit_phase + static_cast<double>(j) / kCommitRate;
        if (t >= total) break;
        int64_t due = start + static_cast<int64_t>(t * 1e9);
        std::this_thread::sleep_until(at(due - start));
        ++commits_made;
        if (!Commit(++commits_)) {
          ++commits_failed;
          continue;
        }
        int64_t done = NowNs();
        phase.commit_ms.push_back(
            {due, static_cast<double>(done - due) * 1e-6});
        Tracer::Record("storage.commit", due, done, 0, commits_);
      }
    });
    for (size_t i = 0; i < reads.size(); ++i) {
      std::this_thread::sleep_until(at(reads[i].due_ns));
      mcm::service::QueryRequest request;
      request.program_text = texts[i];
      Slot* slot = &slots[i];
      request.on_done = [slot](uint64_t) {
        slot->done_ns.store(NowNs(), std::memory_order_release);
      };
      sent[i] = NowNs();
      tickets[i] = service_->Submit(std::move(request));
    }
    writer.join();
    sheet_->attempted += commits_made;
    sheet_->failed += commits_failed;

    const int64_t window_lo = static_cast<int64_t>(kWarmupSeconds * 1e9);
    for (size_t i = 0; i < reads.size(); ++i) {
      mcm::service::QueryResponse response = tickets[i]->Get();
      // The service runs on_done after it fulfils the future, so the stamp
      // may still be on its way; the slots must also outlive every hook.
      int64_t done = 0;
      while ((done = slots[i].done_ns.load(std::memory_order_acquire)) == 0) {
        std::this_thread::yield();
      }
      ++sheet_->attempted;
      if (response.outcome != mcm::service::Outcome::kOk) {
        ++sheet_->failed;
        if (failures_logged_++ < 5) {
          std::fprintf(stderr, "serve-write: %s: %s\n",
                       std::string(mcm::service::OutcomeToString(
                                       response.outcome)).c_str(),
                       response.status.ToString().c_str());
        }
        continue;
      }
      std::vector<mcm::Value> answers = AnswerValues(response.report.results);
      if (answers != Expected(reads[i].person, response.edb_epoch)) {
        ++sheet_->failed;
        ++sheet_->wrong;
        if (failures_logged_++ < 5) {
          std::fprintf(stderr,
                       "serve-write: wrong answer for %lld at epoch %llu: %zu "
                       "values, expected %zu\n",
                       static_cast<long long>(persons_[reads[i].person]),
                       static_cast<unsigned long long>(response.edb_epoch),
                       answers.size(),
                       Expected(reads[i].person, response.edb_epoch).size());
        }
        continue;
      }
      ++phase.correct;
      if (reads[i].due_ns < window_lo) continue;
      int64_t due = start + reads[i].due_ns;
      phase.latency_ms.push_back({due, static_cast<double>(done - due) * 1e-6});
      phase.last_done_ns = std::max(phase.last_done_ns, done);
      phase.late_ms.push_back(static_cast<double>(sent[i] - due) * 1e-6);
      phase.queue_ms.push_back(response.queue_seconds * 1e3);
      phase.run_ms.push_back(response.run_seconds * 1e3);
      ++phase.answered;
      uint32_t root = Tracer::Record("client.request", due, done, 0, i);
      Tracer::Record("loadgen.submit", due, sent[i], root, i);
    }
    phase.server_cpu_s =
        static_cast<double>((ProcessCpuNs() - process0) -
                            (ThreadCpuNs() - thread0)) *
        1e-9;
    return phase;
  }

  /// Reads one at a time, with the writer stopped, for `seconds` after a
  /// short warm-up. Returns each measured read's CPU cost in ms: the
  /// process's CPU time across Submit and Get less this thread's, so the
  /// worker that served it.
  std::vector<double> Serial(double seconds) {
    std::vector<double> cpu_ms;
    int64_t end = 0;
    for (size_t n = 0;; ++n) {
      if (n == kSerialWarmup) {
        end = NowNs() + static_cast<int64_t>(seconds * 1e9);
      }
      if (end != 0 && NowNs() >= end) break;
      const size_t person = schedule_.NextIndex(kPeople);
      mcm::service::QueryRequest request;
      request.program_text = std::string(kSameGenRules) + "\np(" +
                             std::to_string(persons_[person]) + ", Y)?";
      const int64_t process0 = ProcessCpuNs(), thread0 = ThreadCpuNs();
      mcm::service::QueryResponse response =
          service_->Submit(std::move(request))->Get();
      const int64_t process1 = ProcessCpuNs(), thread1 = ThreadCpuNs();
      ++sheet_->attempted;
      if (response.outcome != mcm::service::Outcome::kOk ||
          AnswerValues(response.report.results) !=
              Expected(person, response.edb_epoch)) {
        ++sheet_->failed;
        if (response.outcome == mcm::service::Outcome::kOk) ++sheet_->wrong;
        if (failures_logged_++ < 5) {
          std::fprintf(stderr, "serve-write: serial read for %lld failed\n",
                       static_cast<long long>(persons_[person]));
        }
        continue;
      }
      if (end == 0) continue;
      cpu_ms.push_back(
          static_cast<double>((process1 - process0) - (thread1 - thread0)) *
          1e-6);
    }
    return cpu_ms;
  }

  void EndToEnd(const Phase& phase, std::vector<double> serial_cpu_ms) {
    Windowed w = SummarizeWindows(phase.latency_ms, phase.origin_ns,
                                  phase.window_s, kWindowSeconds);
    const Summary& lat = w.summary;
    std::vector<double> pooled;
    for (const Timed& t : phase.latency_ms) pooled.push_back(t.value);
    Summary all = Summarize(pooled);
    std::vector<double> commits;
    for (const Timed& c : phase.commit_ms) {
      if (c.t_ns >= phase.origin_ns) commits.push_back(c.value);
    }
    Summary commit = Summarize(commits);
    // Answers over the time from the window's start to its last answer: the
    // offered rate while the service keeps up, less when answers trail.
    double qps = static_cast<double>(phase.answered) /
                 (static_cast<double>(phase.last_done_ns - phase.origin_ns) *
                  1e-9);
    double per_cpu_s = static_cast<double>(phase.correct) / phase.server_cpu_s;
    const size_t serial_n = serial_cpu_ms.size();
    double cpu_p50 = Median(std::move(serial_cpu_ms));
    sheet_->e2e["answers_per_cpu_s"] = {per_cpu_s, "1/s"};
    sheet_->e2e["query_cpu_p50_ms"] = {cpu_p50, "ms"};
    sheet_->Detail("answers_per_cpu_s", per_cpu_s, "1/s",
                   "correct answers per CPU-second of the workers and the "
                   "writer; open loop");
    sheet_->Detail("query_cpu_p50_ms", cpu_p50, "ms",
                   "worker CPU per read, one in flight, no writer; " +
                       std::to_string(serial_n) + " reads");
    sheet_->Detail("qps", qps, "1/s",
                   "wall clock; open loop offered at " +
                       std::to_string(static_cast<int>(kReadRate)) + "/s");
    sheet_->Detail("query_p50_ms", lat.p50, "ms",
                   "wall clock, due time to completion; " +
                       WindowedNote(w, kWindowSeconds));
    sheet_->Detail("query_p90_ms", lat.p90, "ms");
    sheet_->Detail("query_p99_ms", all.p99, "ms",
                   "over the whole window; " + SummaryNote(all));
    sheet_->Detail("commit_p50_ms", commit.p50, "ms",
                   "due time to Commit return; " + SummaryNote(commit));
    sheet_->Detail("commit_p90_ms", commit.p90, "ms");
    double rss = PeakRssMb();
    sheet_->e2e["peak_rss_mb"] = {rss, "MB"};
    sheet_->Detail("peak_rss_mb", rss, "MB");
  }

  void Layers(const Phase& plain, const Phase& traced,
              const mcm::service::ServiceStats& before) {
    auto& layer = sheet_->layer;
    std::vector<double> queue = traced.queue_ms;
    std::sort(queue.begin(), queue.end());
    layer["service.queue_ms_p50"] = {Quantile(queue, 0.5), "ms"};
    layer["service.queue_ms_p99"] = {Quantile(queue, 0.99), "ms"};
    layer["service.run_ms_p50"] = {Median(traced.run_ms), "ms"};
    mcm::service::ServiceStats after = service_->stats();
    layer["service.shed"] = {
        static_cast<double>(after.rejected_overload - before.rejected_overload),
        "count"};
    layer["service.retries"] = {
        static_cast<double>(after.retries - before.retries), "count"};
    layer["service.breaker_short_circuits"] = {
        static_cast<double>(after.breaker_short_circuits -
                            before.breaker_short_circuits),
        "count"};
    std::vector<double> late = traced.late_ms;
    std::sort(late.begin(), late.end());
    layer["loadgen.late_ms_p99"] = {Quantile(late, 0.99), "ms"};
    layer["storage.bytes_per_tuple"] = {load_bytes_ / load_tuples_, "B"};
    layer["storage.approx_bytes_ratio"] = {approx_bytes_ / load_bytes_,
                                           "ratio"};
    auto p50 = [](const Phase& p) {
      std::vector<double> v;
      for (const Timed& t : p.latency_ms) v.push_back(t.value);
      return Median(v);
    };
    layer["trace.overhead_frac"] = {p50(traced) / p50(plain) - 1, "ratio"};

    // The first reads of the traced phase, served serially.
    std::vector<mcm::Value> constants;
    for (size_t i = 0; i < kReplay && i < traced.persons.size(); ++i) {
      constants.push_back(persons_[traced.persons[i]]);
    }
    std::map<mcm::Value, size_t> person_index;
    for (size_t i = 0; i < persons_.size(); ++i) person_index[persons_[i]] = i;
    ReplayLayers(store_.get(), constants,
                 [&](mcm::Value c, uint64_t epoch) {
                   return Expected(person_index.at(c), epoch);
                 },
                 sheet_);
  }

  const Config& cfg_;
  Sheet* sheet_;
  mcm::Rng schedule_;
  mcm::workload::CslData data_;
  std::vector<mcm::Value> persons_;
  std::unique_ptr<mcm::VersionedStore> store_;
  std::unique_ptr<mcm::service::QueryService> service_;
  uint64_t base_epoch_ = 0;
  size_t commits_ = 0;
  std::vector<std::pair<mcm::Value, mcm::Value>> toggles_;
  std::vector<std::vector<mcm::Value>> answers_[2];
  size_t failures_logged_ = 0;
  double load_bytes_ = 0, load_tuples_ = 0, approx_bytes_ = 0;
};

}  // namespace

bool RunServeWrite(const Config& cfg, Sheet* sheet) {
  ServeWrite bench(cfg, sheet);
  return bench.Run();
}

}  // namespace perfbench
