// edge-small: the TCP Frontend over a 2-worker QueryService, read-only,
// same-generation EDB of 100 persons. One generator thread keeps four
// connections in a closed loop at a fixed pipeline depth; query constants
// are drawn Zipf(s = 1) over a permutation of the persons. Each
// query does ~1.6k tuple retrievals, so the fixed per-request cost --
// protocol, dispatch, parse, analysis -- dominates, and a storage change
// barely moves it. Threads: generator, frontend loop and two workers.
// After the closed loop, the generator sends one request at a time on one
// connection, to time each request's CPU cost.
#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "replay.h"
#include "service/frontend.h"
#include "service/query_service.h"
#include "storage/database.h"
#include "storage/versioned_store.h"
#include "util/rng.h"
#include "util/socket.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kPeople = 100;
constexpr size_t kWorkers = 2;
constexpr size_t kConnections = 4;
constexpr size_t kDepth = 2;  ///< requests in flight per connection
constexpr double kWarmupSeconds = 0.5;
/// Throughput and latency are medians over windows of this length (see
/// SummarizeWindows); a window holds a few thousand answers.
constexpr double kWindowSeconds = 2.0;
/// Share of an untraced run spent on the serial phase (one request in
/// flight), which times each request's CPU cost; the closed loop has the
/// rest.
constexpr double kSerialShare = 1.0 / 2;
constexpr size_t kSerialWarmup = 100;  ///< serial requests not measured
/// The serial phase moves every thread to the next CPU this often.
constexpr double kSerialHopSeconds = 1.0;
constexpr size_t kReplay = 200;  ///< requests replayed layer by layer

/// The system under test, torn down in reverse order of construction.
struct System {
  mcm::workload::CslData data;
  std::vector<mcm::Value> persons;
  std::unique_ptr<mcm::VersionedStore> store;
  std::unique_ptr<mcm::service::QueryService> service;
  std::unique_ptr<mcm::service::Frontend> frontend;
  std::thread loop;
  std::vector<mcm::util::Socket> conns;

  System() = default;
  System(const System&) = delete;
  System& operator=(const System&) = delete;
  ~System() {
    conns.clear();
    if (frontend != nullptr) frontend->RequestDrain();
    if (loop.joinable()) loop.join();
    frontend.reset();
    if (service != nullptr) service->Shutdown(/*drain=*/true);
  }
};

struct InFlight {
  int64_t sent_ns = 0;
  size_t person = 0;  ///< index into System::persons
  uint64_t seq = 0;
};

/// One measured phase of the closed loop.
struct Phase {
  std::vector<Timed> latency_ms;  ///< stamped with the send time
  std::vector<double> queue_ms, run_ms, edge_ms;
  /// Per window: correct answers per CPU-second of the serving threads
  /// (the process less the generator thread).
  std::vector<double> per_cpu_s;
  double window_s = 0;
  int64_t origin_ns = 0;  ///< start of the measured window
};

class EdgeSmall {
 public:
  EdgeSmall(const Config& cfg, Sheet* sheet)
      : cfg_(cfg), sheet_(sheet), zipf_(kPeople), draws_(cfg.seed * 31 + 7) {}

  bool Run() {
    int repeats = 0;
    double setup_s = RepeatSetup([this] { return SetupOnce(); }, &repeats);
    if (setup_s < 0) return false;
    sheet_->e2e["setup_s"] = {setup_s, "s"};
    sheet_->Detail("setup_s", setup_s, "s",
                   "median process CPU time of " + std::to_string(repeats) +
                       " set-ups");

    // Oracle, outside set-up: the answer count of every person's query.
    SameGenOracle oracle(sys_->data.l, sys_->data.e, sys_->data.r);
    for (mcm::Value p : sys_->persons) {
      expected_.push_back(oracle.Answers(p).size());
    }
    // Zipf rank k asks about persons[rank_to_person_[k]]. The permutation is
    // fixed with the family structure: a seeded one picks cheaper or dearer
    // hot persons, which moved qps by 11% between seeds. The seed still
    // drives the draws and, through the labels, the query text.
    for (size_t i = 0; i < kPeople; ++i) rank_to_person_.push_back(i);
    mcm::Rng(97).Shuffle(&rank_to_person_);
    for (mcm::Value p : sys_->persons) {
      lines_.push_back("p(" + std::to_string(p) + ", Y)?\n");
    }

    mcm::service::ServiceStats before = sys_->service->stats();
    if (cfg_.trace) {
      Phase plain = Loop(cfg_.seconds / 2);
      Tracer::Enable(true);
      Phase traced = Loop(cfg_.seconds / 2);
      Layers(plain, traced, before);
      Tracer::Enable(false);
    } else {
      Phase loop = Loop(cfg_.seconds * (1 - kSerialShare));
      EndToEnd(loop, Serial(cfg_.seconds * kSerialShare));
    }
    return !broken_;
  }

 private:
  double SetupOnce() {
    sys_.reset();  // tear-down of the previous set-up is not timed
    const int64_t cpu0 = ProcessCpuNs();
    auto sys = std::make_unique<System>();
    sys->data = SameGeneration(kPeople, cfg_.seed, &sys->persons);
    mcm::Database db;
    {
      AllocProbe probe;
      sys->data.Load(&db);
      load_bytes_ = static_cast<double>(probe.bytes());
    }
    load_tuples_ = static_cast<double>(db.TotalTuples());
    approx_bytes_ = static_cast<double>(db.ApproxBytes());
    sys->store = std::make_unique<mcm::VersionedStore>();
    if (!sys->store->Recover().ok()) return -1;
    if (!sys->store->BootstrapFromDatabase(db).ok()) return -1;
    mcm::service::ServiceOptions sopts;
    sopts.workers = kWorkers;
    sys->service = std::make_unique<mcm::service::QueryService>(
        sys->store.get(), sopts);
    mcm::service::FrontendOptions fopts;
    fopts.rules = kSameGenRules;
    fopts.max_connections = kConnections;
    fopts.max_pipeline = kDepth;
    fopts.idle_ms = 0;
    fopts.first_line_ms = 0;
    sys->frontend = std::make_unique<mcm::service::Frontend>(
        sys->service.get(), std::move(fopts));
    if (mcm::Status st = sys->frontend->Start(); !st.ok()) {
      std::fprintf(stderr, "frontend: %s\n", st.ToString().c_str());
      return -1;
    }
    mcm::service::Frontend* fe = sys->frontend.get();
    sys->loop = std::thread([fe] { fe->Run(); });
    for (size_t c = 0; c < kConnections; ++c) {
      mcm::Result<mcm::util::Socket> sock =
          mcm::util::Socket::Connect("127.0.0.1", fe->port(), 5000);
      if (!sock.ok()) return -1;
      sys->conns.push_back(std::move(*sock));
    }
    double seconds = static_cast<double>(ProcessCpuNs() - cpu0) * 1e-9;
    sys_ = std::move(sys);
    return seconds;
  }

  size_t NextPerson() {
    return rank_to_person_[zipf_.Draw(draws_.NextDouble())];
  }

  /// Closed loop for a warm-up plus `seconds`; every answer is checked,
  /// the ones sent inside the window are measured.
  Phase Loop(double seconds) {
    Phase phase;
    phase.window_s = seconds;
    const int64_t start = NowNs();
    const int64_t window_lo =
        start + static_cast<int64_t>(kWarmupSeconds * 1e9);
    const int64_t window_hi = window_lo + static_cast<int64_t>(seconds * 1e9);
    phase.origin_ns = window_lo;
    std::vector<std::deque<InFlight>> inflight(kConnections);
    std::vector<std::string> buffers(kConnections);

    auto send = [&](size_t c) {
      InFlight f{NowNs(), NextPerson(), next_seq_++};
      if (!sys_->conns[c].WriteAll(lines_[f.person], 5000).ok()) {
        broken_ = true;
        return;
      }
      inflight[c].push_back(f);
    };
    for (size_t c = 0; c < kConnections; ++c) {
      for (size_t d = 0; d < kDepth; ++d) send(c);
    }

    // CPU marks at window boundaries: (answers so far, process CPU, this
    // thread's CPU), taken at the first completion past each boundary.
    struct Mark {
      size_t answers;
      int64_t process_ns, thread_ns;
    };
    std::vector<Mark> marks;
    const int64_t width = static_cast<int64_t>(kWindowSeconds * 1e9);
    int64_t next_mark = window_lo;
    size_t answers = 0;

    std::vector<pollfd> fds(kConnections);
    size_t open = kConnections * kDepth;
    while (open > 0 && !broken_) {
      for (size_t c = 0; c < kConnections; ++c) {
        fds[c] = {sys_->conns[c].fd(), POLLIN, 0};
      }
      if (::poll(fds.data(), fds.size(), 10'000) <= 0) {
        std::fprintf(stderr, "edge-small: no response within 10 s\n");
        broken_ = true;
        break;
      }
      for (size_t c = 0; c < kConnections; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        mcm::Result<mcm::util::Socket::ReadChunk> chunk =
            sys_->conns[c].TryRead(16 * 1024);
        if (!chunk.ok() || chunk->eof) {
          broken_ = true;
          break;
        }
        buffers[c] += chunk->data;
        size_t nl;
        while ((nl = buffers[c].find('\n')) != std::string::npos) {
          std::string line = buffers[c].substr(0, nl);
          buffers[c].erase(0, nl + 1);
          if (inflight[c].empty()) {
            broken_ = true;
            break;
          }
          InFlight f = inflight[c].front();
          inflight[c].pop_front();
          --open;
          int64_t now = NowNs();
          bool measured = f.sent_ns >= window_lo && f.sent_ns < window_hi;
          if (Complete(f, line, now, measured, &phase)) ++answers;
          if (now >= next_mark && next_mark <= window_hi) {
            marks.push_back({answers, ProcessCpuNs(), ThreadCpuNs()});
            next_mark += width;
          }
          if (now < window_hi) {
            send(c);
            ++open;
          }
        }
      }
    }
    for (size_t i = 1; i < marks.size(); ++i) {
      double cpu_s = static_cast<double>(
                         (marks[i].process_ns - marks[i - 1].process_ns) -
                         (marks[i].thread_ns - marks[i - 1].thread_ns)) *
                     1e-9;
      if (cpu_s > 0) {
        phase.per_cpu_s.push_back(
            static_cast<double>(marks[i].answers - marks[i - 1].answers) /
            cpu_s);
      }
    }
    return phase;
  }

  /// The serial phase: per measured request, its person, its CPU cost and
  /// its round trip, in ms.
  struct SerialPhase {
    std::vector<size_t> person;
    std::vector<double> cpu_ms, wall_ms;
  };

  /// One connection, one request in flight, for `seconds` after a short
  /// warm-up. A request's CPU cost is the process's CPU time across it less
  /// this (the generator's) thread's, so the frontend loop and the worker
  /// that served it. With nothing else in flight, that is the request's own
  /// work. Every thread runs on one CPU at a time: a request's hand-offs are
  /// then switches on a busy CPU, not wake-ups of idle virtual CPUs whose
  /// caches a shared host may have given to other guests in between, which
  /// made the same request's CPU time vary from run to run. The CPU changes
  /// every kSerialHopSeconds (see CpuRotation).
  SerialPhase Serial(double seconds) {
    CpuRotation rotation(/*every_thread=*/true);
    SerialPhase out;
    mcm::util::Socket& conn = sys_->conns[0];
    std::string buffer;
    const int64_t hop_ns = static_cast<int64_t>(kSerialHopSeconds * 1e9);
    int64_t end = 0, next_hop = 0;
    for (size_t n = 0; !broken_; ++n) {
      if (n == kSerialWarmup) {
        end = NowNs() + static_cast<int64_t>(seconds * 1e9);
      }
      if (end != 0 && NowNs() >= end) break;
      if (NowNs() >= next_hop) {
        rotation.Next();
        next_hop = NowNs() + hop_ns;
      }
      InFlight f{0, NextPerson(), next_seq_++};
      const int64_t process0 = ProcessCpuNs(), thread0 = ThreadCpuNs();
      f.sent_ns = NowNs();
      if (!conn.WriteAll(lines_[f.person], 5000).ok()) {
        broken_ = true;
        break;
      }
      size_t nl;
      while ((nl = buffer.find('\n')) == std::string::npos) {
        pollfd fd{conn.fd(), POLLIN, 0};
        if (::poll(&fd, 1, 10'000) <= 0) {
          std::fprintf(stderr, "edge-small: no response within 10 s\n");
          broken_ = true;
          return out;
        }
        mcm::Result<mcm::util::Socket::ReadChunk> chunk =
            conn.TryRead(16 * 1024);
        if (!chunk.ok() || chunk->eof) {
          broken_ = true;
          return out;
        }
        buffer += chunk->data;
      }
      const int64_t now = NowNs();
      const int64_t process1 = ProcessCpuNs(), thread1 = ThreadCpuNs();
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      double run_ms = 0, queue_ms = 0;
      if (!Check(f, line, &run_ms, &queue_ms) || end == 0) continue;
      out.person.push_back(f.person);
      out.cpu_ms.push_back(
          static_cast<double>((process1 - process0) - (thread1 - thread0)) *
          1e-6);
      out.wall_ms.push_back(static_cast<double>(now - f.sent_ns) * 1e-6);
    }
    return out;
  }

  /// Counts one attempt and checks its response line against the oracle;
  /// true when the answer is correct.
  bool Check(const InFlight& f, const std::string& line, double* run_ms,
             double* queue_ms) {
    ++sheet_->attempted;
    unsigned long long tag = 0, epoch = 0;
    size_t tuples = 0;
    int fields = std::sscanf(line.c_str(),
                             "[%llu] ok: %zu tuples @epoch %llu in %lfms "
                             "(queue %lfms",
                             &tag, &tuples, &epoch, run_ms, queue_ms);
    if (fields != 5) {
      ++sheet_->failed;
      if (failures_logged_++ < 5) {
        std::fprintf(stderr, "edge-small: %s\n", line.c_str());
      }
      return false;
    }
    if (tuples != expected_[f.person]) {
      ++sheet_->failed;
      ++sheet_->wrong;
      std::fprintf(stderr, "edge-small: wrong count %zu for person %lld "
                           "(expected %zu)\n",
                   tuples, static_cast<long long>(sys_->persons[f.person]),
                   expected_[f.person]);
      return false;
    }
    return true;
  }

  /// Checks a closed-loop response and records it when `measured`; true
  /// when the answer is correct.
  bool Complete(const InFlight& f, const std::string& line, int64_t now,
                bool measured, Phase* phase) {
    double run_ms = 0, queue_ms = 0;
    if (!Check(f, line, &run_ms, &queue_ms)) return false;
    if (!measured) return true;
    double ms = static_cast<double>(now - f.sent_ns) * 1e-6;
    phase->latency_ms.push_back({f.sent_ns, ms});
    phase->queue_ms.push_back(queue_ms);
    phase->run_ms.push_back(run_ms);
    phase->edge_ms.push_back(ms - run_ms - queue_ms);
    Tracer::Record("client.request", f.sent_ns, now, 0, f.seq);
    return true;
  }

  void EndToEnd(const Phase& phase, const SerialPhase& serial) {
    Windowed w = SummarizeWindows(phase.latency_ms, phase.origin_ns,
                                  phase.window_s, kWindowSeconds);
    const Summary& lat = w.summary;
    double qps = w.per_s;
    // The gated figures charge each serial request the lowest CPU cost seen
    // for its person. Every request for a person does the same work, so a
    // dearer one measures what else shared the cores and their caches at the
    // time, not the program.
    std::map<size_t, double> best;
    for (size_t i = 0; i < serial.person.size(); ++i) {
      auto [it, fresh] = best.emplace(serial.person[i], serial.cpu_ms[i]);
      if (!fresh) it->second = std::min(it->second, serial.cpu_ms[i]);
    }
    std::vector<double> charged;
    double charged_ms = 0;
    for (size_t p : serial.person) {
      charged.push_back(best.at(p));
      charged_ms += charged.back();
    }
    const size_t n = charged.size();
    double per_cpu_s = static_cast<double>(n) / (charged_ms * 1e-3);
    double cpu_p50 = Median(std::move(charged));
    sheet_->e2e["answers_per_cpu_s"] = {per_cpu_s, "1/s"};
    sheet_->e2e["query_cpu_p50_ms"] = {cpu_p50, "ms"};
    const std::string over =
        "serving threads' CPU, one request in flight; each of " +
        std::to_string(n) + " requests charged its person's cheapest (" +
        std::to_string(best.size()) + " persons)";
    sheet_->Detail("answers_per_cpu_s", per_cpu_s, "1/s", over);
    sheet_->Detail("query_cpu_p50_ms", cpu_p50, "ms", over);
    sheet_->Detail("serial_cpu_p50_ms", Median(serial.cpu_ms), "ms",
                   "serving threads' CPU per request as measured");
    sheet_->Detail("serial_p50_ms", Median(serial.wall_ms), "ms",
                   "wall clock, send to answer, one in flight");
    const std::string loop = "closed loop, " + std::to_string(kConnections) +
                             " connections x depth " +
                             std::to_string(kDepth);
    sheet_->Detail("loop_answers_per_cpu_s", Median(phase.per_cpu_s), "1/s",
                   "correct answers per CPU-second of the serving threads; " +
                       loop + "; median of " +
                       std::to_string(phase.per_cpu_s.size()) + " windows");
    sheet_->Detail("qps", qps, "1/s", "wall clock; correct answers; " + loop);
    sheet_->Detail("query_p50_ms", lat.p50, "ms",
                   "wall clock, send to answer; " +
                       WindowedNote(w, kWindowSeconds));
    sheet_->Detail("query_p90_ms", lat.p90, "ms");
    sheet_->Detail("query_p99_ms", lat.p99, "ms");
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
    layer["service.edge_ms_p50"] = {Median(traced.edge_ms), "ms"};
    mcm::service::ServiceStats after = sys_->service->stats();
    layer["service.shed"] = {
        static_cast<double>(after.rejected_overload - before.rejected_overload),
        "count"};
    layer["service.retries"] = {
        static_cast<double>(after.retries - before.retries), "count"};
    layer["service.breaker_short_circuits"] = {
        static_cast<double>(after.breaker_short_circuits -
                            before.breaker_short_circuits),
        "count"};
    layer["storage.bytes_per_tuple"] = {load_bytes_ / load_tuples_, "B"};
    layer["storage.approx_bytes_ratio"] = {approx_bytes_ / load_bytes_,
                                           "ratio"};
    auto p50 = [](const Phase& p) {
      std::vector<double> v;
      for (const Timed& t : p.latency_ms) v.push_back(t.value);
      return Median(v);
    };
    layer["trace.overhead_frac"] = {p50(traced) / p50(plain) - 1, "ratio"};

    // The first kReplay requests of a fresh draw sequence, served serially.
    mcm::Rng replay_draws(cfg_.seed * 31 + 7);
    std::vector<mcm::Value> constants;
    for (size_t i = 0; i < kReplay; ++i) {
      size_t rank = zipf_.Draw(replay_draws.NextDouble());
      constants.push_back(sys_->persons[rank_to_person_[rank]]);
    }
    SameGenOracle oracle(sys_->data.l, sys_->data.e, sys_->data.r);
    ReplayLayers(sys_->store.get(), constants,
                 [&oracle](mcm::Value c, uint64_t) {
                   return oracle.Answers(c);
                 },
                 sheet_);
  }

  const Config& cfg_;
  Sheet* sheet_;
  std::unique_ptr<System> sys_;
  Zipf zipf_;
  mcm::Rng draws_;
  std::vector<size_t> rank_to_person_;
  std::vector<size_t> expected_;
  std::vector<std::string> lines_;
  uint64_t next_seq_ = 0;
  size_t failures_logged_ = 0;
  bool broken_ = false;
  double load_bytes_ = 0, load_tuples_ = 0, approx_bytes_ = 0;
};

}  // namespace

bool RunEdgeSmall(const Config& cfg, Sheet* sheet) {
  EdgeSmall bench(cfg, sheet);
  return bench.Run();
}

}  // namespace perfbench
