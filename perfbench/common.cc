#include "common.h"

#include <dirent.h>
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <cstdint>
#include <set>

#include "util/rng.h"

// --- allocation counter ------------------------------------------------------
//
// The binary's own operator new/delete count usable bytes per thread while an
// AllocProbe is open anywhere in the process. With no probe open the cost is
// one relaxed atomic load per call. Every non-aligned form is replaced, so
// each allocation is freed by the matching replacement (the aligned forms
// stay the library's, and pair among themselves).

namespace {

std::atomic<int> g_open_probes{0};
thread_local int64_t t_net_bytes = 0;

void* CountedAlloc(std::size_t n) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr && g_open_probes.load(std::memory_order_relaxed) != 0) {
    t_net_bytes += static_cast<int64_t>(malloc_usable_size(p));
  }
  return p;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  if (g_open_probes.load(std::memory_order_relaxed) != 0) {
    t_net_bytes -= static_cast<int64_t>(malloc_usable_size(p));
  }
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace perfbench {

AllocProbe::AllocProbe() {
  g_open_probes.fetch_add(1);
  start_ = t_net_bytes;
}

AllocProbe::~AllocProbe() { g_open_probes.fetch_sub(1); }

int64_t AllocProbe::bytes() const { return t_net_bytes - start_; }

CpuRotation::CpuRotation(bool every_thread) : every_thread_(every_thread) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) Apply(saved_);
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  Apply(one);
}

void CpuRotation::Apply(const cpu_set_t& mask) {
  if (!every_thread_) {
    sched_setaffinity(0, sizeof(mask), &mask);
    return;
  }
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (dirent* entry = readdir(dir)) {
    pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid > 0) sched_setaffinity(tid, sizeof(mask), &mask);
  }
  closedir(dir);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- report ------------------------------------------------------------------

void Sheet::Detail(const std::string& name, double value,
                   const std::string& unit, const std::string& note) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  std::string text = std::string(buf) + " " + unit;
  if (!note.empty()) text += "  (" + note + ")";
  detail.emplace_back(name, text);
}

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

Summary Summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Summary s;
  s.n = values.size();
  s.p50 = Quantile(values, 0.5);
  if (s.n >= 100) s.p90 = Quantile(values, 0.9);
  if (s.n >= 1000) s.p99 = Quantile(values, 0.99);
  return s;
}

std::string SummaryNote(const Summary& s) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "p50 %.4g, p90 %.4g, p99 %.4g over %zu samples", s.p50, s.p90,
                s.p99, s.n);
  return buf;
}

Windowed SummarizeWindows(const std::vector<Timed>& samples, int64_t origin_ns,
                          double seconds, double window_s) {
  const int64_t width = static_cast<int64_t>(window_s * 1e9);
  const size_t count = static_cast<size_t>(seconds / window_s + 1e-9);
  std::vector<std::vector<double>> windows(count);
  Windowed out;
  for (const Timed& t : samples) {
    if (t.t_ns < origin_ns) continue;
    size_t w = static_cast<size_t>((t.t_ns - origin_ns) / width);
    if (w < count) {
      windows[w].push_back(t.value);
      ++out.summary.n;
    }
  }
  if (count == 0) return out;
  std::vector<double> p50, p90, p99, rate;
  for (const auto& w : windows) {
    Summary one = Summarize(w);
    p50.push_back(one.p50);
    p90.push_back(one.p90);
    p99.push_back(one.p99);
    rate.push_back(static_cast<double>(w.size()) / window_s);
  }
  out.summary.p50 = Median(p50);
  out.summary.p90 = Median(p90);
  out.summary.p99 = Median(p99);
  out.per_s = Median(rate);
  out.windows = count;
  return out;
}

std::string WindowedNote(const Windowed& w, double window_s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "medians over %zu windows of %gs: p50 %.4g, p90 %.4g, p99 "
                "%.4g; %zu samples",
                w.windows, window_s, w.summary.p50, w.summary.p90,
                w.summary.p99, w.summary.n);
  return buf;
}

// --- tracer ------------------------------------------------------------------

std::atomic<bool> Tracer::on_{false};
std::atomic<uint32_t> Tracer::next_id_{0};

namespace {

struct SpanBuffer {
  std::vector<Span> spans;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<SpanBuffer>> g_buffers;  // lives until exit
thread_local SpanBuffer* t_buffer = nullptr;

}  // namespace

void Tracer::Enable(bool on) { on_.store(on); }

uint32_t Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                        uint32_t parent, uint64_t request, uint32_t id) {
  if (!enabled()) return 0;
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<SpanBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->spans.reserve(1 << 15);
  }
  if (id == 0) id = NextId();
  t_buffer->spans.push_back(Span{name, start_ns, end_ns, id, parent, request});
  return id;
}

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> out;
  for (const auto& b : g_buffers) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

bool Tracer::WriteSpans(const std::string& path) {
  std::vector<Span> spans = Collect();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tid\tparent\trequest\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%lld\t%lld\t%u\t%u\t%llu\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.id, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

// --- inputs ------------------------------------------------------------------

std::map<mcm::Value, mcm::Value> Relabel(mcm::workload::CslData* data,
                                         uint64_t seed) {
  std::set<mcm::Value> distinct{data->source};
  for (auto* arcs : {&data->l, &data->e, &data->r}) {
    for (const auto& [a, b] : *arcs) {
      distinct.insert(a);
      distinct.insert(b);
    }
  }
  std::vector<mcm::Value> labels(2 * distinct.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<mcm::Value>(i);
  }
  mcm::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  rng.Shuffle(&labels);
  std::map<mcm::Value, mcm::Value> map;
  size_t next = 0;
  for (mcm::Value v : distinct) map[v] = labels[next++];
  for (auto* arcs : {&data->l, &data->e, &data->r}) {
    for (auto& [a, b] : *arcs) {
      a = map[a];
      b = map[b];
    }
  }
  data->source = map[data->source];
  return map;
}

mcm::workload::CslData SameGeneration(size_t people, uint64_t seed,
                                      std::vector<mcm::Value>* persons) {
  // Family structure fixed (generator seed 97, at most two parents each, as
  // in bench_serving); per-query cost across seeds then differs only by the
  // labels. Different structures vary the mean query cost by over 50%.
  mcm::workload::CslData data =
      mcm::workload::MakeSameGeneration(people, 2, 97);
  std::map<mcm::Value, mcm::Value> map = Relabel(&data, seed);
  persons->clear();
  for (size_t i = 0; i < people; ++i) {
    persons->push_back(map.at(static_cast<mcm::Value>(i)));
  }
  return data;
}

uint32_t SameGenOracle::Id(mcm::Value v) {
  auto [it, inserted] = index_.emplace(v, static_cast<uint32_t>(label_.size()));
  if (inserted) {
    label_.push_back(v);
    l_up_.emplace_back();
    e_out_.emplace_back();
    r_down_.emplace_back();
  }
  return it->second;
}

SameGenOracle::SameGenOracle(
    const std::vector<std::pair<mcm::Value, mcm::Value>>& l,
    const std::vector<std::pair<mcm::Value, mcm::Value>>& e,
    const std::vector<std::pair<mcm::Value, mcm::Value>>& r) {
  for (const auto& [x, x1] : l) {
    uint32_t a = Id(x), b = Id(x1);
    l_up_[a].push_back(b);
  }
  for (const auto& [x, y] : e) {
    uint32_t a = Id(x), b = Id(y);
    e_out_[a].push_back(b);
  }
  for (const auto& [y, y1] : r) {
    uint32_t a = Id(y), b = Id(y1);
    r_down_[b].push_back(a);
  }
}

std::vector<mcm::Value> SameGenOracle::Answers(mcm::Value a) const {
  auto it = index_.find(a);
  if (it == index_.end()) return {};
  const size_t n = label_.size();
  // e_level[k]: e-images of the nodes exactly k steps up l from a. Walking
  // k from the top down, each level's images are pushed one step down r
  // into the level below, so level 0 ends with every answer. On an acyclic
  // l the level sets empty out within n steps.
  std::vector<std::vector<uint32_t>> e_level;
  std::vector<uint32_t> frontier{it->second};
  std::vector<uint32_t> mark(n, UINT32_MAX);
  for (uint32_t k = 0; !frontier.empty() && k <= n; ++k) {
    std::vector<uint32_t> images, next;
    for (uint32_t x : frontier) {
      for (uint32_t y : e_out_[x]) images.push_back(y);
      for (uint32_t x1 : l_up_[x]) {
        if (mark[x1] != k + 1) {
          mark[x1] = k + 1;
          next.push_back(x1);
        }
      }
    }
    e_level.push_back(std::move(images));
    frontier = std::move(next);
  }
  std::vector<uint32_t> carry;
  for (size_t k = e_level.size(); k-- > 0;) {
    std::vector<uint32_t> level = std::move(e_level[k]);
    for (uint32_t y1 : carry) {
      for (uint32_t y : r_down_[y1]) level.push_back(y);
    }
    std::sort(level.begin(), level.end());
    level.erase(std::unique(level.begin(), level.end()), level.end());
    carry = std::move(level);
  }
  std::vector<mcm::Value> out;
  out.reserve(carry.size());
  for (uint32_t y : carry) out.push_back(label_[y]);
  std::sort(out.begin(), out.end());
  return out;
}

Zipf::Zipf(size_t n) : cdf_(n) {
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Draw(double u) const {
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

}  // namespace perfbench
