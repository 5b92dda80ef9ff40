#include "src/support/telemetry.h"

#include <algorithm>
#include <tuple>

#include "src/support/strings.h"

namespace refscan {

namespace telemetry_detail {
std::atomic<Telemetry*> g_session{nullptr};
}  // namespace telemetry_detail

// ---------------------------------------------------------------- metrics

void MetricHistogram::Record(uint64_t ns) {
  size_t i = 0;
  while (i < kBuckets && ns > BucketBoundNs(i)) {
    ++i;
  }
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
}

MetricCounter& MetricsRegistry::Counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<MetricCounter>()).first;
  }
  return *it->second;
}

MetricGauge& MetricsRegistry::Gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<MetricGauge>()).first;
  }
  return *it->second;
}

MetricHistogram& MetricsRegistry::Histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<MetricHistogram>()).first;
  }
  return *it->second;
}

uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

int64_t MetricsRegistry::GaugeValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value();
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  // Snapshot `other` under its own lock, then fold into this one. Two locks
  // are never held at once, so merge directions cannot deadlock.
  const auto counters = other.CounterSnapshot();
  const auto gauges = other.GaugeSnapshot();
  struct HistSnapshot {
    std::string name;
    uint64_t buckets[MetricHistogram::kBuckets + 1];
    uint64_t count;
    uint64_t sum_ns;
  };
  std::vector<HistSnapshot> hists;
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    for (const auto& [name, h] : other.histograms_) {
      HistSnapshot s;
      s.name = name;
      for (size_t i = 0; i <= MetricHistogram::kBuckets; ++i) {
        s.buckets[i] = h->bucket(i);
      }
      s.count = h->count();
      s.sum_ns = h->sum_ns();
      hists.push_back(std::move(s));
    }
  }
  for (const auto& [name, value] : counters) {
    Counter(name).Add(value);
  }
  for (const auto& [name, value] : gauges) {
    Gauge(name).Max(value);
  }
  for (const HistSnapshot& s : hists) {
    MetricHistogram& h = Histogram(s.name);
    for (size_t i = 0; i <= MetricHistogram::kBuckets; ++i) {
      h.buckets_[i].fetch_add(s.buckets[i], std::memory_order_relaxed);
    }
    h.count_.fetch_add(s.count, std::memory_order_relaxed);
    h.sum_ns_.fetch_add(s.sum_ns, std::memory_order_relaxed);
  }
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.emplace_back(name, c->value());
  }
  return out;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::GaugeSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    out.emplace_back(name, g->value());
  }
  return out;
}

std::string PrometheusMetricName(std::string_view name) {
  std::string out = "refscan_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::string out;
  for (const auto& [name, value] : CounterSnapshot()) {
    const std::string pname = PrometheusMetricName(name);
    out += StrFormat("# TYPE %s counter\n%s %llu\n", pname.c_str(), pname.c_str(),
                     static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : GaugeSnapshot()) {
    const std::string pname = PrometheusMetricName(name);
    out += StrFormat("# TYPE %s gauge\n%s %lld\n", pname.c_str(), pname.c_str(),
                     static_cast<long long>(value));
  }
  // Histograms snapshot under the lock, format outside it.
  struct HistLine {
    std::string name;
    uint64_t buckets[MetricHistogram::kBuckets + 1];
    uint64_t count;
    uint64_t sum_ns;
  };
  std::vector<HistLine> hists;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, h] : histograms_) {
      HistLine line;
      line.name = name;
      for (size_t i = 0; i <= MetricHistogram::kBuckets; ++i) {
        line.buckets[i] = h->bucket(i);
      }
      line.count = h->count();
      line.sum_ns = h->sum_ns();
      hists.push_back(std::move(line));
    }
  }
  for (const HistLine& h : hists) {
    const std::string pname = PrometheusMetricName(h.name) + "_seconds";
    out += StrFormat("# TYPE %s histogram\n", pname.c_str());
    uint64_t cumulative = 0;
    for (size_t i = 0; i < MetricHistogram::kBuckets; ++i) {
      cumulative += h.buckets[i];
      out += StrFormat("%s_bucket{le=\"%.9g\"} %llu\n", pname.c_str(),
                       static_cast<double>(MetricHistogram::BucketBoundNs(i)) * 1e-9,
                       static_cast<unsigned long long>(cumulative));
    }
    cumulative += h.buckets[MetricHistogram::kBuckets];
    out += StrFormat("%s_bucket{le=\"+Inf\"} %llu\n", pname.c_str(),
                     static_cast<unsigned long long>(cumulative));
    out += StrFormat("%s_sum %.9g\n", pname.c_str(), static_cast<double>(h.sum_ns) * 1e-9);
    out += StrFormat("%s_count %llu\n", pname.c_str(),
                     static_cast<unsigned long long>(h.count));
  }
  return out;
}

// ---------------------------------------------------------------- tracing

namespace {

uint64_t NextSessionGeneration() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Per-thread buffer cache, keyed by the session generation so a new session
// (even one reusing a freed session's address) never sees a stale pointer.
struct ThreadBufferCache {
  uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadBufferCache t_buffer_cache;

}  // namespace

Telemetry::Telemetry()
    : generation_(NextSessionGeneration()), epoch_(std::chrono::steady_clock::now()) {}

uint64_t Telemetry::NowNs() const {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - epoch_)
                                   .count());
}

Telemetry::ThreadBuffer& Telemetry::BufferForThisThread() {
  if (t_buffer_cache.generation != generation_) {
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    buffers_.emplace_back();
    buffers_.back().tid = static_cast<uint32_t>(buffers_.size());
    t_buffer_cache = {generation_, &buffers_.back()};
  }
  return *static_cast<ThreadBuffer*>(t_buffer_cache.buffer);
}

void Telemetry::RecordSpan(const char* name, std::string_view arg, uint64_t start_ns,
                           uint64_t dur_ns) {
  ThreadBuffer& buffer = BufferForThisThread();
  TraceEvent event;
  event.name = name;
  event.arg = std::string(arg);
  event.start_ns = start_ns;
  event.dur_ns = dur_ns;
  event.tid = buffer.tid;
  buffer.events.push_back(std::move(event));
  metrics_.Histogram(std::string("span.") + name).Record(dur_ns);
}

std::vector<TraceEvent> Telemetry::SortedEvents() const {
  std::vector<TraceEvent> all;
  {
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    for (const ThreadBuffer& buffer : buffers_) {
      all.insert(all.end(), buffer.events.begin(), buffer.events.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const TraceEvent& a, const TraceEvent& b) {
    const int name_cmp = std::string_view(a.name).compare(b.name);
    if (name_cmp != 0) {
      return name_cmp < 0;
    }
    return std::tie(a.arg, a.start_ns, a.dur_ns) < std::tie(b.arg, b.start_ns, b.dur_ns);
  });
  return all;
}

size_t Telemetry::event_count() const {
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  size_t n = 0;
  for (const ThreadBuffer& buffer : buffers_) {
    n += buffer.events.size();
  }
  return n;
}

std::string Telemetry::TraceToChromeJson() const {
  const std::vector<TraceEvent> events = SortedEvents();
  std::string out = "{\"traceEvents\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"name\": ";
    AppendJsonString(out, e.name);
    out += ", \"cat\": \"refscan\", \"ph\": \"X\", \"pid\": 1";
    out += StrFormat(", \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f", e.tid,
                     static_cast<double>(e.start_ns) / 1000.0,
                     static_cast<double>(e.dur_ns) / 1000.0);
    if (!e.arg.empty()) {
      out += ", \"args\": {\"file\": ";
      AppendJsonString(out, e.arg);
      out += "}";
    }
    out += "}";
  }
  if (!events.empty()) {
    out += "\n";
  }
  out += "], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

// ---------------------------------------------------------------- arming

ScopedTelemetry::ScopedTelemetry(Telemetry& session)
    : previous_(telemetry_detail::g_session.exchange(&session, std::memory_order_relaxed)) {}

ScopedTelemetry::~ScopedTelemetry() {
  telemetry_detail::g_session.store(previous_, std::memory_order_relaxed);
}

}  // namespace refscan
