// Scan observability: tracing spans + metrics registry (DESIGN.md §5.10).
//
// A degraded or slow scan must be diagnosable from its artifacts alone —
// "where did the time go, which stage regressed, which files were dropped"
// — without attaching a debugger. Two cooperating pieces:
//
//   * Spans. `TelemetrySpan` is an RAII scoped timer: sites in the pipeline
//     (per stage and per file) open one, and on close the event lands in a
//     per-thread buffer owned by the armed `Telemetry` session. Buffers are
//     appended to only by their owning thread (no locks, no sharing on the
//     hot path); the session collects them at export time. The export is
//     Chrome trace-event JSON (`chrome://tracing` / Perfetto "X" events),
//     with events sorted by (name, arg, start), so the *content* — event
//     names, args, counts — is deterministic for a given input at every
//     `--jobs` value, while timestamps/durations are the measured walltimes.
//     Every span also records its duration into a `span.<name>` latency
//     histogram in the session's metrics registry.
//
//   * Metrics. `MetricsRegistry` holds named counters (monotonic u64),
//     gauges (last/max i64) and log-scale latency histograms, exposed in
//     Prometheus text exposition format (`--metrics-out`, sorted by name).
//     The scan spine counts its `ScanStats` in place and, at the end of a
//     scan, adds each field to the armed session's `scan.*` counters, so
//     `--metrics-out` sees both the engine's counters and the support-layer
//     ones (pool, governor, faults).
//
// Determinism contract (asserted by tests/telemetry_test.cc and CI):
// counters and gauges are deterministic for a given input — identical at
// every `--jobs` value and across runs — EXCEPT those under `sched.`
// (the thread team's busy time) and any metric fed by a wall-clock
// governor (`governor.deadline_trips`). Histograms
// (`span.*` latencies) are measured time and never deterministic. Exported
// metric names mangle to `refscan_<name>` with non-alphanumerics as '_';
// histograms append `_seconds`. A comparison tool therefore keeps
// `refscan_*` lines and drops `refscan_sched_*`, `refscan_governor_*` and
// `*_seconds*` lines.
//
// Arming follows the faultinject registry pattern: `ScopedTelemetry`
// installs a session process-wide and restores the previous one on
// destruction; when disarmed, a span site costs one relaxed atomic load and
// one branch, and no clock is ever read. Disarm must not race with in-flight
// spans (the CLI arms around the whole run; library callers arm around
// Scan), same contract as fault arming.

#ifndef REFSCAN_SUPPORT_TELEMETRY_H_
#define REFSCAN_SUPPORT_TELEMETRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace refscan {

// ---------------------------------------------------------------- metrics

// Monotonically increasing counter. Thread-safe; relaxed atomics (counts
// are read only after the batch they instrument has completed).
class MetricCounter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-written value.
class MetricGauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Latency histogram over nanoseconds: log-2 buckets from 1µs (2^10 ns) up,
// plus an overflow bucket. Exposed in Prometheus exposition as seconds.
class MetricHistogram {
 public:
  static constexpr size_t kBuckets = 24;  // 2^10 ns (1µs) .. 2^33 ns (~8.6s), then +Inf

  void Record(uint64_t ns);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_ns() const { return sum_ns_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const { return buckets_[i].load(std::memory_order_relaxed); }
  // Upper bound of bucket `i` in nanoseconds (the last bucket is +Inf).
  static uint64_t BucketBoundNs(size_t i) { return uint64_t{1} << (10 + i); }

 private:
  std::atomic<uint64_t> buckets_[kBuckets + 1] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
};

// Named metrics, get-or-create. Creation takes a mutex; the returned
// references stay valid for the registry's lifetime (node-based storage),
// so hot sites resolve a handle once and then pay only the atomic ops.
class MetricsRegistry {
 public:
  MetricCounter& Counter(std::string_view name);
  MetricGauge& Gauge(std::string_view name);
  MetricHistogram& Histogram(std::string_view name);

  // 0 / absent-safe readers (for tests and the daemons' status lines).
  uint64_t CounterValue(std::string_view name) const;
  int64_t GaugeValue(std::string_view name) const;

  // Prometheus text exposition format, metrics sorted by name: counters as
  // `refscan_<name>`, gauges likewise, histograms as
  // `refscan_<name>_seconds{_bucket,_sum,_count}`. Deterministic field
  // order; see the header comment for which *values* are deterministic.
  std::string ToPrometheusText() const;

  // Sorted snapshots (for tests).
  std::vector<std::pair<std::string, uint64_t>> CounterSnapshot() const;
  std::vector<std::pair<std::string, int64_t>> GaugeSnapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<MetricCounter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<MetricGauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<MetricHistogram>, std::less<>> histograms_;
};

// ---------------------------------------------------------------- tracing

// One completed span. `name` must have static storage duration (span sites
// pass string literals); `arg` is the per-event subject (file path), empty
// for stage-level spans. Times are nanoseconds relative to the session
// epoch.
struct TraceEvent {
  const char* name = "";
  std::string arg;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t tid = 0;
};

// One scan/run's telemetry: trace buffers + metrics registry. Create one,
// arm it with ScopedTelemetry, run, then export. Not reusable concurrently
// by two arms, but sequential scans may share one session (counters and
// events accumulate).
class Telemetry {
 public:
  Telemetry();

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // Appends a completed span to the calling thread's buffer (lock-free
  // after the thread's first event) and records its latency histogram.
  void RecordSpan(const char* name, std::string_view arg, uint64_t start_ns, uint64_t dur_ns);

  uint64_t NowNs() const;  // nanoseconds since the session epoch

  // All events so far, sorted by (name, arg, start, dur) — the canonical
  // deterministic-content order. Safe to call only while no span is open.
  std::vector<TraceEvent> SortedEvents() const;
  size_t event_count() const;

  // Chrome trace-event JSON ("X" complete events, ts/dur in microseconds):
  // loadable by chrome://tracing and Perfetto. Event order is SortedEvents
  // order, so names/args/counts are byte-identical across runs up to the
  // measured ts/dur/tid fields.
  std::string TraceToChromeJson() const;

  // Convenience: metrics().ToPrometheusText().
  std::string MetricsToPrometheusText() const { return metrics_.ToPrometheusText(); }

 private:
  struct ThreadBuffer {
    uint32_t tid = 0;
    std::vector<TraceEvent> events;
  };

  ThreadBuffer& BufferForThisThread();

  const uint64_t generation_;  // process-unique, keys the thread-local cache
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex buffers_mutex_;
  std::deque<ThreadBuffer> buffers_;  // deque: stable addresses for the caches
  MetricsRegistry metrics_;
};

namespace telemetry_detail {
extern std::atomic<Telemetry*> g_session;
}  // namespace telemetry_detail

// The armed session, or nullptr. One relaxed load — this is the whole
// disarmed cost of every instrumentation site.
inline Telemetry* CurrentTelemetry() {
  return telemetry_detail::g_session.load(std::memory_order_relaxed);
}

// RAII process-wide arming; restores the previously-armed session (or the
// disarmed state) on destruction.
class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(Telemetry& session);
  ~ScopedTelemetry();

  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  Telemetry* previous_;
};

// RAII scoped timer. Disarmed: one load + branch, no clock read, no copy.
class TelemetrySpan {
 public:
  explicit TelemetrySpan(const char* name, std::string_view arg = {})
      : session_(CurrentTelemetry()) {
    if (session_ != nullptr) {
      name_ = name;
      arg_ = arg;
      start_ns_ = session_->NowNs();
    }
  }
  ~TelemetrySpan() {
    if (session_ != nullptr) {
      session_->RecordSpan(name_, arg_, start_ns_, session_->NowNs() - start_ns_);
    }
  }

  TelemetrySpan(const TelemetrySpan&) = delete;
  TelemetrySpan& operator=(const TelemetrySpan&) = delete;

 private:
  Telemetry* session_;
  const char* name_ = "";
  std::string_view arg_;
  uint64_t start_ns_ = 0;
};

// Counter helper for sites that fire rarely enough that a name lookup per
// hit is fine (fault fires, governor trips). Hot sites resolve a handle
// once instead.
inline void TelemetryCount(std::string_view name, uint64_t n = 1) {
  if (Telemetry* t = CurrentTelemetry()) {
    t->metrics().Counter(name).Add(n);
  }
}

// Mangles an internal metric name to its Prometheus exposition name:
// `refscan_` prefix, non-[a-zA-Z0-9_] characters become '_'.
std::string PrometheusMetricName(std::string_view name);

}  // namespace refscan

#endif  // REFSCAN_SUPPORT_TELEMETRY_H_
