// Span recorder for the benchmark's traced run.
//
// The benchmark times each layer from the outside: every call into a
// layer's public entry point is wrapped in a Span here, in the benchmark's
// own code, and nothing is recorded inside src/. A span's self time (its
// duration minus the time covered by its child spans) is added to a
// per-name total as the span closes, so per-layer self time needs no
// post-processing and no stored events. Events are also kept, up to a cap,
// for the Chrome trace file written at the end of the run.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

class Tracer {
 public:
  // Spans of one op share this id in the trace file.
  void set_op(uint32_t op) { op_ = op; }

  void Begin(const char* name);
  void End();

  // Adds `value` to a per-op counter (a count of work done in a layer).
  void Count(const std::string& name, double value) { counts_[name] += value; }

  // Self time in ms per span name, summed over the whole run.
  std::map<std::string, double> SelfMs() const;
  const std::map<std::string, double>& counts() const { return counts_; }

  // Writes the kept events as a Chrome trace (chrome://tracing, Perfetto).
  // Returns false if the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    int64_t start_ns;
    int64_t child_ns;
    int32_t event;  // index into events_, -1 when over the cap
  };
  struct Event {
    const char* name;
    int64_t start_ns;
    int64_t dur_ns;
    uint32_t op;
    int32_t parent;  // index into events_, -1 for a root span
  };

  static constexpr size_t kMaxEvents = 100000;  // kept for the trace file

  uint32_t op_ = 0;
  std::vector<Open> stack_;
  std::vector<Event> events_;
  size_t dropped_ = 0;
  std::map<const char*, int64_t> self_ns_;  // keyed by literal address
  std::map<std::string, double> counts_;
};

// RAII span; a null tracer makes it a no-op, so untraced code paths can
// share the traced ones without cost beyond a branch. `name` must be a
// string literal (the tracer keys on its address).
class Span {
 public:
  Span(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(name);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
