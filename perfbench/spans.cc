#include "perfbench/spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Begin(const char* name) {
  Open open{name, NowNs(), 0, -1};
  if (events_.size() < kMaxEvents) {
    open.event = static_cast<int32_t>(events_.size());
    const int32_t parent = stack_.empty() ? -1 : stack_.back().event;
    events_.push_back(Event{name, open.start_ns, 0, op_, parent});
  } else {
    ++dropped_;
  }
  stack_.push_back(open);
}

void Tracer::End() {
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t dur = NowNs() - open.start_ns;
  self_ns_[open.name] += dur - open.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  if (open.event >= 0) {
    events_[static_cast<size_t>(open.event)].dur_ns = dur;
  }
}

std::map<std::string, double> Tracer::SelfMs() const {
  std::map<std::string, double> out;
  for (const auto& [name, ns] : self_ns_) {
    out[name] += static_cast<double>(ns) / 1e6;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const int64_t origin = events_.empty() ? 0 : events_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_events\": %zu},\n",
               dropped_);
  std::fprintf(f, "\"traceEvents\": [\n");
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %u, \"id\": %zu, "
                 "\"parent\": %d}}",
                 i == 0 ? "" : ",\n", e.name, static_cast<double>(e.start_ns - origin) / 1e3,
                 static_cast<double>(e.dur_ns) / 1e3, e.op, i, e.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
