// The traced replay of one scan: the pipeline of CheckerEngine::Scan
// (src/checkers/engine.cc, with the per-file bodies of scan_stages.cc)
// re-driven through each layer's public entry points in pipeline order,
// every call wrapped in a Span. It omits only what a benchmark input never
// triggers: fault injection, deadlines, governor caps, the circuit breaker
// and streaming. Whether it still computes what the engine computes is
// checked, not assumed: main.cc compares its report set with
// CheckerEngine::Scan on the same tree.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <memory>
#include <vector>

#include "perfbench/spans.h"
#include "src/cache/store.h"
#include "src/checkers/engine.h"

namespace perfbench {

struct ReplayResult {
  std::vector<refscan::BugReport> reports;
  size_t functions = 0;           // functions checked or spliced (ScanStats::functions)
  size_t functions_degraded = 0;  // quarantined bodies (ScanStats::functions_degraded)
};

// An ObjectStore decorator that times Get as the "cache.get" span and
// counts the bytes moved in both directions. Wrapped around the scan's real
// store, it splits ScanCache::Load* into fetch and validate+decode.
class TimedStore : public refscan::ObjectStore {
 public:
  TimedStore(std::shared_ptr<refscan::ObjectStore> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool Get(const std::string& name, std::string& blob) override;
  void Put(const std::string& name, std::string_view blob, std::string_view kind_name,
           std::string_view source) override;
  std::vector<refscan::CacheIndexEntry> Index() const override { return inner_->Index(); }

 private:
  std::shared_ptr<refscan::ObjectStore> inner_;
  Tracer& tracer_;
};

// Replays one scan of `tree` under `options` (jobs must be 1; the cache
// location comes from `store`, null = no cache), recording spans and
// per-layer counts into `tracer`.
ReplayResult ReplayScan(const refscan::SourceTree& tree, const refscan::ScanOptions& options,
                        std::shared_ptr<refscan::ObjectStore> store, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
