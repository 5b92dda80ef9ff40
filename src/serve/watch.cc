#include "src/serve/watch.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

#include "src/cache/serial.h"
#include "src/support/fs.h"
#include "src/support/strings.h"

namespace refscan {

namespace {

// Order-sensitive digest of the tree's paths and contents, then of the load
// failures' paths and messages, both in path order: equal loads hash equal,
// and any content or membership change, or a failure that appears or
// clears, flips the value.
uint64_t TreeFingerprint(const SourceTree& tree, const std::vector<LoadFailure>& failures) {
  uint64_t h = 0;
  for (const auto& [path, file] : tree.files()) {
    h = HashMix(h, HashBytes(path));
    h = HashMix(h, HashBytes(file.text()));
  }
  h = HashMix(h, tree.size());
  for (const LoadFailure& f : failures) {
    h = HashMix(h, HashBytes(f.path));
    h = HashMix(h, HashBytes(f.what));
  }
  return h;
}

void AppendReportLine(std::string& out, char sign, const BugReport& r) {
  out += StrFormat("%c P%d %s:%u [%s] %s\n", sign, r.anti_pattern, r.file.c_str(), r.line,
                   r.function.c_str(), r.message.c_str());
}

}  // namespace

ReportDelta ComputeReportDelta(const std::vector<BugReport>& before,
                               const std::vector<BugReport>& after) {
  std::set<std::string> before_keys;
  for (const BugReport& r : before) {
    before_keys.insert(r.Key());
  }
  std::set<std::string> after_keys;
  for (const BugReport& r : after) {
    after_keys.insert(r.Key());
  }
  ReportDelta delta;
  for (const BugReport& r : after) {
    if (!before_keys.contains(r.Key())) {
      delta.fresh.push_back(r);
    }
  }
  for (const BugReport& r : before) {
    if (!after_keys.contains(r.Key())) {
      delta.fixed.push_back(r);
    }
  }
  std::sort(delta.fresh.begin(), delta.fresh.end());
  std::sort(delta.fixed.begin(), delta.fixed.end());
  return delta;
}

std::string FormatWatchDelta(uint64_t generation, const ReportDelta& delta, size_t total,
                             const std::vector<LoadFailure>& failures) {
  std::string out = StrFormat("generation %llu: %zu report(s), +%zu fresh, -%zu fixed\n",
                              static_cast<unsigned long long>(generation), total,
                              delta.fresh.size(), delta.fixed.size());
  for (const LoadFailure& f : failures) {
    out += StrFormat("! %s: %s\n", f.path.c_str(), f.what.c_str());
  }
  for (const BugReport& r : delta.fresh) {
    AppendReportLine(out, '+', r);
  }
  for (const BugReport& r : delta.fixed) {
    AppendReportLine(out, '-', r);
  }
  return out;
}

uint64_t RunWatchLoop(const WatchConfig& watch, ScanOptions options,
                      std::shared_ptr<ObjectStore> store, const std::atomic<bool>& stop,
                      std::FILE* out) {
  options.object_store = std::move(store);
  options.cache_dir.clear();
  uint64_t generation = 0;
  uint64_t last_fp = 0;
  std::vector<BugReport> last_reports;
  const uint32_t poll_ms = std::max<uint32_t>(watch.poll_ms, 10);
  while (!stop.load(std::memory_order_relaxed)) {
    LoadOptions load_options;
    load_options.jobs = options.jobs;
    std::vector<LoadFailure> failures;
    const SourceTree tree = LoadSourceTreeFromDisk(watch.tree_dir, load_options, &failures);
    std::sort(failures.begin(), failures.end(),
              [](const LoadFailure& a, const LoadFailure& b) { return a.path < b.path; });
    const uint64_t fp = TreeFingerprint(tree, failures);
    if (generation == 0 || fp != last_fp) {
      last_fp = fp;
      CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
      ScanResult result = engine.Scan(tree);
      const ReportDelta delta = ComputeReportDelta(last_reports, result.reports);
      ++generation;
      std::fputs(FormatWatchDelta(generation, delta, result.reports.size(), failures).c_str(),
                 out);
      std::fflush(out);
      last_reports = std::move(result.reports);
    }
    // Sleep in short slices so a stop request is honored promptly.
    for (uint32_t slept = 0; slept < poll_ms && !stop.load(std::memory_order_relaxed);
         slept += 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return generation;
}

}  // namespace refscan
