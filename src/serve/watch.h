// Watch mode for the resident service: `refscan serve SOCKET --watch TREE`.
//
// A polling rescan loop over one on-disk tree, sharing the server's
// resident MemoryStore — so each generation's rescan is an incremental
// warm scan (unchanged files replay cached facts and report shards), and
// what gets printed is the *delta*: reports that appeared since the last
// generation and reports that disappeared. BugReport::Key() — the report
// dedup/ordering key — is the delta identity, so a report counts as "the
// same" across generations exactly when the dedup pass would have merged
// them within one scan.

#ifndef REFSCAN_SERVE_WATCH_H_
#define REFSCAN_SERVE_WATCH_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/checkers/engine.h"
#include "src/support/fs.h"

namespace refscan {

class ObjectStore;

// Reports that appeared / disappeared between two scans, each sorted by
// report order (Key()).
struct ReportDelta {
  std::vector<BugReport> fresh;
  std::vector<BugReport> fixed;
};

ReportDelta ComputeReportDelta(const std::vector<BugReport>& before,
                               const std::vector<BugReport>& after);

// One generation's delta block, deterministic: the header, one `!` line
// per file the loader could not read (LoadSourceTreeFromDisk's failures;
// the watch loop passes them in path order), then the fresh and the fixed
// reports:
//   generation 3: 12 report(s), +2 fresh, -1 fixed
//   ! drivers/gen/big.c: size 4900000 exceeds the loader's 4194304-byte cap
//   + P4 drivers/net/foo.c:120 [bar_get] message
//   - P1 drivers/net/foo.c:88 [baz_probe] message
std::string FormatWatchDelta(uint64_t generation, const ReportDelta& delta, size_t total,
                             const std::vector<LoadFailure>& failures);

struct WatchConfig {
  std::string tree_dir;
  uint32_t poll_ms = 500;
};

// Polls `tree_dir` until `stop` flips: reload, fingerprint, and — on any
// content change, any load failure that appears or clears, and on the first
// pass — rescan against `store` and print the delta to `out`. Returns the
// number of generations scanned.
uint64_t RunWatchLoop(const WatchConfig& watch, ScanOptions options,
                      std::shared_ptr<ObjectStore> store, const std::atomic<bool>& stop,
                      std::FILE* out);

}  // namespace refscan

#endif  // REFSCAN_SERVE_WATCH_H_
