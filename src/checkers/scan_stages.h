// The scan spine (DESIGN.md §5.6) and the per-file stage bodies it fans
// out.
//
// Every tree-level client runs one skeleton, ScanSpine, split at the frozen
// KB. Its front half runs stage 1 in the per-file sandboxes, circuit
// breaker #1, stage 2 (dialects, discovery barrier, KB snapshot) and stage
// 2.5 (interprocedural summaries); its back half runs stage 3, breaker #2,
// the cache accounting, the file-ordered merge, dedup, the
// `refscan: ignore` filter and the stats/metrics publication. Only the
// per-file fan-out of the two halves varies: in-process it is ParallelMap
// over RunParseStage and RunCheckStage; the sharded coordinator
// (src/checkers/sharded) overrides it with its worker exchange, and the
// shard worker runs the same per-file bodies. A file's FileScanState and
// report shard cannot depend on which process computed them, because only
// one implementation exists.
//
// Each stage body runs inside the DESIGN.md §5.9 sandbox: a fresh deadline
// per attempt, one transient-I/O retry while idempotent, and exception →
// FileFailure quarantine that resets the file's partial state.

#ifndef REFSCAN_CHECKERS_SCAN_STAGES_H_
#define REFSCAN_CHECKERS_SCAN_STAGES_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/ast/parser.h"
#include "src/cache/cache.h"
#include "src/cache/serial.h"
#include "src/checkers/engine.h"
#include "src/ipa/summary.h"
#include "src/support/faultinject.h"
#include "src/support/threadpool.h"

namespace refscan {

// Everything one file accumulates on its way through the pipeline.
struct FileScanState {
  CacheKey key;
  DiscoveryFacts facts;
  std::optional<TranslationUnit> unit;
  bool parsed = false;      // ParseFile ran for this file during this scan
  bool report_hit = false;  // stage-3 shard spliced from the cache
  bool retried = false;     // a transient-I/O retry was consumed (any stage)
  std::optional<FileFailure> failure;  // set = quarantined, skip later stages
};

// Builds the object store the options ask for: the injected object_store
// when set (the resident server's shared MemoryStore), else a RemoteStore
// client when cache_server is set (takes precedence over cache_dir), a
// LocalStore for cache_dir, null (disabled cache) otherwise. A local
// directory that cannot be created degrades to null, matching ScanCache's
// historical behaviour.
std::shared_ptr<ObjectStore> MakeScanStore(const ScanOptions& options);

// ---- The scan wire (serial.h) ------------------------------------------
//
// The serve daemon's request and reply (src/serve/protocol.h) and the shard
// workers' frames (src/checkers/sharded) carry these formats between
// processes of one binary. A request is the options and every file, so the
// far side needs no filesystem access; `object_store` never travels (it is
// a live pointer into the sending process, and each side supplies its own).
// A reply is everything a ScanResult holds, so a remote scan's output is
// indistinguishable from a local one. The ScanOptions field list also feeds
// ScanOptionsFingerprint, which skips the fields marked as unable to change
// an artifact.
std::string EncodeScanRequest(const SourceTree& tree, const ScanOptions& options);
bool DecodeScanRequest(std::string_view payload, SourceTree& tree, ScanOptions& options);
std::string EncodeScanResult(const ScanResult& result);
bool DecodeScanResult(std::string_view payload, ScanResult& result);

template <typename IO, Value<FileFailure> F>
void Transfer(IO& io, F& f) {
  Transfer(io, f.path, f.stage, f.kind, f.what, f.retries);
}

// A file's bookkeeping in the shard workers' kFacts and kResults frames:
// what the coordinator's spine reads after each stage. The key and the unit
// stay in the worker; the facts and the report shard travel beside it.
template <typename IO, Value<FileScanState> S>
void Transfer(IO& io, S& st) {
  Transfer(io, st.failure, st.retried, st.parsed, st.report_hit);
}

// Derived per-scan constants shared by every file's stage bodies.
struct ScanStageContext {
  const ScanOptions* options = nullptr;
  ScanCache* cache = nullptr;
  bool use_cache = false;
  uint64_t options_fp = 0;
  bool want_facts = false;  // discovery enabled: stage 1 must yield facts
  // Whether stage 1 must materialise a TranslationUnit for every file. With
  // no cache, stage 3 consumes the units; in interprocedural mode, stage
  // 2.5 walks them. With the cache and neither, a file whose facts (and
  // later, reports) hit can go through the whole scan without ever being
  // parsed — the incremental fast path.
  bool need_units = false;
  // Streaming unit lifecycle (ScanOptions::streaming, DESIGN.md §5.15):
  // stage 1 still parses where it must (facts, cache fill) but drops the
  // unit before returning, and stage 3 re-parses just-in-time, so at most
  // `jobs` ASTs coexist. Forced off by interprocedural mode (stage 2.5
  // walks every unit at once).
  bool stream_units = false;
};
ScanStageContext MakeScanStageContext(const ScanOptions& options, ScanCache& cache);

// Stage 1 for one file: obtain its discovery facts — and unit where needed.
// Cache hits replay the stored facts/unit instead of parsing; misses parse,
// extract, and populate the cache for the next scan. A quarantined file
// comes back with `failure` set and all partial state discarded, so the KB
// replay and stage 3 see a file that simply is not there.
FileScanState RunParseStage(const SourceFile& file, const ScanStageContext& ctx);

// Stage 2, the discovery barrier: replays the live (non-quarantined) files' facts into `kb` in file
// order, two rounds, unless the cache holds a tree-level KB snapshot for
// exactly these facts, which replaces both rounds. A no-op with discovery
// off. Returns true on a snapshot hit.
//
// Every cached scan looks the snapshot up, but only a scan whose stage 1
// parsed all of its live files (cold) or none of them (an unchanged tree)
// stores one. A scan with a diff yields a facts sequence that the next diff
// changes again, so its snapshot would never be read back; a cold or
// unchanged scan's is exactly what the next unchanged rescan looks up.
bool RunDiscoverStage(const std::vector<FileScanState>& states, KnowledgeBase& kb,
                      const ScanStageContext& ctx);

// Stage 3's work on one parsed file, returning its raw report shard: the
// enabled checkers (CheckOneFile) for a scan, the template matcher for
// `match`.
using UnitCheck = std::function<CachedFileReports(const SourceFile& file, TranslationUnit unit)>;

// Runs every enabled checker over one parsed file. The functions are
// checked one at a time through one FunctionContext rebuilt in place, so
// the file's CFGs, CPGs and walks share their storage; the deadline is
// polled once per function. The KB is immutable and read concurrently.
CachedFileReports CheckOneFile(const SourceFile& file, TranslationUnit unit,
                               const KnowledgeBase& kb, const ScanOptions& options);

// Stage 3 for one file: splice the cached report shard when the KB
// fingerprint proves it valid, otherwise run `check` on the file's unit
// (re-parsed if stage 1 did not keep it), behind the `checker.run` fault
// site. A file quarantined earlier returns an empty shard untouched; a
// stage-3 quarantine sets `st.failure` and returns an empty shard.
CachedFileReports RunCheckStage(const SourceFile& file, FileScanState& st, uint64_t kb_fp,
                                const ScanStageContext& ctx, const UnitCheck& check);

// One scan of one tree: the skeleton every tree-level client runs.
// CheckerEngine::Scan and ShardedScan run both halves; `match` runs both
// with template matching as its per-unit check (CheckUnit); `deviations`,
// `summaries` and the baselines run the front half and walk its units and
// KB. Call RunFront, then RunBack while it returns true (or walk the front
// half's output instead), then Finish once.
class ScanSpine {
 public:
  // Seeds the KB with `seed` plus options.dialects and arms
  // options.fault_spec for the spine's lifetime; a malformed spec aborts
  // the scan before it starts. `keep_units`: the caller walks every unit
  // after the front half, so stage 1 keeps them resident whatever the
  // cache or streaming would allow.
  ScanSpine(const SourceTree& tree, KnowledgeBase seed, ScanOptions options,
            bool keep_units = false);
  virtual ~ScanSpine();
  ScanSpine(const ScanSpine&) = delete;
  ScanSpine& operator=(const ScanSpine&) = delete;

  // Stage 1, breaker #1, stage 2, stage 2.5. False when the scan stopped:
  // it aborted, or the fan-out lost a worker.
  bool RunFront();
  // Stage 3, breaker #2, cache accounting, merge, dedup and suppression.
  // Frees each unit as it checks it. False when the scan stopped.
  bool RunBack();
  // Collects the quarantined files, publishes the stats and the scan.*
  // metrics, and hands over the result. Call once, after whichever halves
  // ran; not after a lost worker, whose scan the caller rescues instead.
  ScanResult Finish();

  const ScanOptions& options() const { return options_; }
  const std::vector<const SourceFile*>& files() const { return files_; }
  // One per file, in file order; quarantined files carry `failure`.
  std::vector<FileScanState>& states() { return states_; }
  // Frozen after RunFront.
  const KnowledgeBase& kb() const { return kb_; }
  // Stage 2.5's output (empty without options.interprocedural). Points
  // into the units, so it lives until RunBack.
  const SummaryResult& summaries() const { return summaries_; }

 protected:
  // The per-file fan-out. The defaults are in-process: ParallelMap over
  // RunParseStage, and over RunCheckStage with CheckUnit. Each returns
  // false when it lost a worker.
  virtual bool FanOutParse(std::vector<FileScanState>& states);
  virtual bool FanOutCheck(uint64_t kb_fp, std::vector<FileScanState>& states,
                           std::vector<CachedFileReports>& shards);
  // Stage 3's check of one parsed file, inside RunCheckStage's sandbox:
  // CheckOneFile unless a client matches instead.
  virtual CachedFileReports CheckUnit(const SourceFile& file, TranslationUnit unit);
  // Cache objects that failed validation during this scan, in any process.
  virtual uint64_t CorruptLoads() const { return cache_.corrupt_loads(); }

 private:
  struct Metrics;

  ThreadPool& pool();
  // Breaker #1 and #2: sets the abort reason when more than
  // options.max_failure_ratio of the files are quarantined.
  bool BreakerTrips(const char* where);

  const SourceTree& tree_;
  ScanOptions options_;
  std::optional<ScopedFaultArm> fault_arm_;
  bool started_ = false;  // the fault spec parsed and RunFront began
  std::vector<const SourceFile*> files_;
  KnowledgeBase kb_;
  ScanCache cache_;
  ScanStageContext ctx_;
  std::optional<ThreadPool> pool_;  // built on first use: the coordinator never needs it
  std::vector<FileScanState> states_;
  SummaryResult summaries_;
  std::vector<FileFailure> tree_failures_;  // whole-tree stage failures ("<tree>")
  std::unique_ptr<Metrics> metrics_;
  ScanResult result_;
};

}  // namespace refscan

#endif  // REFSCAN_CHECKERS_SCAN_STAGES_H_
