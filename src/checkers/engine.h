// Anti-pattern checker engine (§6.1 "Bug Detection").
//
// Pipeline per scan, three stages:
//   1. parse every file of the SourceTree            (parallel over files)
//   2. KB discovery over all units (structure parser
//      + API/macro classification, two rounds)       (serial merge barrier)
//   3. per function in turn, rebuild one CFG+CPG
//      context in place and run the enabled
//      anti-pattern checkers (P1..P12)               (parallel over files)
// Stage 2 stays serial because discovery mutates the knowledge base and is
// order-sensitive (wrappers classify off APIs found in the first round);
// after it the KB is read-only and shared by every stage-3 worker. Reports
// are deduplicated one-per-site with the most specific pattern, and are
// byte-identical at every `ScanOptions::jobs` value. The skeleton itself
// is ScanSpine (src/checkers/scan_stages.h).

#ifndef REFSCAN_CHECKERS_ENGINE_H_
#define REFSCAN_CHECKERS_ENGINE_H_

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/ast/ast.h"
#include "src/cfg/cfg.h"
#include "src/checkers/analysis.h"
#include "src/checkers/report.h"
#include "src/cpg/walk.h"
#include "src/cpg/cpg.h"
#include "src/kb/kb.h"
#include "src/support/source.h"

namespace refscan {

class ObjectStore;  // src/cache/store.h

struct ScanOptions {
  // Unread: nothing enumerates CFG paths any more — the checkers, `match`
  // and the IPA summaries walk the CFG (src/cpg/walk.h) with no path
  // budget. Not on the wire or in the options fingerprint; kept only
  // because perfbench/replay.cc still assigns it, and goes with the replay.
  size_t max_paths_per_function = 512;
  // Struct-parser nesting depth (§6.1). No flag sets it; like
  // max_paths_per_function it stays an option only because
  // perfbench/replay.cc reads it, and goes with the replay.
  int nesting_threshold = 3;
  bool discover_from_source = true;
  // The paper's nine families are on by default; P10-P12 (DESIGN.md §5.12)
  // are opt-in via `--patterns`, which keeps base-corpus reports
  // byte-identical to the pre-P10 scanner unless asked for.
  std::set<int> enabled_patterns = {1, 2, 3, 4, 5, 6, 7, 8, 9};

  // Userspace dialect catalogues folded into the KB before any discovery or
  // checking (`--dialect NAME`, repeatable; see KnownDialects / DESIGN.md
  // §5.12). Unknown names are rejected by the CLI; the scan ignores them
  // (the fingerprint still records the request).
  std::vector<std::string> dialects;

  // Worker threads for the parallel scan stages (parse, context build +
  // checking). 0 = one per hardware thread; 1 = fully serial. Reports are
  // identical at every thread count (see engine.cc).
  size_t jobs = 1;

  // Persistent incremental scan cache directory (src/cache, DESIGN.md
  // §5.8); empty = no caching. On a rescan, files whose content and options
  // are unchanged replay their cached discovery facts (skipping the parse),
  // and — when the post-discovery KB fingerprint also matches — splice
  // their cached report shards (skipping CFG/CPG construction and checking
  // entirely). Reports are byte-identical to a cold scan at every `jobs`
  // value; the cache can only cost time, never change output.
  std::string cache_dir;

  // Unix-socket path of a `refscan cached` shared artifact server
  // (src/cache/store.h). When set it takes precedence over cache_dir: cache
  // gets/puts go over the socket, so N scanning processes (or machines
  // sharing the socket via a forwarder) split one warm store. Location, not
  // content — excluded from the options fingerprint, and an unreachable
  // server degrades every call to a miss.
  std::string cache_server;

  // In-process artifact store injection: when set it wins over cache_server
  // and cache_dir. The resident scan service (`refscan serve`) points every
  // request at one shared MemoryStore so KB snapshots, facts and report
  // shards stay hot across requests. Like the other cache knobs this is a
  // location, not content — excluded from the options fingerprint, and it
  // never travels on any wire (shard workers and serve requests get their
  // store from their own side of the socket).
  std::shared_ptr<ObjectStore> object_store;

  // Precision knobs (the design-choice ablation toggles these):
  // treat NULL-checked failure branches as acquisition-failed paths.
  bool prune_null_branches = true;
  // treat returns / escaping stores / ownership-sink calls as transfers.
  bool model_ownership_transfer = true;
  // stage 2.5: compute interprocedural ref-delta summaries bottom-up over
  // the call graph and fold them into the KB before checking, so the
  // checkers fire through wrapper chains (src/ipa). Off by default — the
  // intraprocedural pipeline is the paper's baseline.
  bool interprocedural = false;

  // ---- fault isolation & resource governors (DESIGN.md §5.9) ----
  // The input caps (loader size, parser nesting, error budget) are
  // constants, not options (DESIGN.md §5.15).

  // Fault-injection spec (see support/faultinject.h), armed for the
  // duration of a scan and restored afterwards; empty = whatever is armed
  // process-wide (e.g. via REFSCAN_FAULTS). A malformed spec aborts the
  // scan with a diagnostic rather than silently running un-faulted.
  std::string fault_spec;

  // Per-file wall-clock budget covering parse and context-build + checking
  // (or template matching) separately (cooperative: polled in the parser,
  // CFG, checker and matcher loops, no thread is killed). 0 = no deadline.
  // Overruns quarantine the file with FailureKind::kResourceLimit.
  uint32_t file_timeout_ms = 0;

  // Scan-wide circuit breaker: abort (ScanResult::aborted) when more than
  // this fraction of files fail. 0 = disabled (the default — a degraded
  // scan normally completes and reports the healthy remainder).
  double max_failure_ratio = 0.0;

  // Streaming unit lifecycle for multi-MLOC trees (DESIGN.md §5.15): stage
  // 1 drops each file's AST right after extracting its discovery facts, and
  // stage 3 re-parses each file just-in-time, so at most `jobs` units are
  // alive at once and peak RSS is bounded by the largest file instead of
  // the whole tree. Costs a second parse per cold file; output is
  // byte-identical, so it is excluded from the options fingerprint (cached
  // artifacts are shared with non-streaming scans). Ignored (units kept)
  // when `interprocedural` is set — stage 2.5 needs every AST at once.
  bool streaming = false;
};

// Where in the pipeline a quarantined file failed.
enum class FailureStage : uint8_t { kLoad, kParse, kCheck, kSummarize };
std::string_view FailureStageName(FailureStage stage);

// Failure taxonomy (DESIGN.md §5.9): I/O, parse, resource cap, cache,
// anything else.
enum class FailureKind : uint8_t { kIo, kParse, kResourceLimit, kCache, kInternal };
std::string_view FailureKindName(FailureKind kind);

// One quarantined file: the scan completed without it, its entry appears in
// the `## Degraded files` report section and the --json `degraded` array.
struct FileFailure {
  std::string path;
  FailureStage stage = FailureStage::kParse;
  FailureKind kind = FailureKind::kInternal;
  std::string what;
  int retries = 0;  // transient-I/O re-attempts consumed before giving up
};

// Parses a `--patterns` list ("1,4,8") into `out`. Returns false (leaving
// `out` untouched) on empty lists, non-numeric entries, or ids outside 1..12.
bool ParsePatternList(std::string_view text, std::set<int>& out);

// Digest of every ScanOptions field that can change a file's cache
// artifacts. `jobs` is excluded (reports are identical at every thread
// count) and so is `interprocedural` (it only changes the KB, which the
// report key already fingerprints), so parses cached by a plain scan are
// reused by an `--ipa` scan and vice versa. fault_spec, file_timeout_ms and
// max_failure_ratio are excluded: a file that faults or times out stores no
// artifacts, so nothing wall-clock- or injection-dependent can ever be
// replayed.
uint64_t ScanOptionsFingerprint(const ScanOptions& options);

// Everything the checkers need about one function.
struct FunctionContext {
  const TranslationUnit* unit = nullptr;
  const FunctionDef* fn = nullptr;
  std::unique_ptr<Cfg> cfg;
  std::unique_ptr<Cpg> cpg;

  // Points the context at `function` of `owner` and rebuilds it in place:
  // the Cfg and Cpg (RebuildCfg / RebuildCpg) and the walk's reachable-event
  // list keep their capacity, and the acquisition memo is invalidated.
  // Stage 3 checks a file's functions one at a time through one context
  // this way, so it allocates per file, not per function; BuildUnitContext
  // builds each of its contexts with it too.
  void Rebuild(const TranslationUnit& owner, const FunctionDef& function,
               const KnowledgeBase& kb);

  // The function's CFG walk (walk.h): its reachable-event list and scratch
  // space, built on first use and shared by every checker of the function.
  CfgWalk& Walk() const { return walk ? *walk : walk.emplace(*cfg, *cpg); }

  // Single-slot memo (DESIGN.md §5.11): the acquisition analysis (see
  // analysis.h), built on first use and rebuilt only when a caller's option
  // key differs or the context is rebuilt, so P1/P4/P5/P6/P7 share one
  // computation per function.
  // Plain members: a context belongs to one thread — stage 3 hands each
  // file to one worker, and `match`, the baselines and the tests build their
  // own contexts.
  mutable AcquisitionCache acquisition_cache;
  mutable std::optional<CfgWalk> walk;
};

// One parsed translation unit plus its function contexts.
struct UnitContext {
  const SourceFile* file = nullptr;
  TranslationUnit unit;
  std::deque<FunctionContext> functions;
};

struct ScanStats {
  size_t files = 0;
  size_t functions = 0;
  size_t discovered_apis = 0;
  size_t discovered_smart_loops = 0;
  size_t refcounted_structs = 0;
  size_t summarized_functions = 0;  // stage 2.5 (0 when interprocedural off)

  // Fault-isolation accounting: files quarantined (they appear in
  // ScanResult::failures) and files that needed a transient-I/O retry
  // (whether or not the retry then succeeded).
  size_t files_quarantined = 0;
  size_t files_retried = 0;

  // Function-granular parse casualties (DESIGN.md §5.15): bodies the parser
  // quarantined while the rest of their file kept scanning. Excluded from
  // `functions`; each appears in ScanResult::degraded_functions.
  size_t functions_degraded = 0;

  // Incremental-cache accounting (all 0 when ScanOptions::cache_dir is
  // empty). A fully warm rescan of an unchanged tree has
  // cache_hits == cache_parse_skips == files and cache_misses == 0.
  size_t cache_hits = 0;         // files whose stage-3 shard was spliced from cache
  size_t cache_misses = 0;       // files checked cold while the cache was enabled
  size_t cache_parse_skips = 0;  // files never parsed this scan (facts/unit/reports cached)
  size_t cache_corrupt = 0;      // objects that existed but failed validation (→ miss)
  size_t kb_snapshot_hits = 0;   // 1 when the tree-level KB snapshot replaced discovery
};

// One ScanStats field: binds the struct member to its `--json` stats key
// and its `scan.*` counter name in the telemetry registry. ScanResultToJson,
// the CLI's --stats text section and the engine's metrics materialisation
// all iterate this table, so the three views cannot drift; the shape is
// locked by tests/telemetry_test.cc.
struct ScanStatsField {
  const char* json_key;
  const char* metric;  // counter name in the scan-local metrics registry
  size_t ScanStats::* member;
};

// Every ScanStats field, in declaration (and JSON emission) order.
const std::vector<ScanStatsField>& ScanStatsFields();

// One function body the parser quarantined (DESIGN.md §5.15): its file kept
// scanning, its siblings' reports are byte-identical to scanning the file
// with this function deleted, and the scan exits kExitDegraded.
struct DegradedFunctionReport {
  std::string file;
  std::string function;
  uint32_t line = 0;
  std::string what;
};

struct ScanResult {
  std::vector<BugReport> reports;
  ScanStats stats;

  // Quarantined files in tree (path) order, then any whole-tree stage
  // failures (e.g. a degraded summary stage, path "<tree>"). A scan of N
  // files with k failures still yields reports for the other N−k that are
  // byte-identical to scanning the healthy subset alone (for stage-1
  // quarantines, which are excluded from KB discovery; asserted by
  // tests/faultinject_test.cc).
  std::vector<FileFailure> failures;

  // Quarantined function bodies in (file, source line) order — the
  // function-granular analogue of `failures`. Non-empty ⇒ kExitDegraded.
  std::vector<DegradedFunctionReport> degraded_functions;

  // Circuit breaker (ScanOptions::max_failure_ratio) or a malformed
  // fault_spec: the scan gave up; `reports` must not be trusted.
  bool aborted = false;
  std::string abort_reason;
};

// Disjoint CLI exit codes (DESIGN.md §5.9). Every outcome gets its own
// code — a healthy scan with reports can never be mistaken for a degraded
// or failed one. Precedence: hard failure > degraded > reports > clean.
// kExitUsage is BSD sysexits EX_USAGE, for malformed invocations.
enum ScanExitCode : int {
  kExitClean = 0,        // scan completed, no reports, nothing degraded
  kExitHardFailure = 1,  // aborted: breaker trip, bad spec, unusable input
  kExitDegraded = 2,     // completed with quarantined files or functions
  kExitReports = 10,     // completed healthy, found >= 1 report
  kExitUsage = 64,       // bad flags / arguments (EX_USAGE)
};

// Maps a ScanResult to its exit code (the CLI's single source of truth).
int ScanExitCodeFor(const ScanResult& result);

// JSON object for the CLI: {"reports": [...], "degraded": [...]} plus
// "aborted" when set and "stats" when requested. Deterministic field order;
// the reports array is exactly ReportsToJson, so healthy-subset byte
// comparisons keep working.
std::string ScanResultToJson(const ScanResult& result, bool include_stats = false);

class CheckerEngine {
 public:
  // `kb` is the seed every scan starts from; options.dialects fold into it
  // per scan.
  explicit CheckerEngine(KnowledgeBase kb = KnowledgeBase::BuiltIn(), ScanOptions options = {});

  // Scans a whole tree (two passes: discovery, then checking).
  ScanResult Scan(const SourceTree& tree);

  // Scans a single in-memory file (tests / quickstart example).
  ScanResult ScanFileText(std::string path, std::string text);

 private:
  KnowledgeBase seed_;
  ScanOptions options_;
};

// Individual checkers, exposed for unit tests and the ablation bench. Each
// appends raw (not yet deduplicated) reports.
void CheckReturnError(const UnitContext& uc, const FunctionContext& fc, const KnowledgeBase& kb,
                      const ScanOptions& options, std::vector<BugReport>& out);  // P1
void CheckReturnNull(const UnitContext& uc, const FunctionContext& fc, const KnowledgeBase& kb,
                     const ScanOptions& options, std::vector<BugReport>& out);  // P2
void CheckSmartLoopBreak(const UnitContext& uc, const FunctionContext& fc,
                         const KnowledgeBase& kb, const ScanOptions& options,
                         std::vector<BugReport>& out);  // P3
void CheckHiddenApi(const UnitContext& uc, const FunctionContext& fc, const KnowledgeBase& kb,
                    const ScanOptions& options, std::vector<BugReport>& out);  // P4
void CheckErrorHandle(const UnitContext& uc, const FunctionContext& fc, const KnowledgeBase& kb,
                      const ScanOptions& options, std::vector<BugReport>& out);  // P5
void CheckInterUnpaired(const UnitContext& uc, const KnowledgeBase& kb,
                        const ScanOptions& options,
                        std::vector<BugReport>& out);  // P6 (whole-unit)
void CheckDirectFree(const UnitContext& uc, const FunctionContext& fc, const KnowledgeBase& kb,
                     const ScanOptions& options, std::vector<BugReport>& out);  // P7
void CheckUseAfterDecrease(const UnitContext& uc, const FunctionContext& fc,
                           const KnowledgeBase& kb, const ScanOptions& options,
                           std::vector<BugReport>& out);  // P8
void CheckReferenceEscape(const UnitContext& uc, const FunctionContext& fc,
                          const KnowledgeBase& kb, const ScanOptions& options,
                          std::vector<BugReport>& out);  // P9
void CheckRawManipulation(const UnitContext& uc, const FunctionContext& fc,
                          const KnowledgeBase& kb, const ScanOptions& options,
                          std::vector<BugReport>& out);  // P10
void CheckTestAndFree(const UnitContext& uc, const FunctionContext& fc,
                      const KnowledgeBase& kb, const ScanOptions& options,
                      std::vector<BugReport>& out);  // P11
void CheckRefcountReset(const UnitContext& uc, const FunctionContext& fc,
                        const KnowledgeBase& kb, const ScanOptions& options,
                        std::vector<BugReport>& out);  // P12

// P6 in three steps, so stage 3 can run it while it holds one function's
// context at a time. The constructor plans the (acquiring, releasing)
// function pairs from the unit alone: ops-struct initialisers, then name
// pairs (foo_register / foo_unregister), each naming the first function of
// its name. Record reads what P6 needs of function `index` (its unbalanced
// acquisition sites, the decrease families it releases) while its context
// is alive. Emit, once Record has seen every function, reports in pair
// order. CheckInterUnpaired runs the three steps over a full UnitContext.
class InterUnpairedCheck {
 public:
  explicit InterUnpairedCheck(const TranslationUnit& unit);
  void Record(size_t index, const FunctionContext& fc, const ScanOptions& options);
  void Emit(const TranslationUnit& unit, std::vector<BugReport>& out) const;

 private:
  static constexpr uint8_t kAcquirer = 1;
  static constexpr uint8_t kReleaser = 2;
  struct Pair {
    uint32_t acq;  // function indices
    uint32_t rel;
  };
  // An acquisition site no branch of its function releases or frees.
  struct Held {
    uint32_t line;
    const RefApiInfo* api;
    std::string object;
  };
  // What P6 knows of one function of the unit.
  struct PairedFunction {
    uint8_t roles = 0;               // kAcquirer | kReleaser
    std::vector<Held> held;          // kAcquirer, once recorded
    std::set<std::string> released;  // kReleaser, once recorded: decrease API families
  };
  std::vector<Pair> pairs_;
  std::vector<PairedFunction> functions_;  // in unit order
};

// Builds the per-unit context (parse already done by caller).
UnitContext BuildUnitContext(const SourceFile& file, TranslationUnit unit,
                             const KnowledgeBase& kb);

// Refcounting API family used for inter-unpaired matching (P6): increase and
// decrease APIs pair only within a family ("of-node", "device", "pm", ...).
std::string ApiFamily(std::string_view api_name);

}  // namespace refscan

#endif  // REFSCAN_CHECKERS_ENGINE_H_
