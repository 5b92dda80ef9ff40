#include "src/checkers/scan_stages.h"

#include <chrono>
#include <thread>

#include "src/cache/store.h"
#include "src/support/governor.h"
#include "src/support/strings.h"
#include "src/support/telemetry.h"

namespace refscan {

namespace {

// The per-function checkers in stage-3 order; P6 runs over the whole unit
// after them.
using FunctionChecker = void (*)(const UnitContext&, const FunctionContext&, const KnowledgeBase&,
                                 const ScanOptions&, std::vector<BugReport>&);
constexpr std::pair<int, FunctionChecker> kFunctionCheckers[] = {
    {1, CheckReturnError},       {2, CheckReturnNull},       {3, CheckSmartLoopBreak},
    {4, CheckHiddenApi},         {5, CheckErrorHandle},      {7, CheckDirectFree},
    {8, CheckUseAfterDecrease},  {9, CheckReferenceEscape},  {10, CheckRawManipulation},
    {11, CheckTestAndFree},      {12, CheckRefcountReset},
};

// Maps an injected fault to the failure taxonomy by its site prefix.
FailureKind ClassifyFault(const FaultInjected& e) {
  if (e.transient_io()) {
    return FailureKind::kIo;
  }
  const std::string& site = e.site();
  if (site.rfind("fs.", 0) == 0) {
    return FailureKind::kIo;
  }
  if (site.rfind("cache.", 0) == 0) {
    return FailureKind::kCache;
  }
  if (site.rfind("parser.", 0) == 0) {
    return FailureKind::kParse;
  }
  return FailureKind::kInternal;
}

// Runs one file's pipeline stage inside its sandbox: a fresh ScopedDeadline
// per attempt, one bounded-backoff retry for transient I/O failures (only
// while `retry_allowed` — the stage-3 body clears it once it has consumed
// the cached TranslationUnit), and exception → FileFailure classification.
// Returns false when the file is quarantined (`failure` is filled in); the
// caller must then discard the file's partial state.
template <typename Fn>
bool GuardFileStage(std::string_view path, FailureStage stage, uint32_t timeout_ms,
                    const bool& retry_allowed, Fn&& body, std::optional<FileFailure>& failure,
                    bool& retried) {
  FileFailure f;
  f.path = std::string(path);
  f.stage = stage;
  for (int attempt = 0;; ++attempt) {
    try {
      ScopedDeadline deadline(timeout_ms);
      body();
      return true;
    } catch (const FaultInjected& e) {
      if (e.transient_io() && retry_allowed && attempt == 0) {
        retried = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      f.kind = ClassifyFault(e);
      f.what = e.what();
    } catch (const DeadlineExceeded& e) {
      f.kind = FailureKind::kResourceLimit;
      f.what = e.what();
    } catch (const std::exception& e) {
      f.kind = FailureKind::kInternal;
      f.what = e.what();
    } catch (...) {
      f.kind = FailureKind::kInternal;
      f.what = "unknown exception";
    }
    f.retries = retried ? 1 : 0;
    failure = std::move(f);
    return false;
  }
}

}  // namespace

CachedFileReports CheckOneFile(const SourceFile& file, TranslationUnit unit,
                               const KnowledgeBase& kb, const ScanOptions& options) {
  CachedFileReports shard;
  // Quarantined function bodies ride along with the shard (and, via
  // StoreReports, with the cache entry): parsing is deterministic, so the
  // list is identical whichever process or scan produced the unit.
  shard.degraded = std::move(unit.degraded);
  // The checkers read the unit through a UnitContext; its function list
  // stays empty, since P6 runs in steps below.
  UnitContext uc;
  uc.file = &file;
  uc.unit = std::move(unit);
  shard.functions = uc.unit.functions.size();

  uint32_t enabled = 0;  // bit p: pattern p is on
  for (const int pattern : options.enabled_patterns) {
    if (pattern >= 1 && pattern <= 12) {
      enabled |= 1u << pattern;
    }
  }
  std::optional<InterUnpairedCheck> p6;
  if ((enabled & (1u << 6)) != 0) {
    p6.emplace(uc.unit);
  }
  FunctionContext fc;
  for (size_t i = 0; i < uc.unit.functions.size(); ++i) {
    CheckDeadline("checker");
    fc.Rebuild(uc.unit, uc.unit.functions[i], kb);
    for (const auto& [pattern, check] : kFunctionCheckers) {
      if ((enabled & (1u << pattern)) != 0) {
        check(uc, fc, kb, options, shard.reports);
      }
    }
    if (p6) {
      p6->Record(i, fc, options);
    }
  }
  if (p6) {
    p6->Emit(uc.unit, shard.reports);
  }
  return shard;
}

std::shared_ptr<ObjectStore> MakeScanStore(const ScanOptions& options) {
  if (options.object_store != nullptr) {
    return options.object_store;  // resident injection wins over any location
  }
  if (!options.cache_server.empty()) {
    return std::make_shared<RemoteStore>(options.cache_server);
  }
  if (options.cache_dir.empty()) {
    return nullptr;
  }
  auto local = std::make_shared<LocalStore>(options.cache_dir);
  if (!local->ok()) {
    return nullptr;  // degrade to a disabled cache rather than failing the scan
  }
  return local;
}

// The one ScanOptions field list. The wire carries every field; the
// options fingerprint, and so every cache key, carries only those that can
// change an artifact, in the order existing caches were keyed under.
// NotFingerprinted marks the rest: locations, schedules, fault injection and
// failure budgets. A file that faults or times out stores no artifacts, so
// nothing wall-clock- or injection-dependent is ever replayed.
namespace {

template <typename T>
struct NotFingerprinted {
  T& value;
};
template <typename T>
NotFingerprinted(T&) -> NotFingerprinted<T>;

// Writes the fingerprinted fields only.
class FingerprintWriter : public ByteWriter {};

template <typename IO, typename T>
void Transfer(IO& io, NotFingerprinted<T> field) {
  if constexpr (!std::is_same_v<IO, FingerprintWriter>) {
    Transfer(io, field.value);
  }
}

}  // namespace

template <typename IO, Value<ScanOptions> O>
void Transfer(IO& io, O& o) {
  Transfer(io, o.nesting_threshold, o.discover_from_source, o.enabled_patterns,
           o.prune_null_branches, o.model_ownership_transfer, o.dialects,
           NotFingerprinted(o.jobs), NotFingerprinted(o.cache_dir),
           NotFingerprinted(o.cache_server), NotFingerprinted(o.interprocedural),
           NotFingerprinted(o.fault_spec), NotFingerprinted(o.file_timeout_ms),
           NotFingerprinted(o.max_failure_ratio), NotFingerprinted(o.streaming));
}

uint64_t ScanOptionsFingerprint(const ScanOptions& options) {
  FingerprintWriter w;
  Transfer(w, options);
  return HashBytes(w.bytes());
}

// A tree's files as (path, text) pairs. A read rebuilds the tree through
// SourceTree::Add, which indexes each file's lines.
template <typename IO, Value<SourceTree> T>
void Transfer(IO& io, T& tree) {
  std::vector<std::pair<std::string_view, std::string_view>> files;
  if constexpr (!IO::kReading) {
    files.reserve(tree.size());
    for (const auto& [path, file] : tree.files()) {
      files.emplace_back(path, file.text());
    }
  }
  Transfer(io, files);
  if constexpr (IO::kReading) {
    for (const auto& [path, text] : files) {
      tree.Add(std::string(path), std::string(text));
    }
  }
}

std::string EncodeScanRequest(const SourceTree& tree, const ScanOptions& options) {
  return Encode(options, tree);
}

bool DecodeScanRequest(std::string_view payload, SourceTree& tree, ScanOptions& options) {
  return Decode(payload, options, tree);
}

// The stats table's size travels first, so a peer built with another table
// fails to decode instead of misattributing counters.
template <typename IO, Value<ScanStats> S>
void Transfer(IO& io, S& stats) {
  const std::vector<ScanStatsField>& fields = ScanStatsFields();
  Transfer(io, Pinned{static_cast<uint32_t>(fields.size())});
  for (const ScanStatsField& f : fields) {
    Transfer(io, stats.*f.member);
  }
}

template <typename IO, Value<DegradedFunctionReport> D>
void Transfer(IO& io, D& d) {
  Transfer(io, d.file, d.function, d.line, d.what);
}

template <typename IO, Value<ScanResult> R>
void Transfer(IO& io, R& r) {
  Transfer(io, r.reports, r.stats, r.failures, r.degraded_functions, r.aborted, r.abort_reason);
}

std::string EncodeScanResult(const ScanResult& result) { return Encode(result); }

bool DecodeScanResult(std::string_view payload, ScanResult& result) {
  return Decode(payload, result);
}

ScanStageContext MakeScanStageContext(const ScanOptions& options, ScanCache& cache) {
  ScanStageContext ctx;
  ctx.options = &options;
  ctx.cache = &cache;
  ctx.use_cache = cache.enabled();
  ctx.options_fp = ctx.use_cache ? ScanOptionsFingerprint(options) : 0;
  ctx.want_facts = options.discover_from_source;
  // Streaming never survives interprocedural mode: stage 2.5 needs every
  // AST resident at once, which is exactly what streaming forbids.
  ctx.stream_units = options.streaming && !options.interprocedural;
  ctx.need_units = (!ctx.use_cache || options.interprocedural) && !ctx.stream_units;
  return ctx;
}

FileScanState RunParseStage(const SourceFile& f, const ScanStageContext& ctx) {
  const ScanOptions& options = *ctx.options;
  ScanCache& cache = *ctx.cache;
  FileScanState st;
  // One event per file whatever happens inside (cache replay, parse,
  // retries): the guard's attempt loop runs within this span.
  TelemetrySpan file_span("file.parse", f.path());
  const bool stage_retry_ok = true;  // stage 1 work is idempotent, retry freely
  const bool ok = GuardFileStage(
      f.path(), FailureStage::kParse, options.file_timeout_ms, stage_retry_ok,
      [&] {
        st.key = CacheKey{};
        st.facts = DiscoveryFacts{};
        st.unit.reset();
        st.parsed = false;
        if (ctx.use_cache) {
          st.key = MakeFileKey(f.path(), f.text(), ctx.options_fp);
          if (!ctx.need_units) {
            if (!ctx.want_facts) {
              return;  // discovery off: nothing is needed before stage 3
            }
            if (std::optional<DiscoveryFacts> facts = cache.LoadFacts(st.key)) {
              st.facts = std::move(*facts);
              return;
            }
          } else if (std::optional<TranslationUnit> unit = cache.LoadUnit(st.key)) {
            st.unit = std::move(*unit);
            if (ctx.want_facts) {
              st.facts = ExtractDiscoveryFacts(*st.unit);
            }
            return;
          }
        }
        st.unit = ParseFile(f);
        st.parsed = true;
        if (ctx.want_facts) {
          st.facts = ExtractDiscoveryFacts(*st.unit);
        }
        if (ctx.use_cache) {
          cache.StoreUnit(st.key, *st.unit, f.path());
          if (ctx.want_facts) {
            cache.StoreFacts(st.key, st.facts, f.path());
          }
        }
        if (ctx.stream_units) {
          // Streaming lifecycle: the facts are extracted (and the cache
          // fed), so the AST has served stage 1's purpose. Drop it here —
          // stage 3 re-parses just-in-time — and whole-tree peak RSS stays
          // bounded by `jobs` concurrent units instead of the tree size.
          st.unit.reset();
        }
      },
      st.failure, st.retried);
  if (!ok) {
    // Discard partial state so the KB replay and stage 3 see a file that
    // simply is not there — this is what makes the healthy-subset
    // byte-identity guarantee hold.
    st.facts = DiscoveryFacts{};
    st.unit.reset();
    st.parsed = false;
  }
  return st;
}

bool RunDiscoverStage(const std::vector<FileScanState>& states, KnowledgeBase& kb,
                      const ScanStageContext& ctx) {
  if (!ctx.want_facts) {
    return false;
  }
  TelemetrySpan stage_span("stage.discover");
  const int nesting_threshold = ctx.options->nesting_threshold;
  // Quarantined files are excluded from both the replay and the snapshot
  // key: the KB — and therefore every healthy file's report shard — is
  // exactly what a scan of the healthy subset alone would build.
  std::vector<const DiscoveryFacts*> live;
  live.reserve(states.size());
  size_t parsed = 0;
  for (const FileScanState& st : states) {
    if (!st.failure) {
      live.push_back(&st.facts);
      parsed += st.parsed ? 1 : 0;
    }
  }
  // Discovery is purely additive — every Discover* pass only inserts, and
  // every insert is determined by (current KB, facts sequence) — so the
  // post-discovery KB is a pure function of the pre-discovery KB and the
  // ordered facts, which is exactly what the snapshot key hashes.
  CacheKey kb_key;
  if (ctx.use_cache) {
    kb_key = MakeKbSnapshotKey(FingerprintKnowledgeBase(kb), nesting_threshold, live,
                               ctx.options_fp);
    if (std::optional<KnowledgeBase> snapshot = ctx.cache->LoadKb(kb_key)) {
      kb = std::move(*snapshot);
      return true;
    }
  }
  // Two rounds: the first classifies directly-visible APIs, the second lets
  // wrappers of discovered APIs classify too.
  for (int round = 0; round < 2; ++round) {
    for (const DiscoveryFacts* facts : live) {
      kb.DiscoverFromFacts(*facts, nesting_threshold);
    }
  }
  if (ctx.use_cache && (parsed == 0 || parsed == live.size())) {
    ctx.cache->StoreKb(kb_key, kb, "<tree>");
  }
  return false;
}

CachedFileReports RunCheckStage(const SourceFile& file, FileScanState& st, uint64_t kb_fp,
                                const ScanStageContext& ctx, const UnitCheck& check) {
  const ScanOptions& options = *ctx.options;
  ScanCache& cache = *ctx.cache;
  CachedFileReports shard;
  if (st.failure) {
    return shard;  // quarantined in stage 1: empty shard, nothing to check
  }
  // One event per non-quarantined file, covering splice and cold check
  // alike (the nested cache.load span distinguishes them in a trace).
  TelemetrySpan file_span("file.check", file.path());
  // Retrying is only safe until the body moves the cached TranslationUnit
  // into the check — after that a retry would re-check a moved-from
  // unit and silently produce wrong output, so the body revokes it.
  bool retry_ok = true;
  const bool ok = GuardFileStage(
      file.path(), FailureStage::kCheck, options.file_timeout_ms, retry_ok,
      [&] {
        shard = CachedFileReports{};
        if (ctx.use_cache) {
          if (std::optional<CachedFileReports> cached = cache.LoadReports(st.key, kb_fp)) {
            st.report_hit = true;
            shard = std::move(*cached);
            return;
          }
        }
        MaybeFault("checker.run", file.path());
        TranslationUnit unit;
        if (st.unit.has_value()) {
          retry_ok = false;
          unit = std::move(*st.unit);
          st.unit.reset();
        } else {
          // Facts were cached but this file's reports were invalidated
          // (another file changed the KB): re-parse just this file,
          // in-memory.
          unit = ParseFile(file);
          st.parsed = true;
        }
        shard = check(file, std::move(unit));
        if (ctx.use_cache) {
          cache.StoreReports(st.key, kb_fp, shard, file.path());
        }
      },
      st.failure, st.retried);
  if (!ok) {
    shard = CachedFileReports{};  // discard any partial shard
  }
  return shard;
}

// Pre-resolved counter handles for one scan. The spine counts in here (one
// relaxed atomic add per event, no name lookups on the hot path) and
// materialises the stable ScanStats façade from the registry in Finish via
// ScanStatsFields(); an armed telemetry session then absorbs the whole
// registry, so --metrics-out carries the scan counters alongside the
// support-layer ones (load.*, sched.*, fault.*, governor.*).
struct ScanSpine::Metrics {
  MetricsRegistry reg;
  MetricCounter& files = reg.Counter("scan.files");
  MetricCounter& functions = reg.Counter("scan.functions");
  MetricCounter& discovered_apis = reg.Counter("scan.discovered_apis");
  MetricCounter& discovered_smart_loops = reg.Counter("scan.discovered_smart_loops");
  MetricCounter& refcounted_structs = reg.Counter("scan.refcounted_structs");
  MetricCounter& summarized_functions = reg.Counter("scan.summarized_functions");
  MetricCounter& files_quarantined = reg.Counter("scan.files_quarantined");
  MetricCounter& files_retried = reg.Counter("scan.files_retried");
  MetricCounter& functions_degraded = reg.Counter("scan.functions_degraded");
  MetricCounter& cache_hits = reg.Counter("scan.cache_hits");
  MetricCounter& cache_misses = reg.Counter("scan.cache_misses");
  MetricCounter& cache_parse_skips = reg.Counter("scan.cache_parse_skips");
  MetricCounter& cache_corrupt = reg.Counter("scan.cache_corrupt");
  MetricCounter& kb_snapshot_hits = reg.Counter("scan.kb_snapshot_hits");
  MetricCounter& raw_reports = reg.Counter("scan.raw_reports");
  MetricCounter& reports = reg.Counter("scan.reports");
};

ScanSpine::ScanSpine(const SourceTree& tree, KnowledgeBase seed, ScanOptions options,
                     bool keep_units)
    : tree_(tree),
      options_(std::move(options)),
      kb_(std::move(seed)),
      cache_(MakeScanStore(options_)),
      ctx_(MakeScanStageContext(options_, cache_)),
      metrics_(std::make_unique<Metrics>()) {
  if (keep_units) {
    ctx_.need_units = true;
    ctx_.stream_units = false;
  }
  // Dialect catalogues merge into the seed before any discovery runs, so
  // discovered wrappers classify against them exactly like builtin APIs.
  // Unknown names were rejected at the CLI; here they are simply inert.
  for (const std::string& dialect : options_.dialects) {
    ApplyDialect(kb_, dialect);
  }
  // Files in path order: index i is the fan-out key for both halves, so
  // merge order never depends on thread scheduling or sharding.
  files_.reserve(tree.size());
  for (const auto& [path, file] : tree.files()) {
    files_.push_back(&file);
  }
  // Scoped fault arming from the options: library callers and tests get a
  // hermetic plan that restores whatever was armed before. A malformed spec
  // aborts loudly — silently scanning un-faulted would make a fault-matrix
  // CI job pass vacuously.
  if (!options_.fault_spec.empty()) {
    FaultPlan plan;
    std::string spec_error;
    if (!ParseFaultSpec(options_.fault_spec, plan, &spec_error)) {
      result_.aborted = true;
      result_.abort_reason = "invalid fault spec: " + spec_error;
      return;
    }
    fault_arm_.emplace(std::move(plan));
  }
}

ScanSpine::~ScanSpine() = default;

ThreadPool& ScanSpine::pool() {
  if (!pool_) {
    pool_.emplace(options_.jobs);
  }
  return *pool_;
}

bool ScanSpine::FanOutParse(std::vector<FileScanState>& states) {
  states = ParallelMap(pool(), files_.size(),
                       [&](size_t i) { return RunParseStage(*files_[i], ctx_); });
  return true;
}

bool ScanSpine::FanOutCheck(uint64_t kb_fp, std::vector<FileScanState>& states,
                            std::vector<CachedFileReports>& shards) {
  const UnitCheck check = [this](const SourceFile& file, TranslationUnit unit) {
    return CheckUnit(file, std::move(unit));
  };
  shards = ParallelMap(pool(), files_.size(), [&](size_t i) {
    return RunCheckStage(*files_[i], states[i], kb_fp, ctx_, check);
  });
  return true;
}

CachedFileReports ScanSpine::CheckUnit(const SourceFile& file, TranslationUnit unit) {
  return CheckOneFile(file, std::move(unit), kb_, options_);
}

bool ScanSpine::BreakerTrips(const char* where) {
  // Off by default: a mostly-broken tree — wrong directory, filesystem
  // fault, bad deploy — should abort loudly instead of "completing" with a
  // handful of reports from the wreckage.
  size_t failed = 0;
  for (const FileScanState& st : states_) {
    failed += st.failure.has_value() ? 1 : 0;
  }
  if (options_.max_failure_ratio <= 0 || files_.empty() ||
      static_cast<double>(failed) / static_cast<double>(files_.size()) <=
          options_.max_failure_ratio) {
    return false;
  }
  result_.aborted = true;
  result_.abort_reason = StrFormat("%zu of %zu files failed%s (max_failure_ratio %.2f)", failed,
                                   files_.size(), where, options_.max_failure_ratio);
  return true;
}

bool ScanSpine::RunFront() {
  if (result_.aborted) {
    return false;  // malformed fault spec
  }
  started_ = true;
  Metrics& m = *metrics_;

  // Stage 1: per-file discovery facts — and units where needed — each file
  // inside its sandbox. A throw from the parser (deadline / injected fault)
  // or the cache quarantines that one file and resets its partial state;
  // the rest of the scan never sees it again. A
  // quarantined file stores no cache artifacts, so nothing injection- or
  // wall-clock-dependent can ever be replayed.
  {
    TelemetrySpan stage_span("stage.parse");
    if (!FanOutParse(states_)) {
      return false;
    }
  }
  if (BreakerTrips(" in the parse stage")) {
    return false;
  }

  // Stage 2: feed the KB (structure parser, API and smartloop discovery).
  // Discovery must see all units before checking so that cross-file APIs (a
  // helper defined in one file, used in another) classify correctly — the
  // paper runs its lexer parsers over the whole kernel first. This is the
  // serial merge barrier: discovery mutates the KB and the second round
  // depends on what the first one found, so parallelising it would change
  // results. It is also cheap next to parsing and checking.
  if (RunDiscoverStage(states_, kb_, ctx_)) {
    m.kb_snapshot_hits.Add(1);
  }

  // Stage 2.5: interprocedural ref-delta summaries (src/ipa). Bottom-up
  // over the call-graph SCCs, parallel within a level; registration into
  // the still-mutable KB is serial in call-graph node order, so the KB the
  // checkers read is identical at every `jobs` value. Summaries are always
  // recomputed (they are whole-tree), but the units they walk come from
  // cached parses on a warm rescan.
  if (options_.interprocedural) {
    // A summary-stage failure degrades the whole scan (path "<tree>") but
    // does not abort it: the checkers still run with the intraprocedural KB,
    // exactly as if --ipa had been off. The fault hook fires before
    // ComputeSummaries so an injected failure can never leave the KB with a
    // partial set of registered summaries.
    TelemetrySpan stage_span("stage.summarize");
    try {
      MaybeFault("ipa.summarize", "<tree>");
      std::vector<const TranslationUnit*> unit_ptrs;
      unit_ptrs.reserve(states_.size());
      for (const FileScanState& st : states_) {
        if (!st.failure) {
          unit_ptrs.push_back(&*st.unit);
        }
      }
      summaries_ = ComputeSummaries(unit_ptrs, kb_, SummaryOptions{}, pool());
      m.summarized_functions.Add(summaries_.summaries.size());
    } catch (const std::exception& e) {
      FileFailure f;
      f.path = "<tree>";
      f.stage = FailureStage::kSummarize;
      f.kind = FailureKind::kInternal;
      f.what = e.what();
      tree_failures_.push_back(std::move(f));
    }
  }

  // The KB is frozen from here on.
  m.discovered_apis.Add(kb_.apis().size());
  m.discovered_smart_loops.Add(kb_.smart_loops().size());
  m.refcounted_structs.Add(kb_.refcounted_structs().size());
  return true;
}

bool ScanSpine::RunBack() {
  Metrics& m = *metrics_;
  summaries_ = SummaryResult{};  // it points into the units stage 3 frees

  // A file's stage-3 shard is a pure function of (file content, KB,
  // options): fingerprint the KB and the cache can prove a stored shard is
  // still valid. Any content change that altered discovery shifts this
  // fingerprint and invalidates every stored shard at once — the
  // conservative, correct reaction.
  const uint64_t kb_fp = ctx_.use_cache ? FingerprintKnowledgeBase(kb_) : 0;

  // Stage 3: build contexts and run the enabled checkers (the KB is
  // read-only; KnowledgeBase lookups are safe for concurrent readers). Each
  // file gets its own shard; cached shards splice in without parsing or
  // checking.
  std::vector<CachedFileReports> shards;
  {
    TelemetrySpan stage_span("stage.check");
    if (!FanOutCheck(kb_fp, states_, shards)) {
      return false;
    }
  }
  if (BreakerTrips("")) {
    return false;
  }

  if (ctx_.use_cache) {
    for (const FileScanState& st : states_) {
      if (st.failure) {
        continue;  // quarantined files are neither hits nor misses
      }
      (st.report_hit ? m.cache_hits : m.cache_misses).Add(1);
      if (!st.parsed) {
        m.cache_parse_skips.Add(1);
      }
    }
    m.cache_corrupt.Add(CorruptLoads());
  }

  // Merge the shards in file order: the concatenation equals what a
  // single-threaded loop produces, so DeduplicateReports (whose tie-breaks
  // are first-seen-wins) yields byte-identical output at any thread or
  // worker count.
  TelemetrySpan merge_span("stage.merge");
  std::vector<BugReport> raw;
  for (size_t i = 0; i < shards.size(); ++i) {
    CachedFileReports& shard = shards[i];
    m.functions.Add(shard.functions);
    raw.insert(raw.end(), std::make_move_iterator(shard.reports.begin()),
               std::make_move_iterator(shard.reports.end()));
    // Function-granular parse casualties, already in source order within the
    // shard; shards are walked in file order, so the merged list is
    // (file, line)-ordered.
    m.functions_degraded.Add(shard.degraded.size());
    for (DegradedFunction& d : shard.degraded) {
      result_.degraded_functions.push_back(
          DegradedFunctionReport{files_[i]->path(), std::move(d.name), d.line, std::move(d.what)});
    }
  }
  m.raw_reports.Add(raw.size());
  result_.reports = DeduplicateReports(std::move(raw));

  // Suppression comments: a `refscan: ignore` marker on the reported line
  // (or the line above it) silences the report — the escape hatch for
  // intentional patterns the checkers cannot see are safe (the paper's
  // maintainer-disputed UAD cases, for example).
  std::erase_if(result_.reports, [this](const BugReport& r) {
    const SourceFile* file = tree_.Find(r.file);
    if (file == nullptr) {
      return false;
    }
    std::vector<uint32_t> probe_lines = {r.line};
    if (r.line > 1) {
      probe_lines.push_back(r.line - 1);  // only when distinct: line 1 has no line above
    }
    for (uint32_t line : probe_lines) {
      if (file->Line(line).find("refscan: ignore") != std::string_view::npos ||
          file->Line(line).find("refscan:ignore") != std::string_view::npos) {
        return true;
      }
    }
    return false;
  });
  return true;
}

ScanResult ScanSpine::Finish() {
  if (!started_) {
    return std::move(result_);  // the fault spec was malformed: nothing ran
  }
  Metrics& m = *metrics_;
  m.files.Add(files_.size());
  // Quarantined files in tree (path) order — states already are — then any
  // whole-tree stage failures, unless a breaker gave up on the scan.
  for (FileScanState& st : states_) {
    if (st.retried) {
      m.files_retried.Add(1);
    }
    if (st.failure) {
      m.files_quarantined.Add(1);
      result_.failures.push_back(std::move(*st.failure));
    }
  }
  if (!result_.aborted) {
    for (FileFailure& f : tree_failures_) {
      m.files_quarantined.Add(1);
      result_.failures.push_back(std::move(f));
    }
  }
  m.reports.Add(result_.reports.size());
  for (const ScanStatsField& f : ScanStatsFields()) {
    result_.stats.*f.member = static_cast<size_t>(m.reg.CounterValue(f.metric));
  }
  if (Telemetry* t = CurrentTelemetry()) {
    t->metrics().MergeFrom(m.reg);
  }
  return std::move(result_);
}

}  // namespace refscan
