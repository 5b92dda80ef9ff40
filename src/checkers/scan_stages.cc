#include "src/checkers/scan_stages.h"

#include "src/cache/store.h"
#include "src/support/faultinject.h"
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

// Runs one file's pipeline stage inside its sandbox: one attempt under a
// fresh ScopedDeadline (never later than an enclosing one), and exception →
// FileFailure classification. A file whose deadline has already passed is
// quarantined without running `body`. Returns false when the file is
// quarantined (`failure` is filled in); the caller must then discard the
// file's partial state.
template <typename Fn>
bool GuardFileStage(std::string_view path, FailureStage stage, uint32_t timeout_ms, Fn&& body,
                    std::optional<FileFailure>& failure) {
  FileFailure f{std::string(path), stage, FailureKind::kInternal, {}};
  try {
    ScopedDeadline deadline(timeout_ms);
    CheckDeadlineNow();
    body();
    return true;
  } catch (const FaultInjected& e) {
    // An injected fault sorts by its site: only the parser's is a parse
    // failure.
    if (e.site().starts_with("parser.")) {
      f.kind = FailureKind::kParse;
    }
    f.what = e.what();
  } catch (const DeadlineExceeded& e) {
    f.kind = FailureKind::kResourceLimit;
    f.what = e.what();
  } catch (const std::exception& e) {
    f.what = e.what();
  } catch (...) {
    f.what = "unknown exception";
  }
  failure = std::move(f);
  return false;
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

namespace {

// Builds the object store the options ask for: the injected object_store
// when set (the resident server's shared MemoryStore), else a LocalStore
// for cache_dir, null (disabled cache) otherwise. A local directory that
// cannot be created degrades to null, matching ScanCache's historical
// behaviour.
std::shared_ptr<ObjectStore> MakeScanStore(const ScanOptions& options) {
  if (options.object_store != nullptr) {
    return options.object_store;  // resident injection wins over any location
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

}  // namespace

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
           NotFingerprinted(o.interprocedural), NotFingerprinted(o.file_timeout_ms),
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

FileScanState ScanSpine::RunParseStage(const SourceFile& f) {
  FileScanState st;
  // One event per file whatever happens inside (cache replay, parse,
  // quarantine): the guard runs within this span.
  TelemetrySpan file_span("file.parse", f.path());
  const bool ok = GuardFileStage(
      f.path(), FailureStage::kParse, options_.file_timeout_ms,
      [&] {
        if (cache_.enabled()) {
          st.key = MakeFileKey(f.path(), f.text(), options_fp_);
          if (!need_units_) {
            if (!want_facts_) {
              return;  // discovery off: nothing is needed before stage 3
            }
            if (std::optional<DiscoveryFacts> facts = cache_.LoadFacts(st.key)) {
              st.facts = std::move(*facts);
              return;
            }
          } else if (std::optional<TranslationUnit> unit = cache_.LoadUnit(st.key)) {
            st.unit = std::move(*unit);
            if (want_facts_) {
              st.facts = ExtractDiscoveryFacts(*st.unit);
            }
            return;
          }
        }
        st.unit = ParseFile(f);
        st.parsed = true;
        if (want_facts_) {
          st.facts = ExtractDiscoveryFacts(*st.unit);
        }
        if (cache_.enabled()) {
          cache_.StoreUnit(st.key, *st.unit, f.path());
          if (want_facts_) {
            cache_.StoreFacts(st.key, st.facts, f.path());
          }
        }
        if (stream_units_) {
          // Streaming lifecycle: the facts are extracted (and the cache
          // fed), so the AST has served stage 1's purpose. Drop it here —
          // stage 3 re-parses just-in-time — and whole-tree peak RSS stays
          // bounded by `jobs` concurrent units instead of the tree size.
          st.unit.reset();
        }
      },
      st.failure);
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

bool ScanSpine::RunDiscoverStage() {
  if (!want_facts_) {
    return false;
  }
  TelemetrySpan stage_span("stage.discover");
  const int nesting_threshold = options_.nesting_threshold;
  // Quarantined files are excluded from both the replay and the snapshot
  // key: the KB — and therefore every healthy file's report shard — is
  // exactly what a scan of the healthy subset alone would build.
  std::vector<const DiscoveryFacts*> live;
  live.reserve(states_.size());
  size_t parsed = 0;
  for (const FileScanState& st : states_) {
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
  if (cache_.enabled()) {
    kb_key = MakeKbSnapshotKey(FingerprintKnowledgeBase(kb_), nesting_threshold, live,
                               options_fp_);
    if (std::optional<KnowledgeBase> snapshot = cache_.LoadKb(kb_key)) {
      kb_ = std::move(*snapshot);
      return true;
    }
  }
  // Two rounds: the first classifies directly-visible APIs, the second lets
  // wrappers of discovered APIs classify too.
  for (int round = 0; round < 2; ++round) {
    for (const DiscoveryFacts* facts : live) {
      kb_.DiscoverFromFacts(*facts, nesting_threshold);
    }
  }
  if (cache_.enabled() && (parsed == 0 || parsed == live.size())) {
    cache_.StoreKb(kb_key, kb_, "<tree>");
  }
  return false;
}

CachedFileReports ScanSpine::RunCheckStage(size_t i, uint64_t kb_fp) {
  const SourceFile& file = *files_[i];
  FileScanState& st = states_[i];
  CachedFileReports shard;
  if (st.failure) {
    return shard;  // quarantined in stage 1: empty shard, nothing to check
  }
  // One event per non-quarantined file, covering splice and cold check
  // alike (the nested cache.load span distinguishes them in a trace).
  TelemetrySpan file_span("file.check", file.path());
  const bool ok = GuardFileStage(
      file.path(), FailureStage::kCheck, options_.file_timeout_ms,
      [&] {
        if (cache_.enabled()) {
          if (std::optional<CachedFileReports> cached = cache_.LoadReports(st.key, kb_fp)) {
            st.report_hit = true;
            shard = std::move(*cached);
            return;
          }
        }
        MaybeFault("checker.run", file.path());
        TranslationUnit unit;
        if (st.unit.has_value()) {
          unit = std::move(*st.unit);
          st.unit.reset();
        } else {
          // Facts were cached but this file's reports were invalidated
          // (another file changed the KB): re-parse just this file,
          // in-memory.
          unit = ParseFile(file);
          st.parsed = true;
        }
        shard = CheckUnit(file, std::move(unit));
        if (cache_.enabled()) {
          cache_.StoreReports(st.key, kb_fp, shard, file.path());
        }
      },
      st.failure);
  if (!ok) {
    shard = CachedFileReports{};  // discard any partial shard
  }
  return shard;
}

ScanSpine::ScanSpine(const SourceTree& tree, KnowledgeBase seed, ScanOptions options,
                     bool keep_units)
    : tree_(tree),
      options_(std::move(options)),
      kb_(std::move(seed)),
      cache_(MakeScanStore(options_)),
      options_fp_(cache_.enabled() ? ScanOptionsFingerprint(options_) : 0),
      want_facts_(options_.discover_from_source),
      // Streaming never survives interprocedural mode: stage 2.5 needs every
      // AST resident at once, which is exactly what streaming forbids.
      stream_units_(options_.streaming && !options_.interprocedural && !keep_units),
      need_units_((!cache_.enabled() || options_.interprocedural || keep_units) &&
                  !stream_units_),
      pool_(options_.jobs) {
  // Dialect catalogues merge into the seed before any discovery runs, so
  // discovered wrappers classify against them exactly like builtin APIs.
  // Unknown names were rejected at the CLI; here they are simply inert.
  for (const std::string& dialect : options_.dialects) {
    ApplyDialect(kb_, dialect);
  }
  // Files in path order: index i is the fan-out key for both halves, so
  // merge order never depends on thread scheduling.
  files_.reserve(tree.size());
  for (const auto& [path, file] : tree.files()) {
    files_.push_back(&file);
  }
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
  ScanStats& stats = result_.stats;

  // Stage 1: per-file discovery facts — and units where needed — each file
  // inside its sandbox. A throw from the parser (deadline / injected fault)
  // or the cache quarantines that one file and resets its partial state;
  // the rest of the scan never sees it again. A
  // quarantined file stores no cache artifacts, so nothing injection- or
  // wall-clock-dependent can ever be replayed.
  {
    TelemetrySpan stage_span("stage.parse");
    states_ = ParallelMap(pool_, files_.size(),
                          [&](size_t i) { return RunParseStage(*files_[i]); });
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
  stats.kb_snapshot_hits = RunDiscoverStage() ? 1 : 0;

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
      summaries_ = ComputeSummaries(unit_ptrs, kb_, SummaryOptions{}, pool_);
      stats.summarized_functions = summaries_.summaries.size();
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
  stats.discovered_apis = kb_.apis().size();
  stats.discovered_smart_loops = kb_.smart_loops().size();
  stats.refcounted_structs = kb_.refcounted_structs().size();
  return true;
}

bool ScanSpine::RunBack() {
  ScanStats& stats = result_.stats;
  summaries_ = SummaryResult{};  // it points into the units stage 3 frees

  // A file's stage-3 shard is a pure function of (file content, KB,
  // options): fingerprint the KB and the cache can prove a stored shard is
  // still valid. Any content change that altered discovery shifts this
  // fingerprint and invalidates every stored shard at once — the
  // conservative, correct reaction.
  const uint64_t kb_fp = cache_.enabled() ? FingerprintKnowledgeBase(kb_) : 0;

  // Stage 3: build contexts and run the enabled checkers (the KB is
  // read-only; KnowledgeBase lookups are safe for concurrent readers). Each
  // file gets its own shard; cached shards splice in without parsing or
  // checking.
  std::vector<CachedFileReports> shards;
  {
    TelemetrySpan stage_span("stage.check");
    shards = ParallelMap(pool_, files_.size(), [&](size_t i) { return RunCheckStage(i, kb_fp); });
  }
  if (BreakerTrips("")) {
    return false;
  }

  if (cache_.enabled()) {
    for (const FileScanState& st : states_) {
      if (st.failure) {
        continue;  // quarantined files are neither hits nor misses
      }
      ++(st.report_hit ? stats.cache_hits : stats.cache_misses);
      stats.cache_parse_skips += st.parsed ? 0 : 1;
    }
    stats.cache_corrupt = cache_.corrupt_loads();
  }

  // Merge the shards in file order: the concatenation equals what a
  // single-threaded loop produces, so DeduplicateReports (whose tie-breaks
  // are first-seen-wins) yields byte-identical output at any thread count.
  TelemetrySpan merge_span("stage.merge");
  std::vector<BugReport> raw;
  for (size_t i = 0; i < shards.size(); ++i) {
    CachedFileReports& shard = shards[i];
    stats.functions += shard.functions;
    raw.insert(raw.end(), std::make_move_iterator(shard.reports.begin()),
               std::make_move_iterator(shard.reports.end()));
    // Function-granular parse casualties, already in source order within the
    // shard; shards are walked in file order, so the merged list is
    // (file, line)-ordered.
    stats.functions_degraded += shard.degraded.size();
    for (DegradedFunction& d : shard.degraded) {
      result_.degraded_functions.push_back(
          DegradedFunctionReport{files_[i]->path(), std::move(d.name), d.line, std::move(d.what)});
    }
  }
  raw_reports_ = raw.size();
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
  result_.stats.files = files_.size();
  // Quarantined files in tree (path) order — states already are — then any
  // whole-tree stage failures, unless a breaker gave up on the scan.
  for (FileScanState& st : states_) {
    if (st.failure) {
      result_.failures.push_back(std::move(*st.failure));
    }
  }
  if (!result_.aborted) {
    for (FileFailure& f : tree_failures_) {
      result_.failures.push_back(std::move(f));
    }
  }
  result_.stats.files_quarantined = result_.failures.size();
  // --metrics-out carries the scan counters alongside the support-layer
  // ones (load.*, sched.*, fault.*, governor.*).
  if (Telemetry* t = CurrentTelemetry()) {
    MetricsRegistry& reg = t->metrics();
    for (const ScanStatsField& f : ScanStatsFields()) {
      reg.Counter(f.metric).Add(result_.stats.*f.member);
    }
    reg.Counter("scan.raw_reports").Add(raw_reports_);
    reg.Counter("scan.reports").Add(result_.reports.size());
  }
  return std::move(result_);
}

}  // namespace refscan
