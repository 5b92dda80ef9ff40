#include "src/checkers/scan_stages.h"

#include <chrono>
#include <cstring>
#include <thread>

#include "src/cache/store.h"
#include "src/support/faultinject.h"
#include "src/support/governor.h"
#include "src/support/strings.h"
#include "src/support/telemetry.h"

namespace refscan {

namespace {

// Runs every enabled checker over one file's contexts, appending raw
// reports to the shard. The caller owns the shard exclusively; the KB is
// immutable and read concurrently.
FileShard CheckOneFile(const SourceFile& file, TranslationUnit unit, const KnowledgeBase& kb,
                       const ScanOptions& options) {
  FileShard shard;
  // Quarantined function bodies ride along with the shard (and, via
  // StoreReports, with the cache entry): parsing is deterministic, so the
  // list is identical whichever process or scan produced the unit.
  shard.degraded = std::move(unit.degraded);
  const UnitContext uc = BuildUnitContext(file, std::move(unit), kb);
  shard.functions = uc.functions.size();

  const auto& enabled = options.enabled_patterns;
  for (const FunctionContext& fc : uc.functions) {
    CheckDeadline("checker");
    if (enabled.contains(1)) {
      CheckReturnError(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(2)) {
      CheckReturnNull(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(3)) {
      CheckSmartLoopBreak(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(4)) {
      CheckHiddenApi(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(5)) {
      CheckErrorHandle(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(7)) {
      CheckDirectFree(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(8)) {
      CheckUseAfterDecrease(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(9)) {
      CheckReferenceEscape(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(10)) {
      CheckRawManipulation(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(11)) {
      CheckTestAndFree(uc, fc, kb, options, shard.raw);
    }
    if (enabled.contains(12)) {
      CheckRefcountReset(uc, fc, kb, options, shard.raw);
    }
  }
  if (enabled.contains(6)) {
    CheckInterUnpaired(uc, kb, options, shard.raw);
  }
  return shard;
}

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
    } catch (const ResourceLimitError& e) {
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

void WriteScanOptionsWire(ByteWriter& w, const ScanOptions& o) {
  w.U64(o.max_paths_per_function);
  w.I32(o.nesting_threshold);
  w.Bool(o.discover_from_source);
  w.U32(static_cast<uint32_t>(o.enabled_patterns.size()));
  for (const int p : o.enabled_patterns) {
    w.I32(p);
  }
  w.U32(static_cast<uint32_t>(o.dialects.size()));
  for (const std::string& d : o.dialects) {
    w.Str(d);
  }
  w.U64(o.jobs);
  w.Str(o.cache_dir);
  w.Str(o.cache_server);
  w.Bool(o.prune_null_branches);
  w.Bool(o.model_ownership_transfer);
  w.Bool(o.interprocedural);
  w.Str(o.fault_spec);
  w.U32(o.file_timeout_ms);
  w.U64(o.max_file_bytes);
  w.U64(o.max_ast_nodes);
  w.I32(o.max_ast_depth);
  uint64_t ratio_bits = 0;
  static_assert(sizeof(ratio_bits) == sizeof(o.max_failure_ratio));
  std::memcpy(&ratio_bits, &o.max_failure_ratio, sizeof(ratio_bits));
  w.U64(ratio_bits);
  w.Bool(o.streaming);
}

bool ReadScanOptionsWire(ByteReader& r, ScanOptions& o) {
  o.max_paths_per_function = static_cast<size_t>(r.U64());
  o.nesting_threshold = r.I32();
  o.discover_from_source = r.Bool();
  o.enabled_patterns.clear();
  const uint32_t npatterns = r.Count();
  for (uint32_t i = 0; r.ok() && i < npatterns; ++i) {
    o.enabled_patterns.insert(r.I32());
  }
  o.dialects.clear();
  const uint32_t ndialects = r.Count();
  for (uint32_t i = 0; r.ok() && i < ndialects; ++i) {
    o.dialects.push_back(r.Str());
  }
  o.jobs = static_cast<size_t>(r.U64());
  o.cache_dir = r.Str();
  o.cache_server = r.Str();
  o.prune_null_branches = r.Bool();
  o.model_ownership_transfer = r.Bool();
  o.interprocedural = r.Bool();
  o.fault_spec = r.Str();
  o.file_timeout_ms = r.U32();
  o.max_file_bytes = static_cast<size_t>(r.U64());
  o.max_ast_nodes = static_cast<size_t>(r.U64());
  o.max_ast_depth = r.I32();
  const uint64_t ratio_bits = r.U64();
  std::memcpy(&o.max_failure_ratio, &ratio_bits, sizeof(ratio_bits));
  o.streaming = r.Bool();
  return r.ok();
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
  // Parser caps from the governor options. max_ast_depth replaces the
  // silent flatten-at-200 with a hard (quarantining) cap.
  if (options.max_ast_depth > 0) {
    ctx.popts.max_depth = options.max_ast_depth;
    ctx.popts.depth_fatal = true;
  }
  ctx.popts.max_nodes = options.max_ast_nodes;
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
        if (options.max_file_bytes > 0 && f.text().size() > options.max_file_bytes) {
          throw ResourceLimitError(
              StrFormat("input size %zu exceeds cap %zu", f.text().size(), options.max_file_bytes));
        }
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
        st.unit = ParseFile(f, ctx.popts);
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

FileShard RunCheckStage(const SourceFile& file, FileScanState& st, const KnowledgeBase& kb,
                        uint64_t kb_fp, const ScanStageContext& ctx) {
  const ScanOptions& options = *ctx.options;
  ScanCache& cache = *ctx.cache;
  FileShard shard;
  if (st.failure) {
    return shard;  // quarantined in stage 1: empty shard, nothing to check
  }
  // One event per non-quarantined file, covering splice and cold check
  // alike (the nested cache.load span distinguishes them in a trace).
  TelemetrySpan file_span("file.check", file.path());
  // Retrying is only safe until the body moves the cached TranslationUnit
  // into CheckOneFile — after that a retry would re-check a moved-from
  // unit and silently produce wrong output, so the body revokes it.
  bool retry_ok = true;
  const bool ok = GuardFileStage(
      file.path(), FailureStage::kCheck, options.file_timeout_ms, retry_ok,
      [&] {
        shard = FileShard{};
        if (ctx.use_cache) {
          if (std::optional<CachedFileReports> cached = cache.LoadReports(st.key, kb_fp)) {
            st.report_hit = true;
            shard.raw = std::move(cached->reports);
            shard.functions = static_cast<size_t>(cached->functions);
            shard.degraded = std::move(cached->degraded);
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
          unit = ParseFile(file, ctx.popts);
          st.parsed = true;
        }
        shard = CheckOneFile(file, std::move(unit), kb, options);
        if (ctx.use_cache) {
          CachedFileReports entry;
          entry.reports = shard.raw;
          entry.functions = shard.functions;
          entry.degraded = shard.degraded;
          cache.StoreReports(st.key, kb_fp, entry, file.path());
        }
      },
      st.failure, st.retried);
  if (!ok) {
    shard = FileShard{};  // discard any partial shard
  }
  return shard;
}

}  // namespace refscan
