#include "perfbench/replay.h"

#include <optional>

#include "src/ast/parser.h"
#include "src/cache/cache.h"
#include "src/checkers/analysis.h"
#include "src/ipa/summary.h"
#include "src/lexer/lexer.h"
#include "src/support/threadpool.h"

namespace perfbench {

using namespace refscan;

bool TimedStore::Get(const std::string& name, std::string& blob) {
  bool found = false;
  {
    Span span(&tracer_, "cache.get");
    found = inner_->Get(name, blob);
  }
  if (found) {
    tracer_.Count("cache.bytes_read", static_cast<double>(blob.size()));
  }
  return found;
}

void TimedStore::Put(const std::string& name, std::string_view blob, std::string_view kind_name,
                     std::string_view source) {
  tracer_.Count("cache.bytes_written", static_cast<double>(blob.size()));
  inner_->Put(name, blob, kind_name, source);
}

namespace {

// One file's stage-1 state (FileScanState without the sandbox fields).
struct FileState {
  CacheKey key;
  DiscoveryFacts facts;
  std::optional<TranslationUnit> unit;
};

// The one-line checker signature shared by every per-function checker.
using FunctionChecker = void (*)(const UnitContext&, const FunctionContext&, const KnowledgeBase&,
                                 const ScanOptions&, std::vector<BugReport>&);

struct CheckerSpan {
  int pattern;
  const char* span;
  FunctionChecker check;
};

// CheckOneFile's order (scan_stages.cc): P1-P5, P7-P12 per function, then
// the whole-unit P6.
constexpr CheckerSpan kFunctionCheckers[] = {
    {1, "checkers.p1", CheckReturnError},     {2, "checkers.p2", CheckReturnNull},
    {3, "checkers.p3", CheckSmartLoopBreak},  {4, "checkers.p4", CheckHiddenApi},
    {5, "checkers.p5", CheckErrorHandle},     {7, "checkers.p7", CheckDirectFree},
    {8, "checkers.p8", CheckUseAfterDecrease}, {9, "checkers.p9", CheckReferenceEscape},
    {10, "checkers.p10", CheckRawManipulation}, {11, "checkers.p11", CheckTestAndFree},
    {12, "checkers.p12", CheckRefcountReset},
};

TranslationUnit Parse(const SourceFile& file, Tracer& t) {
  {
    Span span(&t, "lexer.tokenize");
    t.Count("lexer.tokens", static_cast<double>(Tokenize(file).size()));
  }
  Span span(&t, "ast.parse");
  TranslationUnit unit = ParseFile(file);
  t.Count("ast.functions", static_cast<double>(unit.functions.size()));
  t.Count("ast.functions_degraded", static_cast<double>(unit.degraded.size()));
  return unit;
}

// CheckOneFile with BuildUnitContext unrolled, so CFG and CPG construction
// get spans of their own under checkers.context.
void CheckFile(const SourceFile& file, TranslationUnit unit, const KnowledgeBase& kb,
               const ScanOptions& options, Tracer& t, std::vector<BugReport>& raw) {
  UnitContext uc;
  {
    Span span(&t, "checkers.context");
    uc.file = &file;
    uc.unit = std::move(unit);
    for (const FunctionDef& fn : uc.unit.functions) {
      FunctionContext fc;
      fc.unit = &uc.unit;
      fc.fn = &fn;
      {
        Span cfg_span(&t, "cfg.build");
        fc.cfg = std::make_unique<Cfg>(BuildCfg(fn));
      }
      {
        Span cpg_span(&t, "cpg.build");
        fc.cpg = std::make_unique<Cpg>(BuildCpg(*fc.cfg, kb));
      }
      t.Count("cfg.nodes", static_cast<double>(fc.cfg->size()));
      size_t events = 0;
      for (size_t n = 0; n < fc.cpg->size(); ++n) {
        events += fc.cpg->events(static_cast<int>(n)).size();
      }
      t.Count("cpg.events", static_cast<double>(events));
      uc.functions.push_back(std::move(fc));
    }
  }
  const auto& enabled = options.enabled_patterns;
  for (const FunctionContext& fc : uc.functions) {
    {
      // Memoised on the context: the checkers below reuse it.
      Span span(&t, "checkers.acquisitions");
      AnalyzeAcquisitions(fc, options);
    }
    for (const CheckerSpan& c : kFunctionCheckers) {
      if (enabled.contains(c.pattern)) {
        Span span(&t, c.span);
        c.check(uc, fc, kb, options, raw);
      }
    }
  }
  if (enabled.contains(6)) {
    Span span(&t, "checkers.p6");
    CheckInterUnpaired(uc, kb, options, raw);
  }
}

}  // namespace

ReplayResult ReplayScan(const SourceTree& tree, const ScanOptions& options,
                        std::shared_ptr<ObjectStore> store, Tracer& t) {
  ReplayResult result;
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  for (const std::string& dialect : options.dialects) {
    ApplyDialect(kb, dialect);
  }
  ScanCache cache(store == nullptr ? nullptr : std::make_shared<TimedStore>(store, t));
  const bool use_cache = cache.enabled();
  const uint64_t options_fp = use_cache ? ScanOptionsFingerprint(options) : 0;
  const bool want_facts = options.discover_from_source;
  const bool need_units = !use_cache || options.interprocedural;

  std::vector<const SourceFile*> files;
  for (const auto& [path, file] : tree.files()) {
    files.push_back(&file);
  }

  // Stage 1 (RunParseStage): facts, and units where needed, from the
  // cache or from a parse that then fills the cache.
  std::vector<FileState> states(files.size());
  {
    Span stage(&t, "stage.parse");
    for (size_t i = 0; i < files.size(); ++i) {
      const SourceFile& f = *files[i];
      FileState& st = states[i];
      bool done = false;
      if (use_cache) {
        {
          Span span(&t, "cache.key");
          st.key = MakeFileKey(f.path(), f.text(), options_fp);
        }
        if (!need_units) {
          if (!want_facts) {
            done = true;
          } else {
            Span span(&t, "cache.load");
            if (std::optional<DiscoveryFacts> facts = cache.LoadFacts(st.key)) {
              st.facts = std::move(*facts);
              done = true;
            }
          }
        } else {
          {
            Span span(&t, "cache.load");
            if (std::optional<TranslationUnit> unit = cache.LoadUnit(st.key)) {
              st.unit = std::move(*unit);
              done = true;
            }
          }
          if (done && want_facts) {
            Span span(&t, "kb.extract");
            st.facts = ExtractDiscoveryFacts(*st.unit);
          }
        }
      }
      if (done) {
        continue;
      }
      st.unit = Parse(f, t);
      if (want_facts) {
        Span span(&t, "kb.extract");
        st.facts = ExtractDiscoveryFacts(*st.unit);
      }
      if (use_cache) {
        Span span(&t, "cache.put");
        cache.StoreUnit(st.key, *st.unit, f.path());
        if (want_facts) {
          cache.StoreFacts(st.key, st.facts, f.path());
        }
      }
    }
  }

  // Stage 2: the KB snapshot, or two discovery rounds that then fill it.
  if (want_facts) {
    Span stage(&t, "stage.discover");
    bool from_snapshot = false;
    CacheKey kb_key;
    if (use_cache) {
      std::vector<const DiscoveryFacts*> all_facts;
      for (const FileState& st : states) {
        all_facts.push_back(&st.facts);
      }
      {
        Span span(&t, "cache.key");
        kb_key = MakeKbSnapshotKey(FingerprintKnowledgeBase(kb), options.nesting_threshold,
                                   all_facts, options_fp);
      }
      Span span(&t, "cache.load");
      if (std::optional<KnowledgeBase> snapshot = cache.LoadKb(kb_key)) {
        kb = std::move(*snapshot);
        from_snapshot = true;
        t.Count("cache.kb_snapshot_hits", 1);
      }
    }
    if (!from_snapshot) {
      {
        Span span(&t, "kb.discover");
        for (int round = 0; round < 2; ++round) {
          for (const FileState& st : states) {
            kb.DiscoverFromFacts(st.facts, options.nesting_threshold);
          }
        }
      }
      if (use_cache) {
        Span span(&t, "cache.put");
        cache.StoreKb(kb_key, kb, "<tree>");
      }
    }
  }

  // Stage 2.5: interprocedural summaries over every unit.
  if (options.interprocedural) {
    Span span(&t, "ipa.summarize");
    std::vector<const TranslationUnit*> units;
    for (const FileState& st : states) {
      units.push_back(&*st.unit);
    }
    ThreadPool pool(1);
    SummaryOptions sopts;
    sopts.max_paths_per_function = options.max_paths_per_function;
    const SummaryResult summaries = ComputeSummaries(units, kb, sopts, pool);
    t.Count("ipa.summarized_functions", static_cast<double>(summaries.summaries.size()));
  }
  t.Count("kb.apis", static_cast<double>(kb.apis().size()));

  uint64_t kb_fp = 0;
  if (use_cache) {
    Span span(&t, "cache.key");
    kb_fp = FingerprintKnowledgeBase(kb);
  }

  // Stage 3 (RunCheckStage): splice the cached shard or check the file.
  std::vector<BugReport> raw;
  {
    Span stage(&t, "stage.check");
    for (size_t i = 0; i < files.size(); ++i) {
      const SourceFile& f = *files[i];
      FileState& st = states[i];
      if (use_cache) {
        std::optional<CachedFileReports> cached;
        {
          Span span(&t, "cache.load");
          cached = cache.LoadReports(st.key, kb_fp);
        }
        if (cached) {
          t.Count("cache.hits", 1);
          result.functions += static_cast<size_t>(cached->functions);
          result.functions_degraded += cached->degraded.size();
          raw.insert(raw.end(), std::make_move_iterator(cached->reports.begin()),
                     std::make_move_iterator(cached->reports.end()));
          continue;
        }
        t.Count("cache.misses", 1);
      }
      TranslationUnit unit = st.unit ? std::move(*st.unit) : Parse(f, t);
      st.unit.reset();
      CachedFileReports entry;
      entry.degraded = std::move(unit.degraded);
      entry.functions = unit.functions.size();
      const size_t first = raw.size();
      CheckFile(f, std::move(unit), kb, options, t, raw);
      result.functions += static_cast<size_t>(entry.functions);
      result.functions_degraded += entry.degraded.size();
      if (use_cache) {
        Span span(&t, "cache.put");
        entry.reports.assign(raw.begin() + static_cast<std::ptrdiff_t>(first), raw.end());
        cache.StoreReports(st.key, kb_fp, entry, f.path());
      }
    }
  }

  // Merge: dedup, then the `refscan: ignore` suppression filter.
  {
    Span span(&t, "checkers.merge");
    t.Count("checkers.raw_reports", static_cast<double>(raw.size()));
    result.reports = DeduplicateReports(std::move(raw));
    std::erase_if(result.reports, [&tree](const BugReport& r) {
      const SourceFile* file = tree.Find(r.file);
      if (file == nullptr) {
        return false;
      }
      for (uint32_t line : {r.line, r.line > 1 ? r.line - 1 : r.line}) {
        if (file->Line(line).find("refscan: ignore") != std::string_view::npos ||
            file->Line(line).find("refscan:ignore") != std::string_view::npos) {
          return true;
        }
      }
      return false;
    });
    t.Count("checkers.reports", static_cast<double>(result.reports.size()));
  }
  return result;
}

}  // namespace perfbench
