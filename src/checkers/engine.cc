#include "src/checkers/engine.h"

#include <charconv>

#include "src/checkers/scan_stages.h"
#include "src/support/strings.h"

namespace refscan {

std::string_view FailureStageName(FailureStage stage) {
  switch (stage) {
    case FailureStage::kLoad:
      return "load";
    case FailureStage::kParse:
      return "parse";
    case FailureStage::kCheck:
      return "check";
    case FailureStage::kSummarize:
      return "summarize";
  }
  return "unknown";
}

std::string_view FailureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::kIo:
      return "io";
    case FailureKind::kParse:
      return "parse";
    case FailureKind::kResourceLimit:
      return "resource-limit";
    case FailureKind::kInternal:
      return "internal";
  }
  return "unknown";
}

void FunctionContext::Rebuild(const TranslationUnit& owner, const FunctionDef& function,
                              const KnowledgeBase& kb) {
  unit = &owner;
  fn = &function;
  if (cfg == nullptr) {
    cfg = std::make_unique<Cfg>();
  }
  if (cpg == nullptr) {
    cpg = std::make_unique<Cpg>();
  }
  RebuildCfg(*cfg, function);
  RebuildCpg(*cpg, *cfg, kb);
  // The walk stays bound to the same Cfg and Cpg objects.
  if (walk) {
    walk->Relist();
  }
  acquisition_cache.Invalidate();
}

UnitContext BuildUnitContext(const SourceFile& file, TranslationUnit unit,
                             const KnowledgeBase& kb) {
  UnitContext uc;
  uc.file = &file;
  uc.unit = std::move(unit);
  for (const FunctionDef& fn : uc.unit.functions) {
    uc.functions.emplace_back().Rebuild(uc.unit, fn, kb);
  }
  return uc;
}

CheckerEngine::CheckerEngine(KnowledgeBase kb, ScanOptions options)
    : seed_(std::move(kb)), options_(std::move(options)) {}

ScanResult CheckerEngine::Scan(const SourceTree& tree) {
  // Every scan starts from a copy of the seed: discovery never leaks one
  // tree's APIs into the next scan.
  ScanSpine spine(tree, seed_, options_);
  if (spine.RunFront()) {
    spine.RunBack();
  }
  return spine.Finish();
}

ScanResult CheckerEngine::ScanFileText(std::string path, std::string text) {
  SourceTree tree;
  tree.Add(std::move(path), std::move(text));
  return Scan(tree);
}

const std::vector<ScanStatsField>& ScanStatsFields() {
  // JSON keys keep their historical names ("quarantined"); the metric names
  // carry the struct's fuller spelling under the scan. prefix.
  static const auto* fields = new std::vector<ScanStatsField>{
      {"files", "scan.files", &ScanStats::files},
      {"functions", "scan.functions", &ScanStats::functions},
      {"discovered_apis", "scan.discovered_apis", &ScanStats::discovered_apis},
      {"discovered_smart_loops", "scan.discovered_smart_loops",
       &ScanStats::discovered_smart_loops},
      {"refcounted_structs", "scan.refcounted_structs", &ScanStats::refcounted_structs},
      {"summarized_functions", "scan.summarized_functions", &ScanStats::summarized_functions},
      {"quarantined", "scan.files_quarantined", &ScanStats::files_quarantined},
      {"functions_degraded", "scan.functions_degraded", &ScanStats::functions_degraded},
      {"cache_hits", "scan.cache_hits", &ScanStats::cache_hits},
      {"cache_misses", "scan.cache_misses", &ScanStats::cache_misses},
      {"cache_parse_skips", "scan.cache_parse_skips", &ScanStats::cache_parse_skips},
      {"cache_corrupt", "scan.cache_corrupt", &ScanStats::cache_corrupt},
      {"kb_snapshot_hits", "scan.kb_snapshot_hits", &ScanStats::kb_snapshot_hits},
  };
  return *fields;
}

int ScanExitCodeFor(const ScanResult& result) {
  if (result.aborted) {
    return kExitHardFailure;
  }
  if (!result.failures.empty() || !result.degraded_functions.empty()) {
    return kExitDegraded;
  }
  return result.reports.empty() ? kExitClean : kExitReports;
}

std::string ScanResultToJson(const ScanResult& result, bool include_stats) {
  std::string out = "{\n\"reports\": ";
  std::string reports = ReportsToJson(result.reports);
  if (!reports.empty() && reports.back() == '\n') {
    reports.pop_back();
  }
  out += reports;
  out += ",\n\"degraded\": [";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    const FileFailure& f = result.failures[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"path\": ";
    AppendJsonString(out, f.path);
    out += ", \"stage\": ";
    AppendJsonString(out, FailureStageName(f.stage));
    out += ", \"kind\": ";
    AppendJsonString(out, FailureKindName(f.kind));
    out += ", \"what\": ";
    AppendJsonString(out, f.what);
    out += "}";
  }
  if (!result.failures.empty()) {
    out += "\n";
  }
  out += "]";
  out += ",\n\"degraded_functions\": [";
  for (size_t i = 0; i < result.degraded_functions.size(); ++i) {
    const DegradedFunctionReport& d = result.degraded_functions[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"file\": ";
    AppendJsonString(out, d.file);
    out += ", \"function\": ";
    AppendJsonString(out, d.function);
    out += StrFormat(", \"line\": %u, \"what\": ", d.line);
    AppendJsonString(out, d.what);
    out += "}";
  }
  if (!result.degraded_functions.empty()) {
    out += "\n";
  }
  out += "]";
  if (result.aborted) {
    out += ",\n\"aborted\": true,\n\"abort_reason\": ";
    AppendJsonString(out, result.abort_reason);
  }
  if (include_stats) {
    // Driven by the field table so every ScanStats member appears — adding
    // a field to the struct without listing it here is impossible.
    out += ",\n\"stats\": {";
    const std::vector<ScanStatsField>& fields = ScanStatsFields();
    for (size_t i = 0; i < fields.size(); ++i) {
      out += StrFormat("%s\"%s\": %zu", i == 0 ? "" : ", ", fields[i].json_key,
                       result.stats.*fields[i].member);
    }
    out += "}";
  }
  out += "\n}\n";
  return out;
}

bool ParsePatternList(std::string_view text, std::set<int>& out) {
  std::set<int> parsed;
  while (!text.empty()) {
    const size_t comma = text.find(',');
    const std::string_view item = text.substr(0, comma);
    int value = 0;
    const auto [ptr, ec] = std::from_chars(item.data(), item.data() + item.size(), value);
    if (ec != std::errc() || ptr != item.data() + item.size() || value < 1 || value > 12) {
      return false;
    }
    parsed.insert(value);
    if (comma == std::string_view::npos) {
      break;
    }
    text.remove_prefix(comma + 1);
  }
  if (parsed.empty()) {
    return false;
  }
  out = std::move(parsed);
  return true;
}

}  // namespace refscan
