#include "src/checkers/deviations.h"

#include <algorithm>

#include "src/checkers/scan_stages.h"
#include "src/support/strings.h"

namespace refscan {

std::string_view DeviationKindName(DeviationKind kind) {
  switch (kind) {
    case DeviationKind::kReturnError:
      return "Return-Error";
    case DeviationKind::kReturnNull:
      return "Return-NULL";
  }
  return "?";
}

namespace {

// Every deviant API the unit defines, in definition order.
void CollectDeviations(const TranslationUnit& unit, const KnowledgeBase& kb,
                       std::vector<DeviationReport>& reports) {
  for (const FunctionDef& fn : unit.functions) {
    const RefApiInfo* api = kb.FindApi(fn.name);
    if (api == nullptr || api->direction != RefDirection::kIncrease) {
      continue;
    }
    auto base = [&](DeviationKind kind) {
      DeviationReport report;
      report.kind = kind;
      report.api = fn.name.str();
      report.file = unit.path;
      report.line = fn.line;
      report.hidden = api->hidden;
      return report;
    };
    if (api->returns_error) {
      DeviationReport report = base(DeviationKind::kReturnError);
      report.note = StrFormat(
          "%s() raises the refcount before it can fail; every caller must decrement on "
          "*all* paths, including the error path",
          fn.name.c_str());
      reports.push_back(std::move(report));
    }
    if (api->may_return_null) {
      DeviationReport report = base(DeviationKind::kReturnNull);
      report.note = StrFormat("%s() hands back the object pointer, which may be NULL; "
                              "callers must check before dereferencing",
                              fn.name.c_str());
      reports.push_back(std::move(report));
    }
  }
}

}  // namespace

std::vector<DeviationReport> DetectDeviations(const SourceTree& tree, const ScanOptions& options,
                                              ScanResult* scan) {
  ScanSpine spine(tree, KnowledgeBase::BuiltIn(), options, /*keep_units=*/true);
  std::vector<DeviationReport> reports;
  if (spine.RunFront()) {
    for (const FileScanState& st : spine.states()) {
      if (!st.failure) {
        CollectDeviations(*st.unit, spine.kb(), reports);
      }
    }
  }
  ScanResult result = spine.Finish();
  if (scan != nullptr) {
    *scan = std::move(result);
  }
  std::sort(reports.begin(), reports.end(),
            [](const DeviationReport& a, const DeviationReport& b) {
              if (a.file != b.file) {
                return a.file < b.file;
              }
              return a.line < b.line;
            });
  return reports;
}

}  // namespace refscan
