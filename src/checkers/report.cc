#include "src/checkers/report.h"

#include <algorithm>
#include <map>

#include "src/support/strings.h"

namespace refscan {

std::string_view ImpactName(Impact impact) {
  switch (impact) {
    case Impact::kLeak:
      return "Leak";
    case Impact::kUaf:
      return "UAF";
    case Impact::kNpd:
      return "NPD";
  }
  return "?";
}

std::string BugReport::Key() const {
  return StrFormat("%s:%s:%u:%s", file.c_str(), function.c_str(), line, object.c_str());
}

std::vector<BugReport> DeduplicateReports(std::vector<BugReport> reports) {
  // Same site (file/function/line/object): keep the lowest-numbered pattern
  // (P1 is more specific than P5, etc.).
  std::map<std::string, BugReport> by_site;
  for (BugReport& r : reports) {
    const std::string key = r.Key();
    auto it = by_site.find(key);
    if (it == by_site.end()) {
      by_site.emplace(key, std::move(r));
    } else if (r.anti_pattern < it->second.anti_pattern) {
      it->second = std::move(r);
    }
  }
  std::vector<BugReport> out;
  out.reserve(by_site.size());
  for (auto& [key, r] : by_site) {
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(),
            [](const BugReport& a, const BugReport& b) {
              if (a.file != b.file) {
                return a.file < b.file;
              }
              if (a.line != b.line) {
                return a.line < b.line;
              }
              return a.object < b.object;
            });
  return out;
}

std::string ReportsToJson(const std::vector<BugReport>& reports) {
  std::string out = "[\n";
  for (size_t i = 0; i < reports.size(); ++i) {
    const BugReport& r = reports[i];
    out += "  {";
    out += "\"anti_pattern\": " + std::to_string(r.anti_pattern) + ", ";
    out += "\"impact\": ";
    AppendJsonString(out, ImpactName(r.impact));
    out += ", \"file\": ";
    AppendJsonString(out, r.file);
    out += StrFormat(", \"line\": %u", r.line);
    if (r.exit_line > 0) {
      out += StrFormat(", \"exit_line\": %u", r.exit_line);
    }
    out += ", \"function\": ";
    AppendJsonString(out, r.function);
    out += ", \"api\": ";
    AppendJsonString(out, r.api);
    out += ", \"object\": ";
    AppendJsonString(out, r.object);
    out += ", \"template\": ";
    AppendJsonString(out, r.template_path);
    out += ", \"message\": ";
    AppendJsonString(out, r.message);
    out += "}";
    if (i + 1 < reports.size()) {
      out += ",";
    }
    out += "\n";
  }
  out += "]\n";
  return out;
}

}  // namespace refscan
