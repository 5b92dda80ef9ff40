#include "src/baselines/baselines.h"

#include <deque>
#include <map>
#include <optional>
#include <set>

#include "src/checkers/engine.h"
#include "src/checkers/scan_stages.h"
#include "src/cpg/cpg.h"

namespace refscan {

namespace {

// Function-level refcounting profile shared by the baselines.
struct FunctionProfile {
  const UnitContext* unit = nullptr;
  const FunctionContext* fc = nullptr;
  // Per-object counts over all events (flow-insensitive, like the simple
  // strategies these baselines model).
  std::map<std::string, int> increments;
  std::map<std::string, int> decrements;
  std::map<std::string, int> escapes;     // escaping assignments per object
  std::map<std::string, uint32_t> first_inc_line;
  std::map<std::string, std::string> inc_api;
};

FunctionProfile ProfileFunction(const UnitContext& uc, const FunctionContext& fc) {
  FunctionProfile profile;
  profile.unit = &uc;
  profile.fc = &fc;
  for (size_t node = 0; node < fc.cpg->size(); ++node) {
    for (const SemEvent& ev : fc.cpg->events(static_cast<int>(node))) {
      if (ev.object.empty()) {
        continue;
      }
      const std::string root = RootSymbol(ev.object).str();
      switch (ev.op) {
        case SemOp::kIncrease:
          profile.increments[root]++;
          if (!profile.first_inc_line.contains(root)) {
            profile.first_inc_line[root] = ev.line;
            profile.inc_api[root] = ev.api != nullptr ? ev.api->name : "";
          }
          break;
        case SemOp::kDecrease:
          profile.decrements[root]++;
          break;
        case SemOp::kAssign:
          if (ev.escapes && !ev.aux.empty()) {
            profile.escapes[RootSymbol(ev.aux).str()]++;
          }
          break;
        default:
          break;
      }
    }
  }
  return profile;
}

BaselineReport MakeReport(const char* checker, const FunctionProfile& profile,
                          const std::string& object) {
  BaselineReport report;
  report.checker = checker;
  report.file = profile.unit->unit.path;
  report.function = profile.fc->fn->name.str();
  report.object = object;
  auto line = profile.first_inc_line.find(object);
  report.line = line != profile.first_inc_line.end() ? line->second : profile.fc->fn->line;
  auto api = profile.inc_api.find(object);
  report.api = api != profile.inc_api.end() ? api->second : "";
  return report;
}

}  // namespace

BaselineResult RunBaselines(const SourceTree& tree, KnowledgeBase kb) {
  // The scan spine's front half: the engine's parse and discovery. Without
  // a cache or streaming, every healthy file's unit stays resident.
  ScanSpine spine(tree, std::move(kb), ScanOptions{});
  spine.RunFront();
  std::deque<UnitContext> contexts;
  for (size_t i = 0; i < spine.files().size(); ++i) {
    std::optional<TranslationUnit>& unit = spine.states()[i].unit;
    if (unit) {
      contexts.push_back(BuildUnitContext(*spine.files()[i], std::move(*unit), spine.kb()));
    }
  }

  std::deque<FunctionProfile> profiles;
  for (const UnitContext& uc : contexts) {
    for (const FunctionContext& fc : uc.functions) {
      profiles.push_back(ProfileFunction(uc, fc));
    }
  }

  BaselineResult result;

  // ---- Paired consistency (RID-style): inc count > dec count anywhere in
  // the function is an inconsistency.
  for (const FunctionProfile& profile : profiles) {
    for (const auto& [object, incs] : profile.increments) {
      const auto dec = profile.decrements.find(object);
      const int decs = dec != profile.decrements.end() ? dec->second : 0;
      if (incs > decs) {
        result.paired_consistency.push_back(MakeReport("paired-consistency", profile, object));
      }
    }
  }

  // ---- Escape invariant (LinKRID-style): #escapes must equal #increments
  // for every object that participates in refcounting.
  for (const FunctionProfile& profile : profiles) {
    std::set<std::string> objects;
    for (const auto& [object, n] : profile.increments) {
      objects.insert(object);
    }
    for (const auto& [object, n] : profile.escapes) {
      objects.insert(object);
    }
    for (const std::string& object : objects) {
      const auto inc = profile.increments.find(object);
      const auto esc = profile.escapes.find(object);
      const int incs = inc != profile.increments.end() ? inc->second : 0;
      const int escs = esc != profile.escapes.end() ? esc->second : 0;
      // Locally released references are exempt from the invariant.
      const auto dec = profile.decrements.find(object);
      const int decs = dec != profile.decrements.end() ? dec->second : 0;
      if (incs - decs != escs && incs > 0) {
        result.escape_invariant.push_back(MakeReport("escape-invariant", profile, object));
      }
    }
  }

  // ---- Cross-check: per acquiring API, observe the majority call-site
  // behaviour (released in-function or not) and flag minority sites.
  struct SiteInfo {
    const FunctionProfile* profile;
    std::string object;
    bool released;
  };
  std::map<std::string, std::vector<SiteInfo>> sites_by_api;
  for (const FunctionProfile& profile : profiles) {
    for (const auto& [object, api] : profile.inc_api) {
      if (api.empty()) {
        continue;
      }
      const auto dec = profile.decrements.find(object);
      const bool released = dec != profile.decrements.end() && dec->second > 0;
      sites_by_api[api].push_back(SiteInfo{&profile, object, released});
    }
  }
  for (const auto& [api, sites] : sites_by_api) {
    if (sites.size() < 3) {
      continue;  // not enough evidence for a majority vote
    }
    int released = 0;
    for (const SiteInfo& site : sites) {
      released += site.released ? 1 : 0;
    }
    const bool majority_releases = released * 2 > static_cast<int>(sites.size());
    for (const SiteInfo& site : sites) {
      if (majority_releases && !site.released) {
        result.cross_check.push_back(MakeReport("cross-check", *site.profile, site.object));
      }
    }
  }

  return result;
}

}  // namespace refscan
