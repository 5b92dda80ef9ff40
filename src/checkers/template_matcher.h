// Semantic-template matching DSL.
//
// The paper expresses every anti-pattern as a path template over semantic
// operators (§3.2, Table 1). This module makes that formalism executable:
// a template string is parsed into a step sequence and matched against the
// enumerated execution paths of a function, so new checkers can be written
// as one-line templates instead of C++.
//
// Grammar (ASCII rendering of the paper's notation):
//
//   template := step (" -> " step)*
//   step     := "F_start" | "F_end"                  function entry / exit
//             | "S_G" ["(" api ")"]                  increase; api filter optional
//             | "S_G_E" | "S_G_N" | "S_G_H"          deviant/hidden increases
//             | "S_P" ["(" obj ")"]                  decrease
//             | "S_D" ["(" obj ")"]                  dereference
//             | "S_A"                                assignment (escaping if "S_A_GO")
//             | "S_L" | "S_U"                        lock / unlock
//             | "S_free"                             kfree-style deallocation
//             | "S_ret"                              any return
//             | "B_error"                            an error-context region is entered
//             | "M_SL"                               a smartloop head
//             | "!S_P" ["(" obj ")"]                 negation: no decrease between the
//                                                    surrounding steps (also !S_G, !S_D)
//
//   The pseudo-argument "p0" unifies objects: every step carrying "(p0)"
//   must bind to the same symbolic object, e.g. the paper's Listing 2
//   template  "F_start -> S_P(p0) -> S_D(p0) -> F_end".
//
// A template matches a function if *some* enumerated path contains the step
// sequence in order (with arbitrary events in between, except across
// negated steps, which forbid their event between their neighbours).

#ifndef REFSCAN_CHECKERS_TEMPLATE_MATCHER_H_
#define REFSCAN_CHECKERS_TEMPLATE_MATCHER_H_

#include <optional>
#include <string>
#include <vector>

#include "src/checkers/engine.h"

namespace refscan {

// One parsed template step.
struct MatchStep {
  enum class What : uint8_t {
    kFunctionStart,
    kFunctionEnd,
    kIncrease,
    kDecrease,
    kDeref,
    kAssign,
    kEscapeAssign,
    kLock,
    kUnlock,
    kFree,
    kReturn,
    kErrorRegion,
    kSmartLoop,
  };
  What what = What::kFunctionStart;
  bool negated = false;    // "!S_P": the event must NOT occur between neighbours
  bool wants_p0 = false;   // "(p0)": unify with the template's bound object
  std::string api_filter;  // "(name)" with a non-p0 identifier: API name filter
  // Deviation filters for kIncrease.
  bool require_returns_error = false;  // S_G_E
  bool require_returns_null = false;   // S_G_N
  bool require_hidden = false;         // S_G_H
};

struct SemanticTemplate {
  std::string source;            // the original template text
  std::vector<MatchStep> steps;  // parsed steps
};

// Parses a template string; std::nullopt on syntax errors.
std::optional<SemanticTemplate> ParseTemplate(std::string_view text);

struct TemplateMatch {
  uint32_t line = 0;        // line of the first bound concrete event
  uint32_t last_line = 0;   // line of the last bound concrete event
  std::string object;       // the p0 binding, if any
  std::string api;          // API of the first refcounting event bound
};

// Matches the template against every enumerated path of `fc`; at most one
// match per distinct (line, object) binding is returned.
std::vector<TemplateMatch> MatchTemplate(const SemanticTemplate& tmpl, const FunctionContext& fc,
                                         const ScanOptions& options);

// Runs a template over a whole tree through the scan spine, with template
// matching as its per-file stage 3, and produces BugReports (anti_pattern =
// 0, template_path = the template source) deduplicated and filtered by
// `refscan: ignore` like a scan's. `scan`, when given, receives the rest
// of the scan's result: failures, abort state and stats.
std::vector<BugReport> RunTemplateChecker(const SemanticTemplate& tmpl, const SourceTree& tree,
                                          KnowledgeBase kb = KnowledgeBase::BuiltIn(),
                                          const ScanOptions& options = {},
                                          ScanResult* scan = nullptr);

}  // namespace refscan

#endif  // REFSCAN_CHECKERS_TEMPLATE_MATCHER_H_
