// Semantic-template matching DSL.
//
// The paper expresses every anti-pattern as a path template over semantic
// operators (§3.2, Table 1). This module makes that formalism executable:
// a template string is parsed into a step sequence and matched by walking a
// function's CFG (src/cpg/walk.h), so new checkers can be written as
// one-line templates instead of C++.
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
// A template matches a function if *some* path contains the step sequence
// in order (with arbitrary events in between, except across negated steps,
// which forbid their event between their neighbours). "Some path" is
// reachability over (CFG node, next template step) positions: one walk from
// the entry per reachable event of the first event step (the match's line)
// and per spelling the first "(p0)" step can bind (its object), carrying
// the index of the next step as its state —
//   * an event step advances at the first event it matches;
//   * a negated step ends the branch when its event occurs before the next
//     positive step does;
//   * B_error advances at the first error-context node (the node of the
//     previous step's event included);
//   * a step that a negated step follows may also take a later event or
//     error node: the walk forks there, and takes it on one branch and
//     leaves it for a later one on the other;
//   * F_end matches where the branch ends, and F_start holds at the start.

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

// The walk's state is the index of the next step, 0 through steps.size(),
// and a walk state holds fewer than kWalkStates values.
inline constexpr size_t kMaxTemplateSteps = kWalkStates - 1;

// Parses a template string; std::nullopt on syntax errors and on templates
// of more than kMaxTemplateSteps steps.
std::optional<SemanticTemplate> ParseTemplate(std::string_view text);

// True when `ev` is an event of `st`'s kind that passes its API name and
// deviation filters. Whether the event's object fits p0 is the matcher's
// business: StepObject names the object a "(p0)" step binds or compares.
bool StepMatchesEvent(const MatchStep& st, const SemEvent& ev);
Symbol StepObject(const MatchStep& st, const SemEvent& ev);

struct TemplateMatch {
  uint32_t line = 0;        // line of the first bound concrete event
  uint32_t last_line = 0;   // line of the last bound concrete event
  std::string object;       // the p0 binding, if any
  std::string api;          // API of the first refcounting event bound
};

// Matches the template against `fc` by walking its CFG; at most one match
// per distinct (line, object) binding is returned, in walk order of the
// first matched event. A match's last_line is that of the branch the walk
// completes the template on first. Polls the per-file deadline (governor.h)
// once per call and once per walk: one function can take n² walks.
std::vector<TemplateMatch> MatchTemplate(const SemanticTemplate& tmpl, const FunctionContext& fc);

// Runs a template over a whole tree through the scan spine, with template
// matching as stage 3's per-unit check, and produces BugReports
// (anti_pattern = 0, template_path = the template source) deduplicated and
// filtered by `refscan: ignore` like a scan's. Each file is matched inside
// stage 3's sandbox: options.file_timeout_ms and the `checker.run` fault
// site quarantine it like a checked file. The cache locations in `options`
// are ignored. `scan`, when given, receives the rest of the scan's result:
// failures, abort state and stats.
std::vector<BugReport> RunTemplateChecker(const SemanticTemplate& tmpl, const SourceTree& tree,
                                          KnowledgeBase kb = KnowledgeBase::BuiltIn(),
                                          const ScanOptions& options = {},
                                          ScanResult* scan = nullptr);

}  // namespace refscan

#endif  // REFSCAN_CHECKERS_TEMPLATE_MATCHER_H_
