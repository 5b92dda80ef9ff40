// Test-only: the semantic-template matcher over enumerated entry→exit
// paths, the oracle `refscan match`'s CFG walk is checked against.
//
// For each path (tests/path_enumerator.h) it flattens the path's events and
// backtracks over them: every candidate event for each step, negated steps
// as "no such event between the neighbouring positive steps", B_error at
// the first error-context node from the next unmatched event's node on. It
// keeps the first match a path yields, one per (line, object).
//
// Once no event is left on a path, B_error looks from the path's start, so
// it can take an error node before the previous step's event. The walk
// keeps the template's order there and does not match; on the corpora of
// tests/match_walk_test.cc the shape never comes up.

#ifndef REFSCAN_TESTS_PATH_MATCHER_H_
#define REFSCAN_TESTS_PATH_MATCHER_H_

#include <set>
#include <string>
#include <vector>

#include "src/checkers/template_matcher.h"
#include "src/support/strings.h"
#include "tests/path_enumerator.h"

namespace refscan {

namespace path_matcher {

inline bool RootsEqual(Symbol a, Symbol b) {
  const Symbol ra = RootSymbol(a);
  return !ra.empty() && ra == RootSymbol(b);
}

// The step matches `ev` under the p0 binding, binding p0 when unbound.
inline bool EventMatches(const MatchStep& st, const SemEvent& ev, Symbol& p0) {
  if (!StepMatchesEvent(st, ev)) {
    return false;
  }
  if (st.wants_p0) {
    const Symbol object = StepObject(st, ev);
    if (object.empty()) {
      return false;
    }
    if (p0.empty()) {
      p0 = object;
    } else if (!RootsEqual(p0, object)) {
      return false;
    }
  }
  return true;
}

struct TraceEvent {
  const SemEvent* ev;
  size_t path_pos;
};

// A positive step and the negated steps in front of it; a null step stands
// for the path's end after trailing negations.
struct Positive {
  const MatchStep* step;
  std::vector<const MatchStep*> forbidden_before;
};

struct PathMatch {
  const FunctionContext& fc;
  const std::vector<int>& path;
  const std::vector<TraceEvent>& trace;
  const std::vector<Positive>& positives;

  bool IntervalClean(size_t step_idx, size_t from, size_t to, Symbol bound) const {
    for (const MatchStep* neg : positives[step_idx].forbidden_before) {
      for (size_t k = from; k < to && k < trace.size(); ++k) {
        Symbol probe = bound;
        MatchStep positive_view = *neg;
        positive_view.negated = false;
        if (EventMatches(positive_view, *trace[k].ev, probe) &&
            (!neg->wants_p0 || bound.empty() || RootsEqual(probe, bound))) {
          return false;
        }
      }
    }
    return true;
  }

  bool Match(size_t step_idx, size_t trace_idx, Symbol p0, TemplateMatch& out) const {
    if (step_idx == positives.size()) {
      return true;
    }
    const MatchStep* step = positives[step_idx].step;
    if (step == nullptr || step->what == MatchStep::What::kFunctionEnd) {
      if (!IntervalClean(step_idx, trace_idx, trace.size(), p0)) {
        return false;
      }
      out.object = p0.str();
      return Match(step_idx + 1, trace.size(), p0, out);
    }
    if (step->what == MatchStep::What::kFunctionStart) {
      if (!IntervalClean(step_idx, 0, trace_idx, p0)) {
        return false;
      }
      return Match(step_idx + 1, trace_idx, p0, out);
    }
    if (step->what == MatchStep::What::kErrorRegion) {
      const size_t from_pos = trace_idx < trace.size() ? trace[trace_idx].path_pos : 0;
      for (size_t p = from_pos; p < path.size(); ++p) {
        const CfgNode& node = fc.cfg->node(path[p]);
        if (!node.is_error_context && !(node.stmt != nullptr && ReturnsErrorCode(*node.stmt))) {
          continue;
        }
        size_t next_idx = trace_idx;
        while (next_idx < trace.size() && trace[next_idx].path_pos < p) {
          ++next_idx;
        }
        if (!IntervalClean(step_idx, trace_idx, next_idx, p0)) {
          return false;
        }
        return Match(step_idx + 1, next_idx, p0, out);
      }
      return false;
    }
    for (size_t k = trace_idx; k < trace.size(); ++k) {
      Symbol bound = p0;
      if (!EventMatches(*step, *trace[k].ev, bound)) {
        continue;
      }
      if (!IntervalClean(step_idx, trace_idx, k, p0)) {
        return false;
      }
      TemplateMatch attempt = out;
      if (attempt.line == 0) {
        attempt.line = trace[k].ev->line;
        if (trace[k].ev->api != nullptr) {
          attempt.api = trace[k].ev->api->name;
        }
      }
      attempt.last_line = trace[k].ev->line;
      attempt.object = bound.str();
      if (Match(step_idx + 1, k + 1, bound, attempt)) {
        out = attempt;
        return true;
      }
    }
    return false;
  }
};

}  // namespace path_matcher

// Matches `tmpl` against the paths of `fc`; `complete` is false when the
// path budget cut the enumeration short.
inline std::vector<TemplateMatch> MatchTemplateByPaths(const SemanticTemplate& tmpl,
                                                       const FunctionContext& fc,
                                                       size_t max_paths, bool& complete) {
  using path_matcher::Positive;
  std::vector<Positive> positives;
  std::vector<const MatchStep*> pending_neg;
  for (const MatchStep& step : tmpl.steps) {
    if (step.negated) {
      pending_neg.push_back(&step);
      continue;
    }
    positives.push_back(Positive{&step, pending_neg});
    pending_neg.clear();
  }
  if (!pending_neg.empty()) {
    positives.push_back(Positive{nullptr, pending_neg});
  }

  std::vector<TemplateMatch> matches;
  std::set<std::string> seen;
  std::vector<path_matcher::TraceEvent> trace;
  complete = EnumeratePaths(
      *fc.cfg,
      [&](const std::vector<int>& path) {
        trace.clear();
        for (size_t p = 0; p < path.size(); ++p) {
          for (const SemEvent& ev : fc.cpg->events(path[p])) {
            trace.push_back(path_matcher::TraceEvent{&ev, p});
          }
        }
        const path_matcher::PathMatch m{fc, path, trace, positives};
        TemplateMatch out;
        if (m.Match(0, 0, Symbol(), out) &&
            seen.insert(StrFormat("%u:%s", out.line, out.object.c_str())).second) {
          matches.push_back(out);
        }
      },
      max_paths);
  return matches;
}

}  // namespace refscan

#endif  // REFSCAN_TESTS_PATH_MATCHER_H_
