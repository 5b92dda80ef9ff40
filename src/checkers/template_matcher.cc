#include "src/checkers/template_matcher.h"

#include <functional>
#include <set>

#include "src/checkers/scan_stages.h"
#include "src/cpg/cpg.h"
#include "src/support/strings.h"

namespace refscan {

namespace {

struct PathEvent {
  const SemEvent* ev;
  int node;
  size_t path_pos;
};

bool RootsEqual(Symbol a, Symbol b) {
  const Symbol ra = RootSymbol(a);
  return !ra.empty() && ra == RootSymbol(b);
}

// True when `ev` satisfies the (non-negated content of) step `st` under the
// current p0 binding; binds p0 through `p0` when the step introduces it.
bool EventMatches(const MatchStep& st, const SemEvent& ev, Symbol& p0) {
  switch (st.what) {
    case MatchStep::What::kIncrease: {
      if (ev.op != SemOp::kIncrease || ev.api == nullptr) {
        return false;
      }
      if (st.require_returns_error && !ev.api->returns_error) {
        return false;
      }
      if (st.require_returns_null && !ev.api->may_return_null) {
        return false;
      }
      if (st.require_hidden && !ev.api->hidden) {
        return false;
      }
      if (!st.api_filter.empty() && ev.api->name != st.api_filter) {
        return false;
      }
      break;
    }
    case MatchStep::What::kDecrease:
      if (ev.op != SemOp::kDecrease) {
        return false;
      }
      if (!st.api_filter.empty() && (ev.api == nullptr || ev.api->name != st.api_filter)) {
        return false;
      }
      break;
    case MatchStep::What::kDeref:
      if (ev.op != SemOp::kDeref) {
        return false;
      }
      break;
    case MatchStep::What::kAssign:
      if (ev.op != SemOp::kAssign) {
        return false;
      }
      break;
    case MatchStep::What::kEscapeAssign:
      if (ev.op != SemOp::kAssign || !ev.escapes) {
        return false;
      }
      break;
    case MatchStep::What::kLock:
      if (ev.op != SemOp::kLock) {
        return false;
      }
      break;
    case MatchStep::What::kUnlock:
      if (ev.op != SemOp::kUnlock) {
        return false;
      }
      break;
    case MatchStep::What::kFree:
      if (ev.op != SemOp::kFree) {
        return false;
      }
      break;
    case MatchStep::What::kReturn:
      if (ev.op != SemOp::kReturn) {
        return false;
      }
      break;
    case MatchStep::What::kSmartLoop:
      if (ev.op != SemOp::kLoopHead || ev.loop == nullptr) {
        return false;
      }
      break;
    case MatchStep::What::kFunctionStart:
    case MatchStep::What::kFunctionEnd:
    case MatchStep::What::kErrorRegion:
      return false;  // handled structurally, not per-event
  }
  if (st.wants_p0) {
    // Escaping assignments bind/compare via their source object (aux).
    const Symbol object =
        st.what == MatchStep::What::kEscapeAssign && !ev.aux.empty() ? ev.aux : ev.object;
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

}  // namespace

std::optional<SemanticTemplate> ParseTemplate(std::string_view text) {
  SemanticTemplate tmpl;
  tmpl.source = std::string(Trim(text));

  for (std::string_view raw : Split(text, '>')) {
    // Steps are separated by "->"; after splitting on '>' each fragment
    // ends with the '-' of its separator.
    std::string_view token = Trim(raw);
    if (token.ends_with("-")) {
      token.remove_suffix(1);
      token = Trim(token);
    }
    if (token.empty()) {
      return std::nullopt;
    }

    MatchStep step;
    if (token.front() == '!') {
      step.negated = true;
      token.remove_prefix(1);
      token = Trim(token);
    }

    // Optional "(arg)".
    std::string arg;
    const size_t paren = token.find('(');
    if (paren != std::string_view::npos) {
      const size_t close = token.find(')', paren);
      if (close == std::string_view::npos) {
        return std::nullopt;
      }
      arg = std::string(Trim(token.substr(paren + 1, close - paren - 1)));
      token = Trim(token.substr(0, paren));
    }

    if (token == "F_start") {
      step.what = MatchStep::What::kFunctionStart;
    } else if (token == "F_end") {
      step.what = MatchStep::What::kFunctionEnd;
    } else if (token == "B_error") {
      step.what = MatchStep::What::kErrorRegion;
    } else if (token == "M_SL") {
      step.what = MatchStep::What::kSmartLoop;
    } else if (token == "S_G") {
      step.what = MatchStep::What::kIncrease;
    } else if (token == "S_G_E") {
      step.what = MatchStep::What::kIncrease;
      step.require_returns_error = true;
    } else if (token == "S_G_N") {
      step.what = MatchStep::What::kIncrease;
      step.require_returns_null = true;
    } else if (token == "S_G_H") {
      step.what = MatchStep::What::kIncrease;
      step.require_hidden = true;
    } else if (token == "S_P") {
      step.what = MatchStep::What::kDecrease;
    } else if (token == "S_D") {
      step.what = MatchStep::What::kDeref;
    } else if (token == "S_A") {
      step.what = MatchStep::What::kAssign;
    } else if (token == "S_A_GO") {
      step.what = MatchStep::What::kEscapeAssign;
    } else if (token == "S_L") {
      step.what = MatchStep::What::kLock;
    } else if (token == "S_U") {
      step.what = MatchStep::What::kUnlock;
    } else if (token == "S_free") {
      step.what = MatchStep::What::kFree;
    } else if (token == "S_ret") {
      step.what = MatchStep::What::kReturn;
    } else {
      return std::nullopt;
    }

    if (!arg.empty()) {
      if (arg == "p0") {
        step.wants_p0 = true;
      } else {
        step.api_filter = arg;
      }
    }
    tmpl.steps.push_back(std::move(step));
  }

  if (tmpl.steps.empty()) {
    return std::nullopt;
  }
  return tmpl;
}

std::vector<TemplateMatch> MatchTemplate(const SemanticTemplate& tmpl, const FunctionContext& fc,
                                         const ScanOptions& options) {
  std::vector<TemplateMatch> matches;
  std::set<std::string> seen;

  fc.cfg->EnumeratePaths(
      [&](const std::vector<int>& path) {
        // Flatten the path's events.
        std::vector<PathEvent> trace;
        for (size_t p = 0; p < path.size(); ++p) {
          for (const SemEvent& ev : fc.cpg->events(path[p])) {
            trace.push_back(PathEvent{&ev, path[p], p});
          }
        }

        // Negated steps attach as interval constraints before the next
        // positive step.
        struct Positive {
          const MatchStep* step;
          std::vector<const MatchStep*> forbidden_before;
        };
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
          // Trailing negations constrain the interval up to path end; model
          // them as constraints on a synthetic F_end if one is absent.
          positives.push_back(Positive{nullptr, pending_neg});
        }

        // Backtracking match over trace indices.
        std::function<bool(size_t, size_t, Symbol, TemplateMatch&)> match =
            [&](size_t step_idx, size_t trace_idx, Symbol p0, TemplateMatch& out) -> bool {
          auto interval_clean = [&](size_t from, size_t to, Symbol& bound) {
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
          };

          if (step_idx == positives.size()) {
            return true;
          }
          const MatchStep* step = positives[step_idx].step;

          if (step == nullptr || step->what == MatchStep::What::kFunctionEnd) {
            // Constraints run to the end of the path.
            if (!interval_clean(trace_idx, trace.size(), p0)) {
              return false;
            }
            out.object = p0.str();
            return match(step_idx + 1, trace.size(), p0, out);
          }

          if (step->what == MatchStep::What::kFunctionStart) {
            if (!interval_clean(0, trace_idx, p0)) {
              return false;
            }
            return match(step_idx + 1, trace_idx, p0, out);
          }

          if (step->what == MatchStep::What::kErrorRegion) {
            // First node at/after the current position inside error context.
            const size_t from_pos = trace_idx < trace.size() ? trace[trace_idx].path_pos : 0;
            for (size_t p = from_pos; p < path.size(); ++p) {
              if (!fc.cfg->node(path[p]).is_error_context &&
                  !(fc.cfg->node(path[p]).stmt != nullptr &&
                    ReturnsErrorCode(*fc.cfg->node(path[p]).stmt))) {
                continue;
              }
              // Advance the trace cursor to the first event at/after p.
              size_t next_idx = trace_idx;
              while (next_idx < trace.size() && trace[next_idx].path_pos < p) {
                ++next_idx;
              }
              if (!interval_clean(trace_idx, next_idx, p0)) {
                return false;
              }
              if (match(step_idx + 1, next_idx, p0, out)) {
                return true;
              }
              break;  // only the first error region entry is meaningful
            }
            return false;
          }

          // Ordinary event step: try every candidate position.
          for (size_t k = trace_idx; k < trace.size(); ++k) {
            Symbol bound = p0;
            if (!EventMatches(*step, *trace[k].ev, bound)) {
              continue;
            }
            if (!interval_clean(trace_idx, k, p0)) {
              // A forbidden event occurred before this candidate; later
              // candidates only widen the interval, so stop.
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
            if (match(step_idx + 1, k + 1, bound, attempt)) {
              out = attempt;
              return true;
            }
          }
          return false;
        };

        TemplateMatch out;
        if (match(0, 0, Symbol(), out)) {
          const std::string key = StrFormat("%u:%s", out.line, out.object.c_str());
          if (seen.insert(key).second) {
            matches.push_back(out);
          }
        }
      },
      options.max_paths_per_function);

  return matches;
}

namespace {

// The scan spine with template matching as its per-file stage 3, so the
// matches ride the spine's merge, dedup and `refscan: ignore` filter
// exactly like checker reports.
class TemplateScan : public ScanSpine {
 public:
  TemplateScan(const SemanticTemplate& tmpl, const SourceTree& tree, KnowledgeBase kb,
               const ScanOptions& options)
      : ScanSpine(tree, std::move(kb), options, /*keep_units=*/true), tmpl_(tmpl) {}

 protected:
  CachedFileReports CheckFile(const SourceFile& file, FileScanState& st,
                              uint64_t /*kb_fp*/) override {
    CachedFileReports shard;
    if (st.failure) {
      return shard;
    }
    shard.degraded = std::move(st.unit->degraded);
    const UnitContext uc = BuildUnitContext(file, std::move(*st.unit), kb());
    st.unit.reset();
    shard.functions = uc.functions.size();
    for (const FunctionContext& fc : uc.functions) {
      for (const TemplateMatch& m : MatchTemplate(tmpl_, fc, options())) {
        BugReport r;
        r.anti_pattern = 0;  // custom template
        r.impact = Impact::kLeak;
        r.file = uc.unit.path;
        r.function = fc.fn->name.str();
        r.line = m.line;
        r.exit_line = m.last_line;
        r.object = m.object;
        r.api = m.api;
        r.template_path = tmpl_.source;
        r.message = StrFormat("custom template matched: %s", tmpl_.source.c_str());
        shard.reports.push_back(std::move(r));
      }
    }
    return shard;
  }

 private:
  const SemanticTemplate& tmpl_;
};

}  // namespace

std::vector<BugReport> RunTemplateChecker(const SemanticTemplate& tmpl, const SourceTree& tree,
                                          KnowledgeBase kb, const ScanOptions& options,
                                          ScanResult* scan) {
  TemplateScan spine(tmpl, tree, std::move(kb), options);
  if (spine.RunFront()) {
    spine.RunBack();
  }
  ScanResult result = spine.Finish();
  std::vector<BugReport> reports = std::move(result.reports);
  if (scan != nullptr) {
    *scan = std::move(result);
  }
  return reports;
}

}  // namespace refscan
