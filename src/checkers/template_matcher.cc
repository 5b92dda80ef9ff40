#include "src/checkers/template_matcher.h"

#include <algorithm>
#include <array>
#include <set>

#include "src/checkers/scan_stages.h"
#include "src/cpg/cpg.h"
#include "src/support/governor.h"
#include "src/support/strings.h"

namespace refscan {

bool StepMatchesEvent(const MatchStep& st, const SemEvent& ev) {
  const auto api_ok = [&] {
    return st.api_filter.empty() || (ev.api != nullptr && ev.api->name == st.api_filter);
  };
  switch (st.what) {
    case MatchStep::What::kIncrease:
      return ev.op == SemOp::kIncrease && ev.api != nullptr && api_ok() &&
             (!st.require_returns_error || ev.api->returns_error) &&
             (!st.require_returns_null || ev.api->may_return_null) &&
             (!st.require_hidden || ev.api->hidden);
    case MatchStep::What::kDecrease:
      return ev.op == SemOp::kDecrease && api_ok();
    case MatchStep::What::kDeref:
      return ev.op == SemOp::kDeref;
    case MatchStep::What::kAssign:
      return ev.op == SemOp::kAssign;
    case MatchStep::What::kEscapeAssign:
      return ev.op == SemOp::kAssign && ev.escapes;
    case MatchStep::What::kLock:
      return ev.op == SemOp::kLock;
    case MatchStep::What::kUnlock:
      return ev.op == SemOp::kUnlock;
    case MatchStep::What::kFree:
      return ev.op == SemOp::kFree;
    case MatchStep::What::kReturn:
      return ev.op == SemOp::kReturn;
    case MatchStep::What::kSmartLoop:
      return ev.op == SemOp::kLoopHead && ev.loop != nullptr;
    case MatchStep::What::kFunctionStart:
    case MatchStep::What::kFunctionEnd:
    case MatchStep::What::kErrorRegion:
      break;  // handled structurally, not per-event
  }
  return false;
}

Symbol StepObject(const MatchStep& st, const SemEvent& ev) {
  // Escaping assignments bind/compare via their source object (aux).
  return st.what == MatchStep::What::kEscapeAssign && !ev.aux.empty() ? ev.aux : ev.object;
}

namespace {

struct StepName {
  std::string_view name;
  MatchStep::What what;
};

constexpr StepName kStepNames[] = {
    {"F_start", MatchStep::What::kFunctionStart}, {"F_end", MatchStep::What::kFunctionEnd},
    {"B_error", MatchStep::What::kErrorRegion},   {"M_SL", MatchStep::What::kSmartLoop},
    {"S_G", MatchStep::What::kIncrease},          {"S_G_E", MatchStep::What::kIncrease},
    {"S_G_N", MatchStep::What::kIncrease},        {"S_G_H", MatchStep::What::kIncrease},
    {"S_P", MatchStep::What::kDecrease},          {"S_D", MatchStep::What::kDeref},
    {"S_A", MatchStep::What::kAssign},            {"S_A_GO", MatchStep::What::kEscapeAssign},
    {"S_L", MatchStep::What::kLock},              {"S_U", MatchStep::What::kUnlock},
    {"S_free", MatchStep::What::kFree},           {"S_ret", MatchStep::What::kReturn},
};

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

    const auto known = std::find_if(std::begin(kStepNames), std::end(kStepNames),
                                    [token](const StepName& n) { return n.name == token; });
    if (known == std::end(kStepNames)) {
      return std::nullopt;
    }
    step.what = known->what;
    step.require_returns_error = known->name == "S_G_E";
    step.require_returns_null = known->name == "S_G_N";
    step.require_hidden = known->name == "S_G_H";

    if (!arg.empty()) {
      if (arg == "p0") {
        step.wants_p0 = true;
      } else {
        step.api_filter = arg;
      }
    }
    tmpl.steps.push_back(std::move(step));
  }

  if (tmpl.steps.empty() || tmpl.steps.size() > kMaxTemplateSteps) {
    return std::nullopt;
  }
  return tmpl;
}

namespace {

bool RootsEqual(Symbol a, Symbol b) {
  const Symbol ra = RootSymbol(a);
  return !ra.empty() && ra == RootSymbol(b);
}

bool IsStructural(const MatchStep& st) {
  return st.what == MatchStep::What::kFunctionStart ||
         st.what == MatchStep::What::kFunctionEnd || st.what == MatchStep::What::kErrorRegion;
}

bool IsErrorNode(const CfgNode& n) {
  return n.is_error_context || (n.stmt != nullptr && ReturnsErrorCode(*n.stmt));
}

// One template walked from the entry with one start event and one p0
// binding. The walk state is the index of the first step not yet matched:
// the negated steps from there to the next positive step end the branch,
// and that positive step advances it. The first event step advances only
// at `start`, the step that binds p0 (`binder`) only at an object spelled
// exactly `p0`, and the later "(p0)" steps at objects of its root.
//
// Taking the first event or error node a step matches is best for the
// negations in front of the step and for the steps after it, but not for
// negations right after it: those want the step taken as late as
// possible. So where a negation follows a step, the walk forks at each
// event or error node the step matches, taking it on one branch and
// leaving it for a later one on the other.
class TemplateWalk : public WalkVisitor {
 public:
  TemplateWalk(const std::vector<MatchStep>& steps, const FunctionContext& fc,
               const SemEvent* start, size_t first, size_t binder, Symbol p0)
      : steps_(steps), fc_(fc), start_(start), first_(first), binder_(binder), p0_(p0) {}

  // The entry is never an error node, so nothing forks here.
  WalkState Begin() { return Settle(0, fc_.cfg->entry(), 0); }

  WalkStep Event(int node, const SemEvent& ev, WalkState& state) {
    if (done_) {
      return WalkStep::kStop;
    }
    const size_t next = Positive(state);
    if (next < steps_.size() && !IsStructural(steps_[next]) && Advances(next, ev)) {
      const auto after = static_cast<uint32_t>(&ev - fc_.cpg->events(node).data()) + 1;
      // The start event is the first step's only event: no later one.
      if (next != first_ && NegationFollows(next) && !Forbidden(ev, state, next)) {
        fc_.Walk().Fork(node, after, state);
      }
      last_line_[next + 1] = ev.line;
      state = Settle(next + 1, node, after);
      return Complete(state) ? WalkStep::kStop : WalkStep::kContinue;
    }
    return Forbidden(ev, state, next) ? WalkStep::kStop : WalkStep::kContinue;
  }

  bool Edge(int node, size_t succ, WalkState& state) {
    if (done_) {
      return false;
    }
    state = Settle(state, fc_.cfg->succs(node)[succ], 0);
    return !Complete(state);
  }

  // F_end holds where a branch ends, and so do trailing negations.
  void End(WalkState state) {
    size_t s = state;
    for (size_t p = Positive(s); !done_; p = Positive(s)) {
      if (p < steps_.size() && steps_[p].what != MatchStep::What::kFunctionEnd &&
          steps_[p].what != MatchStep::What::kFunctionStart) {
        return;
      }
      s = std::min(p + 1, steps_.size());
      last_line_[s] = last_line_[state];
      Complete(static_cast<WalkState>(s));
    }
  }

  // Whether a branch matched every step, and the line of the last event
  // the first branch that did matched.
  bool done() const { return done_; }
  uint32_t last_line() const { return last_line_[steps_.size()]; }

 private:
  bool Complete(WalkState state) {
    done_ = done_ || state == steps_.size();
    return done_;
  }

  // Index of the first positive step at or after `s`.
  size_t Positive(size_t s) const {
    while (s < steps_.size() && steps_[s].negated) {
      ++s;
    }
    return s;
  }

  bool NegationFollows(size_t p) const { return p + 1 < steps_.size() && steps_[p + 1].negated; }

  // Advances over the structural steps that hold at event `index` of
  // `node`: F_start, and B_error when `node` is an error context. F_end
  // waits for End.
  WalkState Settle(size_t s, int node, uint32_t index) {
    for (size_t p = Positive(s); p < steps_.size(); p = Positive(s)) {
      const MatchStep::What what = steps_[p].what;
      const bool error_here =
          what == MatchStep::What::kErrorRegion && IsErrorNode(fc_.cfg->node(node));
      if (what != MatchStep::What::kFunctionStart && !error_here) {
        break;
      }
      if (error_here && NegationFollows(p)) {
        fc_.Walk().Fork(node, index, static_cast<WalkState>(s));
      }
      last_line_[p + 1] = last_line_[s];
      s = p + 1;
    }
    return static_cast<WalkState>(s);
  }

  bool Advances(size_t p, const SemEvent& ev) const {
    const MatchStep& st = steps_[p];
    if ((p == first_ && &ev != start_) || !StepMatchesEvent(st, ev)) {
      return false;
    }
    const Symbol object = StepObject(st, ev);
    return !st.wants_p0 ||
           (!object.empty() && (p == binder_ ? object == p0_ : RootsEqual(p0_, object)));
  }

  // Whether a negated step from `state` up to positive step `next` forbids
  // `ev`. A negated "(p0)" step forbids any object until p0 is bound.
  bool Forbidden(const SemEvent& ev, size_t state, size_t next) const {
    for (size_t n = state; n < next; ++n) {
      const MatchStep& neg = steps_[n];
      const Symbol object = StepObject(neg, ev);
      if (StepMatchesEvent(neg, ev) &&
          (!neg.wants_p0 ||
           (!object.empty() && (state <= binder_ || RootsEqual(p0_, object))))) {
        return true;
      }
    }
    return false;
  }

  const std::vector<MatchStep>& steps_;
  const FunctionContext& fc_;
  const SemEvent* start_;
  size_t first_;
  size_t binder_;
  Symbol p0_;
  bool done_ = false;
  // Per state, the line of the last event the current branch matched. A
  // branch only ever raises its state, and a fork goes on only after every
  // branch its creator's choice led to, so the entries at or below the
  // current state always belong to the current branch.
  std::array<uint32_t, kWalkStates> last_line_{};
};

}  // namespace

std::vector<TemplateMatch> MatchTemplate(const SemanticTemplate& tmpl, const FunctionContext& fc) {
  CheckDeadline("matcher");
  const std::vector<MatchStep>& steps = tmpl.steps;
  // The first event step, and the first "(p0)" one, which binds p0;
  // steps.size() for none.
  size_t first = steps.size();
  size_t binder = steps.size();
  for (size_t i = steps.size(); i-- > 0;) {
    if (!steps[i].negated && !IsStructural(steps[i])) {
      first = i;
      binder = steps[i].wants_p0 ? i : binder;
    }
  }
  // A match starts at an event of the first event step and binds p0 to a
  // spelling the binder can take: the start event's own when the first
  // event step is the binder.
  CfgWalk& walk = fc.Walk();
  std::vector<const WalkPos*> starts;
  std::vector<Symbol> bindings;
  for (const WalkPos& at : walk.ReachableEvents()) {
    if (first < steps.size() && StepMatchesEvent(steps[first], *at.ev)) {
      starts.push_back(&at);
    }
    const Symbol object = binder < steps.size() ? StepObject(steps[binder], *at.ev) : Symbol();
    if (binder != first && !object.empty() && StepMatchesEvent(steps[binder], *at.ev) &&
        std::find(bindings.begin(), bindings.end(), object) == bindings.end()) {
      bindings.push_back(object);
    }
  }
  if (first == steps.size()) {
    starts.push_back(nullptr);
  }
  if (binder == steps.size()) {
    bindings.push_back(Symbol());
  }
  // Each positive event step after the first takes a reachable event: one
  // on p0's root when it is a "(p0)" step after the binder. Only the
  // spellings every such step can take are walked.
  const auto feasible = [&](Symbol p0) {
    for (size_t p = first + 1; p < steps.size(); ++p) {
      const auto takes = [&](const WalkPos& at) {
        return StepMatchesEvent(steps[p], *at.ev) &&
               (!steps[p].wants_p0 || RootsEqual(p0, StepObject(steps[p], *at.ev)));
      };
      if (!steps[p].negated && !IsStructural(steps[p]) && p != binder &&
          std::none_of(walk.ReachableEvents().begin(), walk.ReachableEvents().end(), takes)) {
        return false;
      }
    }
    return true;
  };
  std::erase_if(bindings, [&feasible](Symbol p0) { return !feasible(p0); });

  std::vector<TemplateMatch> matches;
  std::set<std::string> seen;
  const auto match = [&](const WalkPos* at, Symbol p0) {
    CheckDeadline("matcher");  // one function can take n² walks
    TemplateWalk tw(steps, fc, at == nullptr ? nullptr : at->ev, first, binder, p0);
    walk.Run(fc.cfg->entry(), 0, tw.Begin(), tw);
    if (!tw.done()) {
      return;
    }
    TemplateMatch m;
    m.line = at == nullptr ? 0 : at->ev->line;
    m.last_line = tw.last_line();
    m.object = p0.str();
    if (at != nullptr && at->ev->api != nullptr) {
      m.api = at->ev->api->name;
    }
    if (seen.insert(StrFormat("%u:%s", m.line, m.object.c_str())).second) {
      matches.push_back(std::move(m));
    }
  };
  for (const WalkPos* at : starts) {
    if (at != nullptr && binder == first) {
      const Symbol p0 = StepObject(steps[first], *at->ev);
      if (!p0.empty() && feasible(p0)) {
        match(at, p0);
      }
      continue;
    }
    for (const Symbol p0 : bindings) {
      match(at, p0);
    }
  }
  return matches;
}

namespace {

// The scan spine with template matching as its per-unit check, so the
// matches ride the spine's stage-3 sandbox (deadline, `checker.run` fault
// site, per-file quarantine), merge, dedup and `refscan: ignore` filter
// exactly like checker reports.
class TemplateScan : public ScanSpine {
 public:
  TemplateScan(const SemanticTemplate& tmpl, const SourceTree& tree, KnowledgeBase kb,
               const ScanOptions& options)
      : ScanSpine(tree, std::move(kb), options), tmpl_(tmpl) {}

 protected:
  // Matches one function at a time through one FunctionContext rebuilt in
  // place, as CheckOneFile does; MatchTemplate polls the deadline.
  CachedFileReports CheckUnit(const SourceFile& /*file*/, TranslationUnit unit) override {
    CachedFileReports shard;
    shard.degraded = std::move(unit.degraded);
    shard.functions = unit.functions.size();
    FunctionContext fc;
    for (const FunctionDef& fn : unit.functions) {
      fc.Rebuild(unit, fn, kb());
      for (const TemplateMatch& m : MatchTemplate(tmpl_, fc)) {
        BugReport r;
        r.anti_pattern = 0;  // custom template
        r.impact = Impact::kLeak;
        r.file = unit.path;
        r.function = fn.name.str();
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
  // Matches never meet the cache: a stored shard holds checker reports, and
  // splicing one in would pass those off as matches.
  ScanOptions local = options;
  local.cache_dir.clear();
  local.object_store = nullptr;
  TemplateScan spine(tmpl, tree, std::move(kb), local);
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
