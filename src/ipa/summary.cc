#include "src/ipa/summary.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "src/cfg/cfg.h"
#include "src/cpg/cpg.h"
#include "src/cpg/walk.h"
#include "src/support/strings.h"

namespace refscan {

namespace {

// Summary walks (DESIGN.md §5.7). Each walks the function from its entry
// (src/cpg/walk.h) with the net 𝒢−𝒫 of the roots it counts, and whether the
// last counted 𝒢 may return NULL, as its state. A net count that leaves
// ±kRange enters kUnknown and stays there: the branch's delta is unknown
// from then on, and no fact a summary injects is read from it. A branch
// ends at the return that reaches the exit, which gives its path class, or
// at the exit itself (normal class). On an acyclic CFG the walk meets the
// (class, delta) results in the order entry→exit paths first produce them,
// so "the first path of a class" keeps its meaning; a loop is walked for
// any number of laps.
constexpr int kRange = 15;
constexpr WalkState kUnknown = (2 * kRange + 1) * 2;
static_assert(kUnknown < kWalkStates);

WalkState Pack(int delta, bool nullable) {
  return delta < -kRange || delta > kRange
             ? kUnknown
             : static_cast<WalkState>((delta + kRange) * 2 + (nullable ? 1 : 0));
}

std::optional<int> Delta(WalkState state) {
  return state == kUnknown ? std::nullopt : std::optional<int>(state / 2 - kRange);
}

// Walks from the entry counting the roots `counts` accepts;
// `observe(node, ev, delta, nullable)` sees each event once counted, and
// `observe(-1, nullptr, ...)` each branch that ends without a return.
template <typename Counts, typename Observe>
void WalkDeltas(CfgWalk& walk, const Cfg& cfg, const Counts& counts, const Observe& observe) {
  struct Visitor : WalkVisitor {
    const Counts& counts;
    const Observe& observe;
    WalkStep Event(int node, const SemEvent& ev, WalkState& state) {
      if ((ev.op == SemOp::kIncrease || ev.op == SemOp::kDecrease) && state != kUnknown &&
          counts(RootSymbol(ev.object))) {
        const bool inc = ev.op == SemOp::kIncrease;
        const bool nullable = inc ? ev.api != nullptr && ev.api->may_return_null : (state & 1) != 0;
        state = Pack(*Delta(state) + (inc ? 1 : -1), nullable);
      }
      observe(node, &ev, Delta(state), (state & 1) != 0);
      return ev.op == SemOp::kReturn ? WalkStep::kStop : WalkStep::kContinue;
    }
    void End(WalkState state) { observe(-1, nullptr, Delta(state), (state & 1) != 0); }
  };
  Visitor visitor{{}, counts, observe};
  walk.Run(cfg.entry(), 0, Pack(0, false), visitor);
}

// A branch's path class, read at its return: error when the return sits in
// an error context, returns an error code, or returns the raw result of a
// returns-error API. The last rule is what propagates 𝒢_E through `return
// helper();` chains, which the textual discovery pass (literal `return
// -EINVAL` forms only) can never see.
bool IsErrorReturn(const CfgNode& ret, const KnowledgeBase& kb) {
  if (ret.is_error_context || (ret.stmt != nullptr && ReturnsErrorCode(*ret.stmt))) {
    return true;
  }
  if (ret.expr == nullptr || ret.expr->kind != Expr::Kind::kCall) {
    return false;
  }
  const RefApiInfo* callee = kb.FindApi(ret.expr->CalleeName());
  return callee != nullptr && callee->returns_error;
}

// One branch's path class (true: error) and delta at its end.
using ClassDelta = std::pair<bool, std::optional<int>>;

// A class reached with an unknown delta reports 0 if that was its first
// result, and is inconsistent.
void MergeClass(std::optional<int> delta, bool& saw, int& value, bool& consistent) {
  if (!saw) {
    saw = true;
    value = delta.value_or(0);
    consistent = delta.has_value();
  } else if (delta != value) {
    consistent = false;
  }
}

// Folds a parameter's walk results into its summary in the order the walk
// first met them: a class reports its first delta and is consistent when
// it reached no other, and 𝒢_E latches when an error class starts at +1.
void MergeParam(const std::vector<ClassDelta>& results, ParamSummary& ps, FunctionSummary& s) {
  for (const auto& [is_error, d] : results) {
    if (is_error) {
      MergeClass(d, ps.saw_error, ps.error_delta, ps.error_consistent);
      if (ps.error_consistent && ps.error_delta >= 1) {
        s.error_increment = true;
      }
    } else {
      MergeClass(d, ps.saw_normal, ps.normal_delta, ps.normal_consistent);
    }
  }
}

// The Cfg, Cpg and walk one thread summarises every function in, rebuilt
// in place per function as stage 3's FunctionContext is.
struct SummaryScratch {
  Cfg cfg;
  Cpg cpg;
  std::optional<CfgWalk> walk;
};

FunctionSummary SummarizeFunction(const CallGraphNode& node, const KnowledgeBase& kb) {
  const FunctionDef& fn = *node.fn;
  FunctionSummary s;
  s.name = node.name;
  s.file = node.unit->path;
  s.line = fn.line;
  s.returns_pointer = fn.return_type.view().find('*') != std::string_view::npos;
  std::vector<Symbol> param_syms;
  param_syms.reserve(fn.params.size());
  for (const Param& p : fn.params) {
    ParamSummary ps;
    ps.name = p.name.str();
    s.params.push_back(std::move(ps));
    param_syms.push_back(p.name);
  }
  if (fn.body == nullptr) {
    return s;
  }

  // Explicit `return NULL` anywhere makes the returned pointer nullable
  // regardless of which path class it sits on.
  ForEachStmt(*fn.body, [&s](const Stmt& st) {
    if (st.kind == Stmt::Kind::kReturn && st.expr != nullptr &&
        st.expr->kind == Expr::Kind::kIdent && st.expr->value == "NULL") {
      s.may_return_null = true;
    }
  });

  thread_local SummaryScratch scratch;
  RebuildCfg(scratch.cfg, fn);
  RebuildCpg(scratch.cpg, scratch.cfg, kb);
  if (scratch.walk) {
    scratch.walk->Relist();
  } else {
    scratch.walk.emplace(scratch.cfg, scratch.cpg);
  }
  const Cfg& cfg = scratch.cfg;
  const Cpg& cpg = scratch.cpg;
  CfgWalk& walk = *scratch.walk;
  SymbolSet param_roots;
  for (const Symbol p : param_syms) {
    if (!p.empty()) {
      param_roots.insert(p);
    }
  }

  // What single reachable events decide, with no walk; which roots some
  // 𝒢/𝒫 counts; and the roots the returns hand back.
  SymbolSet counted;
  bool counts_globals = false;
  std::vector<Symbol> returned;
  // Per CFG node: a return that hands back an acquired reference on some
  // branch.
  std::vector<char> acquiring(cfg.size(), 0);
  for (const WalkPos& at : walk.ReachableEvents()) {
    const SemEvent& ev = *at.ev;
    const Symbol root = RootSymbol(ev.object);
    const CfgNode& cn = cfg.node(at.node);
    if ((ev.op == SemOp::kIncrease || ev.op == SemOp::kDecrease) && !root.empty()) {
      counted.insert(root);
      counts_globals |= !param_roots.contains(root) && !cpg.locals().contains(root);
    } else if (ev.op == SemOp::kDeref || (ev.op == SemOp::kAssign && ev.escapes)) {
      const Symbol target = ev.op == SemOp::kDeref ? root : RootSymbol(ev.aux);
      for (size_t p = 0; p < s.params.size(); ++p) {
        bool& fact = ev.op == SemOp::kDeref ? s.params[p].derefed : s.params[p].escapes;
        fact |= !target.empty() && param_syms[p] == target;
      }
    } else if (ev.op == SemOp::kReturn && !root.empty()) {
      if (std::find(returned.begin(), returned.end(), root) == returned.end()) {
        returned.push_back(root);
      }
    } else if (ev.op == SemOp::kReturn && cn.expr != nullptr &&
               cn.expr->kind == Expr::Kind::kCall) {
      // `return of_find_...();` hands back the callee's reference, and
      // `return refcount_dec_and_test(...);` relays the zero-test to the
      // caller, so the wrapper inherits dec_and_test semantics.
      if (const RefApiInfo* callee = kb.FindApi(cn.expr->CalleeName())) {
        if (callee->direction == RefDirection::kIncrease && callee->returns_object) {
          s.returns_acquired = true;
          s.may_return_null |= callee->may_return_null;
          acquiring[static_cast<size_t>(at.node)] = 1;
        }
        s.tests_zero |= callee->direction == RefDirection::kDecrease && callee->tests_zero;
      }
    }
  }

  // One walk per counted root r: its (class, delta) results, a deref of r
  // after it netted below 0, and a return of r holding +1 — which makes
  // that return acquiring. A root nothing counts ends every branch at 0, as
  // the walk of the empty root does.
  SymbolSet consumed;
  const auto walk_root = [&](Symbol r) {
    std::vector<ClassDelta> results;
    const auto counts = [r](Symbol root) { return !root.empty() && root == r; };
    WalkDeltas(walk, cfg, counts, [&](int n, const SemEvent* ev, std::optional<int> d,
                                      bool nullable) {
      if (ev != nullptr && ev->op == SemOp::kDeref && d.value_or(0) < 0 &&
          counts(RootSymbol(ev->object))) {
        for (size_t p = 0; p < s.params.size(); ++p) {
          s.params[p].deref_after_put |= param_syms[p] == r;
        }
      }
      if (ev != nullptr && ev->op != SemOp::kReturn) {
        return;
      }
      const ClassDelta result{ev != nullptr && IsErrorReturn(cfg.node(n), kb), d};
      if (std::find(results.begin(), results.end(), result) == results.end()) {
        results.push_back(result);
      }
      if (ev != nullptr && d.value_or(0) > 0 && counts(RootSymbol(ev->object))) {
        s.returns_acquired = true;
        s.may_return_null |= nullable;
        acquiring[static_cast<size_t>(n)] = 1;
      }
      // consumed_param: a parameter netting -1 or less at a return that
      // hands back an acquired reference on some branch (a find-like
      // wrapper consuming its cursor, of_find_*(from)).
      if (ev != nullptr && d.value_or(0) <= -1 && acquiring[static_cast<size_t>(n)] != 0) {
        consumed.insert(r);
      }
    });
    return results;
  };
  // Returned roots first: they mark the acquiring returns the parameter
  // walks test.
  for (const Symbol r : returned) {
    if (counted.contains(r)) {
      walk_root(r);
    }
  }
  const std::vector<ClassDelta> uncounted = walk_root(Symbol());
  for (size_t p = 0; p < s.params.size(); ++p) {
    const Symbol r = param_syms[p];
    MergeParam(counted.contains(r) ? walk_root(r) : uncounted, s.params[p], s);
    if (s.consumed_param < 0 && consumed.contains(r)) {
      s.consumed_param = static_cast<int>(p);
    }
  }

  // Escaped-global effect: the first normal-class branch whose deltas on
  // roots that are neither parameters nor locals sum to a known non-zero.
  if (counts_globals) {
    const auto globals = [&](Symbol root) {
      return !root.empty() && !param_roots.contains(root) && !cpg.locals().contains(root);
    };
    WalkDeltas(walk, cfg, globals, [&](int n, const SemEvent* ev, std::optional<int> d, bool) {
      const bool normal_end =
          ev == nullptr || (ev->op == SemOp::kReturn && !IsErrorReturn(cfg.node(n), kb));
      if (normal_end && d.value_or(0) != 0 && s.global_delta == 0) {
        s.global_delta = *d;
      }
    });
  }
  return s;
}

// The delta a caller can rely on: normal-class paths when any exist (an
// error-class cleanup difference is a deviation flag, not a different
// direction), else error-class paths (`return get_helper();` has no
// normal-class path at all).
int PrimaryDelta(const ParamSummary& ps, bool& consistent) {
  if (ps.saw_normal) {
    consistent = ps.normal_consistent;
    return ps.normal_delta;
  }
  if (ps.saw_error) {
    consistent = ps.error_consistent;
    return ps.error_delta;
  }
  consistent = false;
  return 0;
}

// Folds one summary into the KB. `own` tracks names this summary stage
// registered itself, which may be overwritten on the second iteration over
// a recursive SCC; built-in entries are untouched and discovery-registered
// entries only gain deviation flags the textual pass cannot infer.
void InjectSummary(FunctionSummary& s, KnowledgeBase& kb, std::set<std::string>& own,
                   SummaryResult& out) {
  // Candidate API shape.
  const bool returns_acquired_object = s.returns_pointer && s.returns_acquired;
  int inc_param = -1;
  int dec_param = -1;
  for (size_t i = 0; i < s.params.size(); ++i) {
    bool consistent = false;
    const int d = PrimaryDelta(s.params[i], consistent);
    if (!consistent) {
      continue;
    }
    if (d >= 1 && inc_param < 0) {
      inc_param = static_cast<int>(i);
    }
    if (d <= -1 && dec_param < 0) {
      dec_param = static_cast<int>(i);
    }
  }

  RefApiInfo* existing = kb.FindApiMutable(s.name);
  if (existing != nullptr && !own.contains(s.name)) {
    if (!existing->discovered || existing->direction != RefDirection::kIncrease) {
      return;
    }
    // Refinement: fields mutate in place (entry addresses are stable), and
    // every flag only ever turns on, so the SCC fixpoint is monotone.
    bool changed = false;
    if (!existing->returns_object && s.error_increment && !existing->returns_error) {
      existing->returns_error = true;
      changed = true;
    }
    if (existing->returns_object && s.may_return_null && !existing->may_return_null) {
      existing->may_return_null = true;
      changed = true;
    }
    if (existing->consumed_param < 0 && s.consumed_param >= 0) {
      existing->consumed_param = s.consumed_param;
      changed = true;
    }
    if (changed) {
      s.registered = true;
      ++out.upgraded_apis;
    }
    return;
  }

  if (returns_acquired_object || inc_param >= 0 || dec_param >= 0) {
    RefApiInfo info;
    info.name = s.name;
    if (returns_acquired_object || inc_param >= 0) {
      info.direction = RefDirection::kIncrease;
      info.returns_object = returns_acquired_object;
      info.object_param = returns_acquired_object ? -1 : inc_param;
      info.may_return_null = returns_acquired_object && s.may_return_null;
      info.returns_error = !returns_acquired_object && s.error_increment;
      info.consumed_param = s.consumed_param;
    } else {
      info.direction = RefDirection::kDecrease;
      info.object_param = dec_param;
      info.tests_zero = s.tests_zero;
    }
    info.hidden = !NameSoundsLikeRefcounting(info.name);
    info.category = info.hidden ? ApiCategory::kEmbedded : ApiCategory::kSpecific;
    info.discovered = true;
    kb.AddApi(std::move(info));
    if (own.insert(s.name).second) {
      ++out.registered_apis;
    }
    s.registered = true;
    return;
  }

  // Not a refcounting API: publish deref and escape facts for plain
  // helpers so call sites grow synthetic 𝒟 / escaping 𝒜 events.
  std::vector<int> derefs;
  int sink_param = -1;
  for (size_t i = 0; i < s.params.size(); ++i) {
    if (s.params[i].derefed) {
      derefs.push_back(static_cast<int>(i));
    }
    if (s.params[i].escapes && sink_param < 0) {
      sink_param = static_cast<int>(i);
    }
  }
  if (!derefs.empty() && kb.FindParamDerefs(s.name) == nullptr) {
    kb.AddParamDerefs(s.name, std::move(derefs));
    s.registered = true;
    ++out.registered_derefs;
  }
  if (sink_param >= 0 && kb.FindOwnershipSink(s.name) < 0) {
    kb.AddOwnershipSink(s.name, sink_param);
    s.registered = true;
    ++out.registered_sinks;
  }
}

}  // namespace

SummaryResult ComputeSummaries(const std::vector<const TranslationUnit*>& units,
                               KnowledgeBase& kb, const SummaryOptions& /*options*/,
                               ThreadPool& pool) {
  SummaryResult out;
  out.graph = BuildCallGraph(units);
  const CallGraph& g = out.graph;
  out.summaries.resize(g.nodes.size());

  // SCCs grouped by bottom-up level; levels run callees-first so a
  // wrapper's helpers are already folded into the KB when it is summarised.
  std::vector<std::vector<int>> sccs_by_level(static_cast<size_t>(g.levels));
  for (size_t scc = 0; scc < g.sccs.size(); ++scc) {
    const int level = g.nodes[static_cast<size_t>(g.sccs[scc][0])].level;
    sccs_by_level[static_cast<size_t>(level)].push_back(static_cast<int>(scc));
  }

  std::set<std::string> own;
  for (std::vector<int>& level_sccs : sccs_by_level) {
    std::vector<int> work;
    bool has_cycle = false;
    for (const int scc : level_sccs) {
      const std::vector<int>& members = g.sccs[static_cast<size_t>(scc)];
      has_cycle |= members.size() > 1;
      for (const int n : members) {
        const CallGraphNode& cn = g.nodes[static_cast<size_t>(n)];
        has_cycle |= std::binary_search(cn.callees.begin(), cn.callees.end(), n);
        work.push_back(n);
      }
    }
    std::sort(work.begin(), work.end());

    // Nodes on one level never call each other, so their summaries only
    // read the (frozen) KB and can run in parallel; registration stays
    // serial in node order, which keeps the KB — and every report built
    // from it — deterministic. Recursive SCCs get one extra iteration: the
    // second pass sees the first pass's own registrations and settles the
    // monotone deviation flags.
    const int iterations = has_cycle ? 2 : 1;
    for (int iteration = 0; iteration < iterations; ++iteration) {
      std::vector<FunctionSummary> computed =
          ParallelMap(pool, work.size(), [&](size_t i) {
            return SummarizeFunction(g.nodes[static_cast<size_t>(work[i])], kb);
          });
      for (size_t i = 0; i < work.size(); ++i) {
        FunctionSummary& s = out.summaries[static_cast<size_t>(work[i])];
        s = std::move(computed[i]);
        InjectSummary(s, kb, own, out);
      }
    }
  }
  return out;
}

namespace {

bool SummaryIsInteresting(const FunctionSummary& s) {
  if (s.registered || s.returns_acquired || s.error_increment || s.may_return_null ||
      s.consumed_param >= 0 || s.global_delta != 0) {
    return true;
  }
  for (const ParamSummary& ps : s.params) {
    if (ps.normal_delta != 0 || ps.error_delta != 0 || ps.derefed || ps.escapes) {
      return true;
    }
  }
  return false;
}

std::string DeltaText(const ParamSummary& ps) {
  std::string out;
  if (ps.saw_normal) {
    out += StrFormat("normal%s%+d", ps.normal_consistent ? "=" : "~", ps.normal_delta);
  }
  if (ps.saw_error) {
    if (!out.empty()) {
      out += " ";
    }
    out += StrFormat("error%s%+d", ps.error_consistent ? "=" : "~", ps.error_delta);
  }
  if (out.empty()) {
    out = "no paths";
  }
  return out;
}

}  // namespace

std::string SummariesToJson(const SummaryResult& result) {
  const CallGraph& g = result.graph;
  std::string out = "{\n";
  out += StrFormat(
      "  \"callgraph\": {\"functions\": %zu, \"direct_edges\": %zu, "
      "\"indirect_edges\": %zu, \"sccs\": %zu, \"levels\": %d, \"nodes\": [\n",
      g.nodes.size(), g.direct_edges, g.indirect_edges, g.sccs.size(), g.levels);
  for (size_t i = 0; i < g.nodes.size(); ++i) {
    const CallGraphNode& node = g.nodes[i];
    out += "    {\"name\": ";
    AppendJsonString(out, node.name);
    out += ", \"file\": ";
    AppendJsonString(out, node.unit->path);
    out += StrFormat(", \"line\": %u, \"scc\": %d, \"level\": %d, \"callees\": [",
                     node.fn->line, node.scc, node.level);
    for (size_t c = 0; c < node.callees.size(); ++c) {
      if (c > 0) {
        out += ", ";
      }
      AppendJsonString(out, g.nodes[static_cast<size_t>(node.callees[c])].name);
    }
    out += "]}";
    out += i + 1 < g.nodes.size() ? ",\n" : "\n";
  }
  out += "  ]},\n  \"summaries\": [\n";
  for (size_t i = 0; i < result.summaries.size(); ++i) {
    const FunctionSummary& s = result.summaries[i];
    out += "    {\"name\": ";
    AppendJsonString(out, s.name);
    out += ", \"file\": ";
    AppendJsonString(out, s.file);
    out += StrFormat(", \"line\": %u, \"params\": [", s.line);
    for (size_t p = 0; p < s.params.size(); ++p) {
      const ParamSummary& ps = s.params[p];
      if (p > 0) {
        out += ", ";
      }
      out += "{\"name\": ";
      AppendJsonString(out, ps.name);
      out += StrFormat(
          ", \"normal_delta\": %d, \"normal_consistent\": %s, \"error_delta\": %d, "
          "\"error_consistent\": %s, \"derefed\": %s, \"deref_after_put\": %s, "
          "\"escapes\": %s}",
          ps.saw_normal ? ps.normal_delta : 0, ps.normal_consistent ? "true" : "false",
          ps.saw_error ? ps.error_delta : 0, ps.error_consistent ? "true" : "false",
          ps.derefed ? "true" : "false", ps.deref_after_put ? "true" : "false",
          ps.escapes ? "true" : "false");
    }
    out += StrFormat(
        "], \"returns_acquired\": %s, \"may_return_null\": %s, \"error_increment\": %s, "
        "\"consumed_param\": %d, \"global_delta\": %d, \"registered\": %s}",
        s.returns_acquired ? "true" : "false", s.may_return_null ? "true" : "false",
        s.error_increment ? "true" : "false", s.consumed_param, s.global_delta,
        s.registered ? "true" : "false");
    out += i + 1 < result.summaries.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string SummariesToText(const SummaryResult& result) {
  const CallGraph& g = result.graph;
  std::string out = StrFormat(
      "call graph: %zu functions, %zu direct + %zu fn-pointer edges, %zu SCCs over %d "
      "levels\n"
      "injected: %zu new APIs, %zu flag upgrades, %zu deref facts, %zu ownership sinks\n\n",
      g.nodes.size(), g.direct_edges, g.indirect_edges, g.sccs.size(), g.levels,
      result.registered_apis, result.upgraded_apis, result.registered_derefs,
      result.registered_sinks);
  size_t interesting = 0;
  for (const FunctionSummary& s : result.summaries) {
    if (!SummaryIsInteresting(s)) {
      continue;
    }
    ++interesting;
    out += StrFormat("%s:%u: %s()%s\n", s.file.c_str(), s.line, s.name.c_str(),
                     s.registered ? " [injected]" : "");
    for (const ParamSummary& ps : s.params) {
      if (!ps.saw_normal && !ps.saw_error && !ps.derefed && !ps.escapes) {
        continue;
      }
      out += StrFormat("    param %s: %s%s%s%s\n", ps.name.c_str(), DeltaText(ps).c_str(),
                       ps.derefed ? ", derefs" : "",
                       ps.deref_after_put ? " (after put!)" : "",
                       ps.escapes ? ", escapes" : "");
    }
    std::string facts;
    if (s.returns_acquired) {
      facts += s.may_return_null ? "returns acquired (may be NULL)" : "returns acquired";
    }
    if (s.error_increment) {
      facts += facts.empty() ? "" : "; ";
      facts += "increment survives error paths (G_E)";
    }
    if (s.consumed_param >= 0) {
      facts += facts.empty() ? "" : "; ";
      facts += StrFormat("consumes param %d", s.consumed_param);
    }
    if (s.global_delta != 0) {
      facts += facts.empty() ? "" : "; ";
      facts += StrFormat("global delta %+d", s.global_delta);
    }
    if (!facts.empty()) {
      out += "    " + facts + "\n";
    }
  }
  out += StrFormat("\n%zu of %zu functions carry a non-trivial summary.\n", interesting,
                   result.summaries.size());
  return out;
}

}  // namespace refscan
