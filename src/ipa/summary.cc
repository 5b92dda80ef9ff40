#include "src/ipa/summary.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/cfg/cfg.h"
#include "src/cpg/cpg.h"
#include "src/support/strings.h"

namespace refscan {

namespace {

// Per-path classification and net effect, folded into the summary by
// MergePath. A path is error-class when it exits through an error context,
// returns an error code, or returns the raw result of a returns-error API —
// the last rule is what propagates 𝒢_E through `return helper();` chains,
// which the textual discovery pass (literal `return -EINVAL` forms only)
// can never see.
struct PathEffect {
  // Roots are memoized RootSymbols; std::map<Symbol, ...> orders by text, so
  // iteration (the global-delta fold) stays interleaving-independent.
  std::map<Symbol, int> delta;                      // root -> net 𝒢-𝒫
  std::map<Symbol, const RefApiInfo*> acquired_by;  // root -> last 𝒢 API
  bool is_error = false;
  bool returns_acquired = false;
  const RefApiInfo* return_api = nullptr;  // API whose reference is returned
  int global_delta = 0;
};

void MergeClass(int delta, bool& saw, int& value, bool& consistent) {
  if (!saw) {
    saw = true;
    value = delta;
  } else if (value != delta) {
    consistent = false;
  }
}

void MergePath(const PathEffect& path, const std::vector<Symbol>& param_syms,
               FunctionSummary& s) {
  for (size_t i = 0; i < s.params.size(); ++i) {
    ParamSummary& ps = s.params[i];
    const auto it = path.delta.find(param_syms[i]);
    const int d = it == path.delta.end() ? 0 : it->second;
    if (path.is_error) {
      MergeClass(d, ps.saw_error, ps.error_delta, ps.error_consistent);
      if (ps.error_consistent && ps.error_delta >= 1) {
        s.error_increment = true;
      }
    } else {
      MergeClass(d, ps.saw_normal, ps.normal_delta, ps.normal_consistent);
    }
  }
  if (path.returns_acquired) {
    s.returns_acquired = true;
    if (path.return_api != nullptr && path.return_api->may_return_null) {
      s.may_return_null = true;
    }
    // A find-like wrapper: returns an acquired object while netting one of
    // its parameters down (of_find_*(from) consuming the cursor).
    if (s.consumed_param < 0) {
      for (size_t i = 0; i < s.params.size(); ++i) {
        const auto it = path.delta.find(param_syms[i]);
        if (it != path.delta.end() && it->second <= -1) {
          s.consumed_param = static_cast<int>(i);
          break;
        }
      }
    }
  }
  if (!path.is_error && path.global_delta != 0 && s.global_delta == 0) {
    s.global_delta = path.global_delta;
  }
}

FunctionSummary SummarizeFunction(const CallGraphNode& node, const KnowledgeBase& kb,
                                  size_t max_paths) {
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

  const Cfg cfg = BuildCfg(fn);
  const Cpg cpg = BuildCpg(cfg, kb);
  SymbolSet param_roots;
  for (const Symbol p : param_syms) {
    if (!p.empty()) {
      param_roots.insert(p);
    }
  }

  const bool complete = cfg.EnumeratePaths(
      [&](const std::vector<int>& path_nodes) {
        PathEffect path;
        const CfgNode* last_return = nullptr;
        Symbol returned_object;
        for (const int n : path_nodes) {
          const CfgNode& cn = cfg.node(n);
          if (cn.stmt != nullptr && cn.stmt->kind == Stmt::Kind::kReturn) {
            last_return = &cn;
          }
          for (const SemEvent& ev : cpg.events(n)) {
            const Symbol root = RootSymbol(ev.object);
            switch (ev.op) {
              case SemOp::kIncrease:
                if (!root.empty()) {
                  ++path.delta[root];
                  path.acquired_by[root] = ev.api;
                }
                break;
              case SemOp::kDecrease:
                if (!root.empty()) {
                  --path.delta[root];
                }
                break;
              case SemOp::kDeref:
                if (param_roots.contains(root)) {
                  for (size_t p = 0; p < s.params.size(); ++p) {
                    if (param_syms[p] == root) {
                      s.params[p].derefed = true;
                      const auto it = path.delta.find(root);
                      if (it != path.delta.end() && it->second < 0) {
                        s.params[p].deref_after_put = true;
                      }
                    }
                  }
                }
                break;
              case SemOp::kAssign:
                if (ev.escapes) {
                  const Symbol src = RootSymbol(ev.aux);
                  for (size_t p = 0; p < s.params.size(); ++p) {
                    if (!src.empty() && param_syms[p] == src) {
                      s.params[p].escapes = true;
                    }
                  }
                }
                break;
              case SemOp::kReturn:
                returned_object = ev.object;
                break;
              default:
                break;
            }
          }
        }

        // Path class.
        if (last_return != nullptr) {
          path.is_error = last_return->is_error_context ||
                          (last_return->stmt != nullptr && ReturnsErrorCode(*last_return->stmt));
          if (!path.is_error && last_return->expr != nullptr &&
              last_return->expr->kind == Expr::Kind::kCall) {
            const RefApiInfo* callee = kb.FindApi(last_return->expr->CalleeName());
            if (callee != nullptr && callee->returns_error) {
              path.is_error = true;
            }
          }
        }

        // Returned reference: a named object holding +1, or the raw result
        // of a returns-object increase API (`return of_find_...();`).
        const Symbol ret_root = RootSymbol(returned_object);
        if (!ret_root.empty()) {
          const auto it = path.delta.find(ret_root);
          if (it != path.delta.end() && it->second > 0) {
            path.returns_acquired = true;
            const auto api = path.acquired_by.find(ret_root);
            path.return_api = api == path.acquired_by.end() ? nullptr : api->second;
          }
        } else if (last_return != nullptr && last_return->expr != nullptr &&
                   last_return->expr->kind == Expr::Kind::kCall) {
          const RefApiInfo* callee = kb.FindApi(last_return->expr->CalleeName());
          if (callee != nullptr && callee->direction == RefDirection::kIncrease &&
              callee->returns_object) {
            path.returns_acquired = true;
            path.return_api = callee;
          }
          // `return refcount_dec_and_test(...);` — the wrapper relays the
          // zero-test to its caller, so it inherits dec_and_test semantics.
          if (callee != nullptr && callee->direction == RefDirection::kDecrease &&
              callee->tests_zero) {
            s.tests_zero = true;
          }
        }

        // Escaped-global effect: deltas on roots that are neither
        // parameters nor locals.
        for (const auto& [root, d] : path.delta) {
          if (!param_roots.contains(root) && !cpg.locals().contains(root)) {
            path.global_delta += d;
          }
        }

        MergePath(path, param_syms, s);
      },
      max_paths);
  s.truncated = !complete;
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
  if (s.truncated) {
    return;  // partial path coverage: do not trust the deltas
  }

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
                               KnowledgeBase& kb, const SummaryOptions& options,
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
            return SummarizeFunction(g.nodes[static_cast<size_t>(work[i])], kb,
                                     options.max_paths_per_function);
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
      s.consumed_param >= 0 || s.global_delta != 0 || s.truncated) {
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
        "\"consumed_param\": %d, \"global_delta\": %d, \"truncated\": %s, "
        "\"registered\": %s}",
        s.returns_acquired ? "true" : "false", s.may_return_null ? "true" : "false",
        s.error_increment ? "true" : "false", s.consumed_param, s.global_delta,
        s.truncated ? "true" : "false", s.registered ? "true" : "false");
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
    out += StrFormat("%s:%u: %s()%s%s\n", s.file.c_str(), s.line, s.name.c_str(),
                     s.registered ? " [injected]" : "", s.truncated ? " [truncated]" : "");
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
