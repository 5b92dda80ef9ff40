// The twelve anti-pattern checkers (paper §5 / §6.1, plus the P10–P12
// extensions: raw refcount manipulation, test-and-free misuse, and refcount
// resets — see DESIGN.md §5.12).
//
// All checkers work on "traces": the ordered semantic events along one
// enumerated CFG path. P1/P4/P5/P7 share an acquisition analysis that
// aggregates, per acquisition site (inc event), what happened to the object
// across every enumerated path; the other checkers do focused per-path
// matching. See engine.h for the public entry points.
//
// Paths are enumerated once per function into a flat PathTraceSet
// (DESIGN.md §5.11) memoized on the FunctionContext; every checker and the
// acquisition analysis walk that shared storage. Object identity checks
// (ObjectsMatch / RootsMatch) compare interned Symbols — integer compares,
// with spelling roots memoized by RootSymbol.

#include <map>
#include <set>
#include <span>

#include "src/checkers/engine.h"
#include "src/checkers/templates.h"
#include "src/support/strings.h"

namespace refscan {

namespace {

using TraceItem = PathTraceItem;

// Builds (or returns the memoized) flattened paths+traces for `fc`.
const PathTraceSet& GetTraces(const FunctionContext& fc, const ScanOptions& options) {
  const uint64_t key = static_cast<uint64_t>(options.max_paths_per_function);
  if (fc.trace_cache && fc.trace_cache->key == key) {
    return *fc.trace_cache;
  }
  PathTraceSet fresh;
  fresh.key = key;
  fresh.path_offsets.push_back(0);
  fresh.item_offsets.push_back(0);
  fc.cfg->EnumeratePaths(
      [&](const std::vector<int>& path) {
        for (size_t p = 0; p < path.size(); ++p) {
          fresh.path_nodes.push_back(path[p]);
          for (const SemEvent& ev : fc.cpg->events(path[p])) {
            fresh.items.push_back(TraceItem{&ev, path[p], static_cast<uint32_t>(p)});
          }
        }
        fresh.path_offsets.push_back(static_cast<uint32_t>(fresh.path_nodes.size()));
        fresh.item_offsets.push_back(static_cast<uint32_t>(fresh.items.size()));
      },
      options.max_paths_per_function);
  // Published only once complete: a deadline thrown mid-enumeration leaves
  // the memo as it was.
  return fc.trace_cache.emplace(std::move(fresh));
}

// Invokes `fn` once per enumerated path with (path-node-ids, trace).
template <typename Fn>
void ForEachTrace(const FunctionContext& fc, const ScanOptions& options, const Fn& fn) {
  const PathTraceSet& traces = GetTraces(fc, options);
  for (size_t p = 0; p < traces.paths(); ++p) {
    fn(std::span<const int>(traces.path_nodes.data() + traces.path_offsets[p],
                            traces.path_offsets[p + 1] - traces.path_offsets[p]),
       std::span<const TraceItem>(traces.items.data() + traces.item_offsets[p],
                                  traces.item_offsets[p + 1] - traces.item_offsets[p]));
  }
}

// True if, at a NULL-check of the tracked object (trace[j]), this path takes
// the branch on which the object is NULL — acquisition effectively failed,
// so the path holds no reference to release.
bool PathTakesNullBranch(const FunctionContext& fc, std::span<const int> path,
                         const TraceItem& item) {
  const CfgNode& cond = fc.cfg->node(item.node);
  if (item.path_pos + 1 >= path.size() || cond.succs.empty()) {
    return false;
  }
  const int next = path[item.path_pos + 1];
  if (item.ev->checks_null_true_branch) {
    // `if (!p)` / `p == NULL`: the true (first-linked) branch is the NULL side.
    return cond.succs.size() > 1 ? next == cond.succs[0] : false;
  }
  // `if (p)` / `p != NULL`: the fall-through / else side is the NULL side.
  return cond.succs.size() > 1 && next == cond.succs[1];
}

// Object identity matching. Exact spellings always match; a bare root
// matches any spelling rooted in it ("serial" vs "serial->kref"), which is
// how the paper's checkers treat an object and its embedded refcounter.
// Three integer compares in the common case; roots are memoized per Symbol.
bool ObjectsMatch(Symbol a, Symbol b) {
  if (a.empty() || b.empty()) {
    return false;
  }
  if (a == b) {
    return true;
  }
  const Symbol ra = RootSymbol(a);
  const Symbol rb = RootSymbol(b);
  return ra == rb && !ra.empty() && (a == ra || b == rb);
}

bool RootsMatch(Symbol a, Symbol b) {
  const Symbol ra = RootSymbol(a);
  return !ra.empty() && ra == RootSymbol(b);
}

bool NodeIsErrorReturn(const Cfg& cfg, int node) {
  const CfgNode& n = cfg.node(node);
  return n.stmt != nullptr && ReturnsErrorCode(*n.stmt);
}

// ----------------------------------------------------------------------
// Acquisition analysis shared by P1 / P4 / P5 / P7 (public in analysis.h).

using AcqMap = AcquisitionAnalysis;

std::string AcqKey(const SemEvent& ev) {
  return StrFormat("%u:%s:%s", ev.line, ev.object.c_str(),
                   ev.api != nullptr ? ev.api->name.c_str() : "");
}

AcqMap ComputeAcquisitions(const FunctionContext& fc, const ScanOptions& options) {
  AcqMap sites;
  ForEachTrace(fc, options, [&](std::span<const int> path, std::span<const TraceItem> trace) {
    for (size_t i = 0; i < trace.size(); ++i) {
      const SemEvent& acq = *trace[i].ev;
      if (acq.op != SemOp::kIncrease || acq.object.empty() || acq.api == nullptr) {
        continue;
      }
      AcqSite& site = sites[AcqKey(acq)];
      site.api = acq.api;
      site.line = acq.line;
      site.object = acq.object.str();

      // An acquired *result* landing directly in escaping storage
      // (`f->np = of_get_parent(...)`) is owned by that storage, not this
      // function. Only applies to returns-object APIs: for parameter-based
      // APIs (pm_runtime_get_sync(pdev->dev)) the object spelling is the
      // argument, not where the reference is stored.
      bool direct_store = false;
      if (options.model_ownership_transfer && acq.api->returns_object &&
          acq.api->object_param < 0) {
        const Symbol root = RootSymbol(acq.object);
        if (acq.object != root &&
            (fc.cpg->params().contains(root) || !fc.cpg->locals().contains(root))) {
          direct_store = true;
          site.transferred = true;
        }
      }

      bool paired = false;
      bool transferred = false;
      bool null_branch = false;
      bool freed = false;
      bool error_after = false;
      uint32_t exit_line = 0;
      for (size_t j = i + 1; j < trace.size(); ++j) {
        const SemEvent& ev = *trace[j].ev;
        if (fc.cfg->node(trace[j].node).is_error_context) {
          error_after = true;
        }
        if (options.prune_null_branches && ev.op == SemOp::kNullCheck &&
            ObjectsMatch(ev.object, acq.object) && PathTakesNullBranch(fc, path, trace[j])) {
          null_branch = true;  // acquisition failed on this path
          break;
        }
        if (ev.op == SemOp::kDecrease && ObjectsMatch(ev.object, acq.object)) {
          paired = true;
          break;
        }
        if (ev.op == SemOp::kFree && ObjectsMatch(ev.object, acq.object)) {
          site.freed_direct = true;
          site.free_line = ev.line;
          freed = true;
          break;
        }
        if (options.model_ownership_transfer && ev.op == SemOp::kReturn &&
            ObjectsMatch(ev.object, acq.object)) {
          transferred = true;
          break;
        }
        // `return to_foo(obj)` hands obj to the caller through a conversion
        // wrapper — but only functions returning a pointer can do that;
        // `return use(obj)` in an int function is just a use.
        if (options.model_ownership_transfer && ev.op == SemOp::kReturn &&
            ObjectsMatch(ev.aux, acq.object) &&
            fc.fn->return_type.view().find('*') != std::string_view::npos) {
          transferred = true;
          break;
        }
        if (options.model_ownership_transfer && ev.op == SemOp::kAssign && ev.escapes &&
            ObjectsMatch(ev.aux, acq.object)) {
          transferred = true;  // stored into longer-lived state
          // Keep scanning: P9 looks at the escape/dec interaction separately.
        }
        if (ev.op == SemOp::kAssign && !ev.escapes && trace[j].node != trace[i].node &&
            ev.object == acq.object && ev.aux != acq.object) {
          site.reassigned_while_held = true;
        }
        if (ev.op == SemOp::kReturn) {
          if (NodeIsErrorReturn(*fc.cfg, trace[j].node)) {
            error_after = true;
          }
          exit_line = ev.line;
          break;
        }
      }
      site.paired_somewhere |= paired;
      site.transferred |= transferred;
      if (!paired && !transferred && !null_branch && !freed && !direct_store) {
        site.unpaired_path = true;
        if (error_after && !site.unpaired_error_path) {
          site.error_exit_line = exit_line;
        }
        site.unpaired_error_path |= error_after;
      }
    }
  });
  return sites;
}

}  // namespace

const AcquisitionAnalysis& AnalyzeAcquisitions(const FunctionContext& fc,
                                               const ScanOptions& options) {
  // The memo holds one option configuration; a caller with another one
  // (only tests mix configurations on one context) rebuilds it.
  const uint64_t key = (options.prune_null_branches ? 1u : 0u) |
                       (options.model_ownership_transfer ? 2u : 0u) |
                       (static_cast<uint64_t>(options.max_paths_per_function) << 2);
  if (!fc.acquisition_cache || fc.acquisition_cache->key != key) {
    fc.acquisition_cache = AcquisitionCache{key, ComputeAcquisitions(fc, options)};
  }
  return fc.acquisition_cache->analysis;
}

namespace {

BugReport BaseReport(const UnitContext& uc, const FunctionContext& fc, int pattern,
                     Impact impact, uint32_t line) {
  BugReport r;
  r.anti_pattern = pattern;
  r.impact = impact;
  r.file = uc.unit.path;
  r.function = fc.fn->name.str();
  r.line = line;
  r.template_path = AntiPatternTemplate(pattern);
  return r;
}

}  // namespace

// ------------------------------------------------------------------ P1

void CheckReturnError(const UnitContext& uc, const FunctionContext& fc, const KnowledgeBase& kb,
                      const ScanOptions& options, std::vector<BugReport>& out) {
  const auto& analysis = AnalyzeAcquisitions(fc, options);
  for (const auto& [key, site] : analysis) {
    if (site.api->returns_error && site.unpaired_error_path) {
      BugReport r = BaseReport(uc, fc, 1, Impact::kLeak, site.line);
      r.exit_line = site.error_exit_line;
      r.api = site.api->name;
      r.object = site.object;
      r.message = StrFormat("%s() increments even on failure; error path misses the decrement",
                            site.api->name.c_str());
      out.push_back(std::move(r));
    }
  }
}

// ------------------------------------------------------------------ P2

void CheckReturnNull(const UnitContext& uc, const FunctionContext& fc, const KnowledgeBase& kb,
                     const ScanOptions& options, std::vector<BugReport>& out) {
  std::set<std::string> seen;
  ForEachTrace(fc, options, [&](std::span<const int> path, std::span<const TraceItem> trace) {
    for (size_t i = 0; i < trace.size(); ++i) {
      const SemEvent& acq = *trace[i].ev;
      if (acq.op != SemOp::kIncrease || acq.api == nullptr || !acq.api->may_return_null ||
          acq.object.empty()) {
        continue;
      }
      for (size_t j = i + 1; j < trace.size(); ++j) {
        const SemEvent& ev = *trace[j].ev;
        if (ev.op == SemOp::kNullCheck && ObjectsMatch(ev.object, acq.object)) {
          break;  // guarded on this path
        }
        if (ev.op == SemOp::kAssign && ev.object == acq.object &&
            trace[j].node != trace[i].node) {
          break;  // reassigned (same-node assign is the binding itself)
        }
        if (ev.op == SemOp::kDeref && ObjectsMatch(ev.object, acq.object)) {
          const std::string dedup = StrFormat("%u:%u", acq.line, ev.line);
          if (seen.insert(dedup).second) {
            BugReport r = BaseReport(uc, fc, 2, Impact::kNpd, acq.line);
            r.api = acq.api->name;
            r.object = acq.object.str();
            r.message = StrFormat("%s() may return NULL; '%s' dereferenced at line %u without a check",
                                  acq.api->name.c_str(), acq.object.c_str(), ev.line);
            out.push_back(std::move(r));
          }
          break;
        }
      }
    }
  });
}

// ------------------------------------------------------------------ P3

void CheckSmartLoopBreak(const UnitContext& uc, const FunctionContext& fc,
                         const KnowledgeBase& kb, const ScanOptions& options,
                         std::vector<BugReport>& out) {
  std::set<uint32_t> seen;
  ForEachTrace(fc, options, [&](std::span<const int> path, std::span<const TraceItem> trace) {
    for (size_t p = 0; p < path.size(); ++p) {
      const CfgNode& node = fc.cfg->node(path[p]);
      if (node.macro_loop < 0 || node.stmt == nullptr) {
        continue;
      }
      const bool exits_early = node.stmt->kind == Stmt::Kind::kBreak ||
                               node.stmt->kind == Stmt::Kind::kReturn ||
                               (node.stmt->kind == Stmt::Kind::kGoto &&
                                IsErrorLabel(node.stmt->name.view()));
      if (!exits_early) {
        continue;
      }
      // Identify the enclosing smartloop's iterator object.
      const SemEvent* head_ev = nullptr;
      for (const SemEvent& ev : fc.cpg->events(node.macro_loop)) {
        if (ev.op == SemOp::kLoopHead && ev.loop != nullptr) {
          head_ev = &ev;
        }
      }
      if (head_ev == nullptr || head_ev->object.empty()) {
        continue;  // unknown macro loop (e.g. list_for_each_entry): no refcounting
      }
      // Find the most recent traversal of the loop head before this exit and
      // look for a decrement of the iterator in between.
      size_t head_pos = 0;
      bool found_head = false;
      for (size_t q = p; q-- > 0;) {
        if (path[q] == node.macro_loop) {
          head_pos = q;
          found_head = true;
          break;
        }
      }
      if (!found_head) {
        continue;
      }
      bool released = false;
      for (size_t q = head_pos; q <= p; ++q) {
        for (const SemEvent& ev : fc.cpg->events(path[q])) {
          if (ev.op == SemOp::kDecrease && ObjectsMatch(ev.object, head_ev->object)) {
            released = true;
          }
        }
      }
      if (!released && seen.insert(node.line).second) {
        BugReport r = BaseReport(uc, fc, 3, Impact::kLeak, node.line);
        r.api = head_ev->loop->name;
        r.object = head_ev->object.str();
        r.message = StrFormat(
            "early exit from %s at line %u leaks the iterator '%s' (put the node before leaving)",
            head_ev->loop->name.c_str(), node.line, head_ev->object.c_str());
        out.push_back(std::move(r));
      }
    }
  });
}

// ------------------------------------------------------------------ P4

void CheckHiddenApi(const UnitContext& uc, const FunctionContext& fc, const KnowledgeBase& kb,
                    const ScanOptions& options, std::vector<BugReport>& out) {
  // Missing decrease: the developer never pairs the hidden acquisition on
  // any path (§5.2.2 "in any potential execution path").
  const auto& analysis = AnalyzeAcquisitions(fc, options);
  for (const auto& [key, site] : analysis) {
    if (site.api->hidden && !site.paired_somewhere && !site.transferred && site.unpaired_path &&
        !site.freed_direct) {
      BugReport r = BaseReport(uc, fc, 4, Impact::kLeak, site.line);
      r.api = site.api->name;
      r.object = site.object;
      r.message = StrFormat("%s() hides a refcount increase on '%s'; no path releases it",
                            site.api->name.c_str(), site.object.c_str());
      out.push_back(std::move(r));
    }
  }

  // Missing increase: a hidden-decrease API consumes a reference the caller
  // does not own (of_find_*(from) decrements `from`; a borrowed parameter
  // needs an of_node_get first). §5.2.2, 16 new bugs in the paper.
  std::set<std::string> seen;
  ForEachTrace(fc, options, [&](std::span<const int> path, std::span<const TraceItem> trace) {
    for (size_t i = 0; i < trace.size(); ++i) {
      const SemEvent& dec = *trace[i].ev;
      if (dec.op != SemOp::kDecrease || dec.api == nullptr ||
          dec.api->direction != RefDirection::kIncrease || dec.object.empty()) {
        continue;  // only implicit consumption by find-like APIs
      }
      const Symbol root = RootSymbol(dec.object);
      if (!fc.cpg->params().contains(root)) {
        continue;  // consuming a locally-acquired reference is the normal idiom
      }
      bool acquired_before = false;
      for (size_t j = 0; j < i; ++j) {
        const SemEvent& ev = *trace[j].ev;
        if (ev.op == SemOp::kIncrease && ObjectsMatch(ev.object, dec.object)) {
          acquired_before = true;
        }
      }
      if (!acquired_before) {
        const std::string dedup = StrFormat("mi:%u:%s", dec.line, dec.object.c_str());
        if (seen.insert(dedup).second) {
          BugReport r = BaseReport(uc, fc, 4, Impact::kUaf, dec.line);
          r.api = dec.api->name;
          r.object = dec.object.str();
          r.message = StrFormat(
              "%s() consumes a reference on borrowed parameter '%s'; missing increase before the call",
              dec.api->name.c_str(), dec.object.c_str());
          out.push_back(std::move(r));
        }
      }
    }
  });
}

// ------------------------------------------------------------------ P5

void CheckErrorHandle(const UnitContext& uc, const FunctionContext& fc, const KnowledgeBase& kb,
                      const ScanOptions& options, std::vector<BugReport>& out) {
  const auto& analysis = AnalyzeAcquisitions(fc, options);
  for (const auto& [key, site] : analysis) {
    if (site.api->returns_error) {
      continue;  // P1's territory
    }
    if ((site.paired_somewhere || site.transferred) && site.unpaired_error_path) {
      BugReport r = BaseReport(uc, fc, 5, Impact::kLeak, site.line);
      r.exit_line = site.error_exit_line;
      r.api = site.api->name;
      r.object = site.object;
      r.message = StrFormat(
          "'%s' from %s() is released on the normal path but not in the error-handling path",
          site.object.c_str(), site.api->name.c_str());
      out.push_back(std::move(r));
    }
    // The Listing-5 shape: the held pointer is overwritten before any
    // release — the reference is orphaned. (This is also where the paper's
    // checkers produced their 5 false positives.)
    if (!site.paired_somewhere && !site.transferred && site.reassigned_while_held &&
        site.unpaired_path) {
      BugReport r = BaseReport(uc, fc, 5, Impact::kLeak, site.line);
      r.api = site.api->name;
      r.object = site.object;
      r.message = StrFormat("'%s' is overwritten while a reference from %s() is still held",
                            site.object.c_str(), site.api->name.c_str());
      out.push_back(std::move(r));
    }
  }
}

// ------------------------------------------------------------------ P6

std::string ApiFamily(std::string_view api_name) {
  const std::string name(api_name);
  auto contains = [&](std::string_view w) { return name.find(w) != std::string::npos; };
  if (contains("of_node") || (name.starts_with("of_") && contains("node")) ||
      name.starts_with("of_get") || name.starts_with("of_find") || name.starts_with("of_parse") ||
      name.starts_with("of_graph")) {
    return "of-node";
  }
  if (contains("fwnode")) {
    return "fwnode";
  }
  if (contains("pm_runtime")) {
    return "pm-runtime";
  }
  if (contains("kobject")) {
    return "kobject";
  }
  if (name == "get_device" || name == "put_device" || contains("find_device") ||
      name == "device_initialize") {
    return "device";
  }
  if (name == "dev_hold" || name == "dev_put" || contains("ip_dev")) {
    return "netdev";
  }
  if (contains("sock")) {
    return "sock";
  }
  if (contains("kref")) {
    return "kref";
  }
  if (contains("refcount")) {
    return "refcount";
  }
  // Default: the API name with refcounting keywords stripped, so
  // usb_serial_get / usb_serial_put share a family.
  std::vector<std::string> words;
  for (const std::string& w : IdentifierWords(name)) {
    bool keyword = false;
    for (const auto& list : {IncreaseKeywords(), DecreaseKeywords()}) {
      for (const std::string& k : list) {
        keyword |= (w == k);
      }
    }
    if (!keyword) {
      words.push_back(w);
    }
  }
  return Join(words, "-");
}

namespace {

// Collects decrease families present anywhere in a function (no paths).
std::set<std::string> DecreaseFamilies(const FunctionContext& fc) {
  std::set<std::string> families;
  for (size_t i = 0; i < fc.cpg->size(); ++i) {
    for (const SemEvent& ev : fc.cpg->events(static_cast<int>(i))) {
      if (ev.op == SemOp::kDecrease && ev.api != nullptr &&
          ev.api->direction == RefDirection::kDecrease) {
        families.insert(ApiFamily(ev.api->name));
      }
    }
  }
  return families;
}

const FunctionContext* FindContext(const UnitContext& uc, std::string_view name) {
  for (const FunctionContext& fc : uc.functions) {
    if (fc.fn->name == name) {
      return &fc;
    }
  }
  return nullptr;
}

}  // namespace

void CheckInterUnpaired(const UnitContext& uc, const KnowledgeBase& kb,
                        const ScanOptions& options, std::vector<BugReport>& out) {
  // Pair discovery 1: ops-struct designated initializers (§5.3.2).
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const GlobalVar& g : uc.unit.globals) {
    for (const auto& [acq_field, rel_field] : PairedOpsFields()) {
      std::string acq_fn;
      std::string rel_fn;
      for (const DesignatedInit& init : g.inits) {
        if (init.field == acq_field) {
          acq_fn = init.value.str();
        }
        if (init.field == rel_field) {
          rel_fn = init.value.str();
        }
      }
      if (!acq_fn.empty() && !rel_fn.empty()) {
        pairs.emplace_back(acq_fn, rel_fn);
      }
    }
  }
  // Pair discovery 2: name-paired functions (foo_register/foo_unregister).
  for (const FunctionDef& fn : uc.unit.functions) {
    const auto words = IdentifierWords(fn.name.view());
    for (size_t w = 0; w < words.size(); ++w) {
      const std::string release = PairedReleaseWord(words[w]);
      if (release.empty()) {
        continue;
      }
      std::vector<std::string> renamed = words;
      renamed[w] = release;
      const std::string candidate = Join(renamed, "_");
      if (uc.unit.FindFunction(candidate) != nullptr && candidate != fn.name) {
        pairs.emplace_back(fn.name.str(), candidate);
      }
    }
  }

  std::set<std::string> seen;
  for (const auto& [acq_name, rel_name] : pairs) {
    const FunctionContext* acq = FindContext(uc, acq_name);
    const FunctionContext* rel = FindContext(uc, rel_name);
    if (acq == nullptr || rel == nullptr) {
      continue;
    }
    const std::set<std::string> released = DecreaseFamilies(*rel);
    const auto& analysis = AnalyzeAcquisitions(*acq, options);
    for (const auto& [key, site] : analysis) {
      if (site.paired_somewhere || site.freed_direct) {
        continue;  // locally balanced (or a P7 case)
      }
      const std::string family = ApiFamily(site.api->name);
      if (released.contains(family)) {
        continue;
      }
      const std::string dedup = StrFormat("%s:%u", acq_name.c_str(), site.line);
      if (!seen.insert(dedup).second) {
        continue;
      }
      BugReport r;
      r.anti_pattern = 6;
      r.impact = Impact::kLeak;
      r.file = uc.unit.path;
      r.function = acq_name;
      r.line = site.line;
      r.api = site.api->name;
      r.object = site.object;
      r.template_path = AntiPatternTemplate(6);
      r.message = StrFormat("%s() acquires via %s() but paired %s() never releases the %s family",
                            acq_name.c_str(), site.api->name.c_str(), rel_name.c_str(),
                            family.c_str());
      out.push_back(std::move(r));
    }
  }
}

// ------------------------------------------------------------------ P7

void CheckDirectFree(const UnitContext& uc, const FunctionContext& fc, const KnowledgeBase& kb,
                     const ScanOptions& options, std::vector<BugReport>& out) {
  const auto& analysis = AnalyzeAcquisitions(fc, options);
  for (const auto& [key, site] : analysis) {
    if (site.freed_direct) {
      BugReport r = BaseReport(uc, fc, 7, Impact::kLeak, site.free_line);
      r.api = site.api->name;
      r.object = site.object;
      r.message = StrFormat(
          "'%s' (refcounted via %s()) is kfree'd directly at line %u; the release callback never runs",
          site.object.c_str(), site.api->name.c_str(), site.free_line);
      out.push_back(std::move(r));
    }
  }
}

// ------------------------------------------------------------------ P8

void CheckUseAfterDecrease(const UnitContext& uc, const FunctionContext& fc,
                           const KnowledgeBase& kb, const ScanOptions& options,
                           std::vector<BugReport>& out) {
  std::set<std::string> seen;
  ForEachTrace(fc, options, [&](std::span<const int> path, std::span<const TraceItem> trace) {
    for (size_t i = 0; i < trace.size(); ++i) {
      const SemEvent& dec = *trace[i].ev;
      if (dec.op != SemOp::kDecrease || dec.object.empty() || dec.api == nullptr ||
          dec.api->direction != RefDirection::kDecrease) {
        continue;
      }
      if (dec.api->tests_zero) {
        continue;  // dec_and_test semantics are P11's territory: whether the
                   // object died depends on the tested result, which this
                   // checker does not model
      }
      const Symbol root = RootSymbol(dec.object);
      if (root.empty()) {
        continue;
      }
      for (size_t j = i + 1; j < trace.size(); ++j) {
        const SemEvent& ev = *trace[j].ev;
        if ((ev.op == SemOp::kIncrease || ev.op == SemOp::kAssign) &&
            RootsMatch(ev.object, dec.object)) {
          break;  // re-acquired or re-initialised
        }
        const bool uses = (ev.op == SemOp::kDeref || ev.op == SemOp::kUnlock ||
                           ev.op == SemOp::kLock) &&
                          RootsMatch(ev.object, dec.object);
        if (uses) {
          const std::string dedup = StrFormat("%u:%u:%s", dec.line, ev.line, root.c_str());
          if (seen.insert(dedup).second) {
            BugReport r = BaseReport(uc, fc, 8, Impact::kUaf, dec.line);
            r.api = dec.api->name;
            r.object = dec.object.str();
            r.message = StrFormat(
                "'%s' is used at line %u after %s() at line %u may have freed it (UAD)",
                root.c_str(), ev.line, dec.api->name.c_str(), dec.line);
            out.push_back(std::move(r));
          }
          break;
        }
      }
    }
  });
}

// ------------------------------------------------------------------ P9

void CheckReferenceEscape(const UnitContext& uc, const FunctionContext& fc,
                          const KnowledgeBase& kb, const ScanOptions& options,
                          std::vector<BugReport>& out) {
  std::set<std::string> seen;
  ForEachTrace(fc, options, [&](std::span<const int> path, std::span<const TraceItem> trace) {
    for (size_t i = 0; i < trace.size(); ++i) {
      const SemEvent& esc = *trace[i].ev;
      if (esc.op != SemOp::kAssign || !esc.escapes || esc.aux.empty()) {
        continue;
      }
      // The escaping value must be a reference we acquired on this path.
      bool acquired = false;
      for (size_t j = 0; j < i; ++j) {
        const SemEvent& ev = *trace[j].ev;
        if (ev.op == SemOp::kIncrease && ObjectsMatch(ev.object, esc.aux)) {
          acquired = true;
        }
        if (ev.op == SemOp::kDecrease && ObjectsMatch(ev.object, esc.aux)) {
          acquired = false;
        }
      }
      if (!acquired) {
        continue;
      }
      // An increase adjacent to the escape point is the correct idiom.
      bool adjacent_increase = false;
      for (size_t j = i + 1; j < trace.size() && j <= i + 2; ++j) {
        if (trace[j].ev->op == SemOp::kIncrease && ObjectsMatch(trace[j].ev->object, esc.aux)) {
          adjacent_increase = true;
        }
      }
      if (adjacent_increase) {
        continue;
      }
      // The stored alias becomes dangling when the function's own reference
      // is dropped later on the same path.
      bool dropped_later = false;
      for (size_t j = i + 1; j < trace.size(); ++j) {
        const SemEvent& ev = *trace[j].ev;
        if (ev.op == SemOp::kDecrease && ObjectsMatch(ev.object, esc.aux)) {
          dropped_later = true;
          break;
        }
        if (ev.op == SemOp::kIncrease && ObjectsMatch(ev.object, esc.aux)) {
          break;
        }
      }
      if (!dropped_later) {
        continue;
      }
      const std::string dedup = StrFormat("%u:%s", esc.line, esc.object.c_str());
      if (seen.insert(dedup).second) {
        BugReport r = BaseReport(uc, fc, 9, Impact::kUaf, esc.line);
        r.object = esc.object.str();
        r.api = esc.aux.str();
        r.message = StrFormat(
            "reference '%s' escapes into '%s' at line %u without an increase, then is dropped",
            esc.aux.c_str(), esc.object.c_str(), esc.line);
        out.push_back(std::move(r));
      }
    }
  });
}

// ------------------------------------------------------------------ P10

void CheckRawManipulation(const UnitContext& uc, const FunctionContext& fc,
                          const KnowledgeBase& kb, const ScanOptions& options,
                          std::vector<BugReport>& out) {
  // No path sensitivity needed: any ++/--/+=/-= on a field the KB knows to
  // be a refcounter bypasses the checked API on every path — refcount_t
  // saturation (and uACPI's BUGGED_REFCOUNT pinning) only protects counters
  // that go through the accessor functions.
  std::set<std::string> seen;
  for (size_t n = 0; n < fc.cpg->size(); ++n) {
    for (const SemEvent& ev : fc.cpg->events(static_cast<int>(n))) {
      if ((ev.op != SemOp::kRawInc && ev.op != SemOp::kRawDec) || ev.object.empty()) {
        continue;
      }
      const std::string dedup = StrFormat("%u:%s", ev.line, ev.object.c_str());
      if (!seen.insert(dedup).second) {
        continue;
      }
      BugReport r = BaseReport(uc, fc, 10, Impact::kUaf, ev.line);
      r.object = ev.object.str();
      r.message = StrFormat(
          "raw %s of refcount field '%s' bypasses the checked API; saturation and "
          "overflow protection are lost",
          ev.op == SemOp::kRawInc ? "increment" : "decrement", ev.object.c_str());
      out.push_back(std::move(r));
    }
  }
}

// ------------------------------------------------------------------ P11

void CheckTestAndFree(const UnitContext& uc, const FunctionContext& fc, const KnowledgeBase& kb,
                      const ScanOptions& options, std::vector<BugReport>& out) {
  std::set<std::string> seen;
  ForEachTrace(fc, options, [&](std::span<const int> path, std::span<const TraceItem> trace) {
    for (size_t i = 0; i < trace.size(); ++i) {
      const SemEvent& dec = *trace[i].ev;
      if (dec.op != SemOp::kDecrease || dec.api == nullptr || !dec.api->tests_zero ||
          dec.object.empty()) {
        continue;
      }
      const Symbol root = RootSymbol(dec.object);
      if (root.empty()) {
        continue;
      }
      if (!dec.result_tested) {
        // Ignored result: the one signal that the last reference dropped is
        // discarded, so no path runs the free — the object leaks forever.
        const std::string dedup = StrFormat("ig:%u:%s", dec.line, root.c_str());
        if (seen.insert(dedup).second) {
          BugReport r = BaseReport(uc, fc, 11, Impact::kLeak, dec.line);
          r.api = dec.api->name;
          r.object = dec.object.str();
          r.message = StrFormat(
              "%s() result ignored at line %u: when the last reference drops, nothing frees '%s'",
              dec.api->name.c_str(), dec.line, root.c_str());
          out.push_back(std::move(r));
        }
        continue;
      }
      // Result tested: find the free the true branch runs. Only a free of
      // the object itself counts (exact root match) — `kfree(o->name)`
      // inside a destructor is releasing a member, not the object.
      size_t free_pos = 0;
      bool freed = false;
      for (size_t j = i + 1; j < trace.size(); ++j) {
        const SemEvent& ev = *trace[j].ev;
        if ((ev.op == SemOp::kIncrease || ev.op == SemOp::kAssign) &&
            RootsMatch(ev.object, dec.object)) {
          break;  // re-acquired or re-bound before any free
        }
        if (ev.op == SemOp::kFree && ev.object == root) {
          free_pos = j;
          freed = true;
          break;
        }
      }
      if (!freed) {
        continue;
      }
      // Anything touching the object after that free on the same path is a
      // use-after-free (or a double free).
      for (size_t j = free_pos + 1; j < trace.size(); ++j) {
        const SemEvent& ev = *trace[j].ev;
        if (ev.op == SemOp::kAssign && RootsMatch(ev.object, dec.object)) {
          break;  // re-bound to a fresh object
        }
        const bool refree = ev.op == SemOp::kFree && ev.object == root;
        const bool uses = (ev.op == SemOp::kDeref || ev.op == SemOp::kLock ||
                           ev.op == SemOp::kUnlock) &&
                          RootsMatch(ev.object, dec.object);
        if (refree || uses) {
          const std::string dedup = StrFormat("tf:%u:%u:%s", dec.line, ev.line, root.c_str());
          if (seen.insert(dedup).second) {
            BugReport r = BaseReport(uc, fc, 11, Impact::kUaf, dec.line);
            r.api = dec.api->name;
            r.object = dec.object.str();
            r.message = StrFormat(
                "'%s' is %s at line %u after the %s() true branch already freed it at line %u",
                root.c_str(), refree ? "freed again" : "used", ev.line, dec.api->name.c_str(),
                trace[free_pos].ev->line);
            out.push_back(std::move(r));
          }
          break;
        }
      }
    }
  });
}

// ------------------------------------------------------------------ P12

void CheckRefcountReset(const UnitContext& uc, const FunctionContext& fc,
                        const KnowledgeBase& kb, const ScanOptions& options,
                        std::vector<BugReport>& out) {
  // A literal-zero store into a live refcount field erases every reference
  // the counter was tracking (and un-sticks a saturated refcount_t, undoing
  // the overflow defence). `obj->refs = 1` is the accepted construction
  // idiom and is left alone (raw_set_nonzero).
  std::set<std::string> seen;
  for (size_t n = 0; n < fc.cpg->size(); ++n) {
    for (const SemEvent& ev : fc.cpg->events(static_cast<int>(n))) {
      if (ev.op != SemOp::kRawSet || ev.raw_set_nonzero || ev.object.empty()) {
        continue;
      }
      const std::string dedup = StrFormat("%u:%s", ev.line, ev.object.c_str());
      if (!seen.insert(dedup).second) {
        continue;
      }
      BugReport r = BaseReport(uc, fc, 12, Impact::kUaf, ev.line);
      r.object = ev.object.str();
      r.message = StrFormat(
          "refcount field '%s' is reset to 0 at line %u; outstanding references are orphaned "
          "and the next put underflows",
          ev.object.c_str(), ev.line);
      out.push_back(std::move(r));
    }
  }
}

}  // namespace refscan
