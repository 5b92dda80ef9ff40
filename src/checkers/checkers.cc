// The twelve anti-pattern checkers (paper §5 / §6.1, plus the P10–P12
// extensions: raw refcount manipulation, test-and-free misuse, and refcount
// resets — see DESIGN.md §5.12).
//
// A checker asks whether some potential execution path matches its Table 1
// template. It answers by walking the CFG forward from each trigger event
// (CfgWalk, walk.h) with a small per-branch state, not by enumerating
// paths. P1/P4/P5/P7 share an acquisition analysis that aggregates, per
// acquisition site (inc event), what happened to the object on every branch
// leaving it; P10/P12 need no paths at all. Trigger events are taken in
// walk order from the entry. See engine.h for the public entry points.
//
// Object identity checks (ObjectsMatch / RootsMatch) compare interned
// Symbols — integer compares, with spelling roots memoized by RootSymbol.

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "src/checkers/engine.h"
#include "src/checkers/templates.h"
#include "src/support/strings.h"

namespace refscan {

namespace {

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

// Appends a report on `function` of `unit`; the caller adds the message
// (and the exit line, when known).
BugReport& AddReport(std::vector<BugReport>& out, const TranslationUnit& unit,
                     const FunctionDef& function, int pattern, Impact impact, uint32_t line,
                     std::string api, std::string object) {
  BugReport& r = out.emplace_back();
  r.anti_pattern = pattern;
  r.impact = impact;
  r.file = unit.path;
  r.function = function.name.str();
  r.line = line;
  r.api = std::move(api);
  r.object = std::move(object);
  r.template_path = AntiPatternTemplate(pattern);
  return r;
}

BugReport& AddReport(std::vector<BugReport>& out, const UnitContext& uc,
                     const FunctionContext& fc, int pattern, Impact impact, uint32_t line,
                     std::string api, std::string object) {
  return AddReport(out, uc.unit, *fc.fn, pattern, impact, line, std::move(api),
                   std::move(object));
}

// ----------------------------------------------------------------------
// Acquisition analysis shared by P1 / P4 / P5 / P7 (public in analysis.h).

std::string AcqKey(const SemEvent& ev) {
  return StrFormat("%u:%s:%s", ev.line, ev.object.c_str(),
                   ev.api != nullptr ? ev.api->name.c_str() : "");
}

// Branch state of an acquisition walk.
enum : WalkState {
  kErrorAfter = 1,  // the branch ran error-handling code after the acquisition
  kEscaped = 2,     // the reference was stored into longer-lived state
  kNullSide0 = 4,   // a NULL check of the object: successor 0 is its NULL side
  kNullSide1 = 8,   // ... successor 1 is
};

// Follows one acquisition (an inc event) to every way the function can leave
// it: released, returned, stored, kfree'd, dropped on a NULL branch, or held
// to an exit. What the branches find is folded into the event's AcqSite.
struct AcquisitionWalk : WalkVisitor {
  const FunctionContext& fc;
  const ScanOptions& options;
  const SemEvent& acq;
  int acq_node;
  bool direct_store;
  AcqSite& site;

  // Every branch that ends keeps the escape it saw.
  WalkStep Stop(WalkState s) {
    site.transferred |= (s & kEscaped) != 0;
    return WalkStep::kStop;
  }

  // A branch left the function still holding the reference (unless it
  // escaped); `exit_line` is the return that ended it, 0 for none.
  void Exit(WalkState s, uint32_t exit_line) {
    Stop(s);
    if ((s & kEscaped) != 0 || direct_store) {
      return;
    }
    site.unpaired_path = true;
    if ((s & kErrorAfter) != 0 && !site.unpaired_error_path) {
      site.error_exit_line = exit_line;  // the first leaking error branch's return
      site.unpaired_error_path = true;
    }
  }

  WalkStep Event(int node, const SemEvent& ev, WalkState& s) {
    const CfgNode& n = fc.cfg->node(node);
    if (n.is_error_context) {
      s |= kErrorAfter;
    }
    if (options.prune_null_branches && ev.op == SemOp::kNullCheck &&
        ObjectsMatch(ev.object, acq.object) && fc.cfg->succs(node).size() > 1) {
      // `if (!p)` / `p == NULL`: the true (first-linked) branch is the NULL
      // side; `if (p)` / `p != NULL`: the fall-through / else side is.
      s |= ev.checks_null_true_branch ? kNullSide0 : kNullSide1;
    }
    if (ev.op == SemOp::kDecrease && ObjectsMatch(ev.object, acq.object)) {
      site.paired_somewhere = true;
      return Stop(s);
    }
    if (ev.op == SemOp::kFree && ObjectsMatch(ev.object, acq.object)) {
      site.freed_direct = true;
      site.free_line = ev.line;  // the last freeing branch's line
      return Stop(s);
    }
    // `return to_foo(obj)` hands obj to the caller through a conversion
    // wrapper — but only functions returning a pointer can do that;
    // `return use(obj)` in an int function is just a use.
    if (options.model_ownership_transfer && ev.op == SemOp::kReturn &&
        (ObjectsMatch(ev.object, acq.object) ||
         (ObjectsMatch(ev.aux, acq.object) &&
          fc.fn->return_type.view().find('*') != std::string_view::npos))) {
      site.transferred = true;
      return WalkStep::kStop;
    }
    if (options.model_ownership_transfer && ev.op == SemOp::kAssign && ev.escapes &&
        ObjectsMatch(ev.aux, acq.object)) {
      s |= kEscaped;  // keep walking: P9 looks at the escape/dec interaction
    }
    if (ev.op == SemOp::kAssign && !ev.escapes && node != acq_node && ev.object == acq.object &&
        ev.aux != acq.object) {
      site.reassigned_while_held = true;
    }
    if (ev.op == SemOp::kReturn) {
      if (NodeIsErrorReturn(*fc.cfg, node)) {
        s |= kErrorAfter;
      }
      Exit(s, ev.line);
      return WalkStep::kStop;
    }
    return WalkStep::kContinue;
  }

  // The NULL side of a checked acquisition holds no reference to release.
  bool Edge(int /*node*/, size_t succ, WalkState& s) {
    const bool null_side = (succ == 0 && (s & kNullSide0) != 0) ||
                           (succ == 1 && (s & kNullSide1) != 0);
    s &= ~(kNullSide0 | kNullSide1);
    if (null_side) {
      Stop(s);
    }
    return !null_side;
  }

  void End(WalkState s) { Exit(s, 0); }
};

// Fills the empty `sites`.
void ComputeAcquisitions(const FunctionContext& fc, const ScanOptions& options,
                         AcquisitionAnalysis& sites) {
  CfgWalk& walk = fc.Walk();
  for (const WalkPos& at : walk.ReachableEvents()) {
    const SemEvent& acq = *at.ev;
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
    walk.Run(at.node, at.index + 1, 0,
             AcquisitionWalk{{}, fc, options, acq, at.node, direct_store, site});
  }
}

}  // namespace

const AcquisitionAnalysis& AnalyzeAcquisitions(const FunctionContext& fc,
                                               const ScanOptions& options) {
  // The memo holds one option configuration; a caller with another one
  // (only tests mix configurations on one context) rebuilds it.
  const uint64_t key = (options.prune_null_branches ? 1u : 0u) |
                       (options.model_ownership_transfer ? 2u : 0u);
  AcquisitionCache& memo = fc.acquisition_cache;
  if (memo.key != key) {
    memo.Invalidate();  // stays stale if the computation throws
    ComputeAcquisitions(fc, options, memo.analysis);
    memo.key = key;
  }
  return memo.analysis;
}

// ------------------------------------------------------------------ P1

void CheckReturnError(const UnitContext& uc, const FunctionContext& fc, const KnowledgeBase& kb,
                      const ScanOptions& options, std::vector<BugReport>& out) {
  const auto& analysis = AnalyzeAcquisitions(fc, options);
  for (const auto& [key, site] : analysis) {
    if (site.api->returns_error && site.unpaired_error_path) {
      BugReport& r =
          AddReport(out, uc, fc, 1, Impact::kLeak, site.line, site.api->name, site.object);
      r.exit_line = site.error_exit_line;
      r.message = StrFormat("%s() increments even on failure; error path misses the decrement",
                            site.api->name.c_str());
    }
  }
}

// ------------------------------------------------------------------ P2

void CheckReturnNull(const UnitContext& uc, const FunctionContext& fc, const KnowledgeBase& kb,
                     const ScanOptions& options, std::vector<BugReport>& out) {
  std::set<std::string> seen;
  CfgWalk& walk = fc.Walk();
  for (const WalkPos& at : walk.ReachableEvents()) {
    const SemEvent& acq = *at.ev;
    if (acq.op != SemOp::kIncrease || acq.api == nullptr || !acq.api->may_return_null ||
        acq.object.empty()) {
      continue;
    }
    walk.Run(at.node, at.index + 1, 0, OnEvents([&](int node, const SemEvent& ev, WalkState&) {
      if (ev.op == SemOp::kNullCheck && ObjectsMatch(ev.object, acq.object)) {
        return WalkStep::kStop;  // guarded on this branch
      }
      if (ev.op == SemOp::kAssign && ev.object == acq.object && node != at.node) {
        return WalkStep::kStop;  // reassigned (same-node assign is the binding itself)
      }
      if (ev.op != SemOp::kDeref || !ObjectsMatch(ev.object, acq.object)) {
        return WalkStep::kContinue;
      }
      const std::string dedup = StrFormat("%u:%u", acq.line, ev.line);
      if (seen.insert(dedup).second) {
        BugReport& r =
            AddReport(out, uc, fc, 2, Impact::kNpd, acq.line, acq.api->name, acq.object.str());
        r.message = StrFormat("%s() may return NULL; '%s' dereferenced at line %u without a check",
                              acq.api->name.c_str(), acq.object.c_str(), ev.line);
      }
      return WalkStep::kStop;
    }));
  }
}

// ------------------------------------------------------------------ P3

namespace {

// From a smartloop head: the early exits of that loop (break, return, goto
// to an error label) a branch takes with no decrease of the iterator since
// the head — and without coming round to the head, whose next traversal
// would be the one to release in.
struct SmartLoopWalk : WalkVisitor {
  const Cfg& cfg;
  int head;
  Symbol iterator;
  std::vector<int>& exits;

  WalkStep Event(int /*node*/, const SemEvent& ev, WalkState&) {
    return ev.op == SemOp::kDecrease && ObjectsMatch(ev.object, iterator) ? WalkStep::kStop
                                                                         : WalkStep::kContinue;
  }
  bool Edge(int node, size_t succ, WalkState&) {
    const CfgNode& n = cfg.node(node);
    if (n.macro_loop == head && n.stmt != nullptr &&
        (n.stmt->kind == Stmt::Kind::kBreak || n.stmt->kind == Stmt::Kind::kReturn ||
         (n.stmt->kind == Stmt::Kind::kGoto && IsErrorLabel(n.stmt->name.view())))) {
      exits.push_back(node);
    }
    return cfg.succs(node)[succ] != head;
  }
};

}  // namespace

void CheckSmartLoopBreak(const UnitContext& uc, const FunctionContext& fc,
                         const KnowledgeBase& kb, const ScanOptions& options,
                         std::vector<BugReport>& out) {
  std::set<uint32_t> seen;
  std::vector<int> exits;
  CfgWalk& walk = fc.Walk();
  for (const WalkPos& at : walk.ReachableEvents()) {
    if (at.index != 0 || fc.cfg->node(at.node).kind != CfgNode::Kind::kLoopHead) {
      continue;  // one walk per head
    }
    // The head's last known loop event names the iterator; unknown macro
    // loops (e.g. list_for_each_entry) do no refcounting.
    const SemEvent* head = nullptr;
    for (const SemEvent& ev : fc.cpg->events(at.node)) {
      if (ev.op == SemOp::kLoopHead && ev.loop != nullptr) {
        head = &ev;
      }
    }
    if (head == nullptr || head->object.empty()) {
      continue;
    }
    exits.clear();
    walk.Run(at.node, 0, 0, SmartLoopWalk{{}, *fc.cfg, at.node, head->object, exits});
    for (const int exit_node : exits) {
      const uint32_t line = fc.cfg->node(exit_node).line;
      if (seen.insert(line).second) {
        BugReport& r =
            AddReport(out, uc, fc, 3, Impact::kLeak, line, head->loop->name, head->object.str());
        r.message = StrFormat(
            "early exit from %s at line %u leaks the iterator '%s' (put the node before leaving)",
            head->loop->name.c_str(), line, head->object.c_str());
      }
    }
  }
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
      BugReport& r =
          AddReport(out, uc, fc, 4, Impact::kLeak, site.line, site.api->name, site.object);
      r.message = StrFormat("%s() hides a refcount increase on '%s'; no path releases it",
                            site.api->name.c_str(), site.object.c_str());
    }
  }

  // Missing increase: a hidden-decrease API consumes a reference the caller
  // does not own (of_find_*(from) decrements `from`; a borrowed parameter
  // needs an of_node_get first). §5.2.2, 16 new bugs in the paper.
  std::set<std::string> seen;
  CfgWalk& walk = fc.Walk();
  for (const WalkPos& at : walk.ReachableEvents()) {
    const SemEvent& dec = *at.ev;
    if (dec.op != SemOp::kDecrease || dec.api == nullptr ||
        dec.api->direction != RefDirection::kIncrease || dec.object.empty()) {
      continue;  // only implicit consumption by find-like APIs
    }
    if (!fc.cpg->params().contains(RootSymbol(dec.object))) {
      continue;  // consuming a locally-acquired reference is the normal idiom
    }
    // Does some branch from the entry reach the call before any increase?
    bool unacquired = false;
    walk.Run(fc.cfg->entry(), 0, 0, OnEvents([&](int, const SemEvent& ev, WalkState&) {
      unacquired |= &ev == &dec;
      return ev.op == SemOp::kIncrease && ObjectsMatch(ev.object, dec.object)
                 ? WalkStep::kStop
                 : WalkStep::kContinue;
    }));
    const std::string dedup = StrFormat("mi:%u:%s", dec.line, dec.object.c_str());
    if (unacquired && seen.insert(dedup).second) {
      BugReport& r =
          AddReport(out, uc, fc, 4, Impact::kUaf, dec.line, dec.api->name, dec.object.str());
      r.message = StrFormat(
          "%s() consumes a reference on borrowed parameter '%s'; missing increase before the call",
          dec.api->name.c_str(), dec.object.c_str());
    }
  }
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
      BugReport& r =
          AddReport(out, uc, fc, 5, Impact::kLeak, site.line, site.api->name, site.object);
      r.exit_line = site.error_exit_line;
      r.message = StrFormat(
          "'%s' from %s() is released on the normal path but not in the error-handling path",
          site.object.c_str(), site.api->name.c_str());
    }
    // The Listing-5 shape: the held pointer is overwritten before any
    // release — the reference is orphaned. (This is also where the paper's
    // checkers produced their 5 false positives.)
    if (!site.paired_somewhere && !site.transferred && site.reassigned_while_held &&
        site.unpaired_path) {
      BugReport& r =
          AddReport(out, uc, fc, 5, Impact::kLeak, site.line, site.api->name, site.object);
      r.message = StrFormat("'%s' is overwritten while a reference from %s() is still held",
                            site.object.c_str(), site.api->name.c_str());
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

// What IdentifierWords + Join(words, "_") make of `name`, without a string
// per word: its alphanumeric runs, lower-cased and joined by '_' into
// `joined`, and each word's span there.
void JoinLowerWords(std::string_view name, std::string& joined,
                    std::vector<std::pair<size_t, size_t>>& words) {
  joined.clear();
  words.clear();
  size_t i = 0;
  while (i < name.size()) {
    while (i < name.size() && std::isalnum(static_cast<unsigned char>(name[i])) == 0) {
      ++i;
    }
    if (i == name.size()) {
      break;
    }
    if (!words.empty()) {
      joined.push_back('_');
    }
    const size_t start = joined.size();
    for (; i < name.size() && std::isalnum(static_cast<unsigned char>(name[i])) != 0; ++i) {
      joined.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(name[i]))));
    }
    words.emplace_back(start, joined.size() - start);
  }
}

}  // namespace

InterUnpairedCheck::InterUnpairedCheck(const TranslationUnit& unit)
    : functions_(unit.functions.size()) {
  // One name index: every function name with the first function of that
  // name (the one a pair refers to), sorted for binary search.
  std::vector<std::pair<std::string_view, uint32_t>> index;
  index.reserve(unit.functions.size());
  for (size_t i = 0; i < unit.functions.size(); ++i) {
    index.emplace_back(unit.functions[i].name.view(), static_cast<uint32_t>(i));
  }
  std::sort(index.begin(), index.end());
  const auto first_named = [&index](std::string_view name) -> int {
    const auto it = std::lower_bound(index.begin(), index.end(),
                                     std::pair<std::string_view, uint32_t>(name, 0));
    return it != index.end() && it->first == name ? static_cast<int>(it->second) : -1;
  };
  const auto add_pair = [&](int acq, int rel) {
    if (acq >= 0 && rel >= 0) {
      pairs_.push_back(Pair{static_cast<uint32_t>(acq), static_cast<uint32_t>(rel)});
      functions_[static_cast<size_t>(acq)].roles |= kAcquirer;
      functions_[static_cast<size_t>(rel)].roles |= kReleaser;
    }
  };

  // Pair discovery 1: ops-struct designated initializers (§5.3.2). The last
  // initializer of a field wins.
  for (const GlobalVar& g : unit.globals) {
    for (const auto& [acq_field, rel_field] : PairedOpsFields()) {
      Symbol acq_fn;
      Symbol rel_fn;
      for (const DesignatedInit& init : g.inits) {
        if (init.field == acq_field) {
          acq_fn = init.value;
        }
        if (init.field == rel_field) {
          rel_fn = init.value;
        }
      }
      if (!acq_fn.empty() && !rel_fn.empty()) {
        add_pair(first_named(acq_fn.view()), first_named(rel_fn.view()));
      }
    }
  }

  // Pair discovery 2: name-paired functions (foo_register/foo_unregister):
  // the candidate is the function's lower-cased words joined by '_', one
  // acquire word swapped for its release word.
  std::string joined;
  std::vector<std::pair<size_t, size_t>> words;
  std::string candidate;
  for (const FunctionDef& fn : unit.functions) {
    const std::string_view name = fn.name.view();
    JoinLowerWords(name, joined, words);
    for (const auto& [at, length] : words) {
      const std::string release = PairedReleaseWord(std::string_view(joined).substr(at, length));
      if (release.empty()) {
        continue;
      }
      candidate.assign(joined, 0, at);
      candidate += release;
      candidate.append(joined, at + length);
      if (candidate != name) {
        add_pair(first_named(name), first_named(candidate));
      }
    }
  }
}

void InterUnpairedCheck::Record(size_t index, const FunctionContext& fc,
                                const ScanOptions& options) {
  PairedFunction& f = functions_[index];
  if ((f.roles & kAcquirer) != 0) {
    for (const auto& [key, site] : AnalyzeAcquisitions(fc, options)) {
      if (!site.paired_somewhere && !site.freed_direct) {  // else balanced (or a P7 case)
        f.held.push_back(Held{site.line, site.api, site.object});
      }
    }
  }
  if ((f.roles & kReleaser) != 0) {
    f.released = DecreaseFamilies(fc);
  }
}

void InterUnpairedCheck::Emit(const TranslationUnit& unit, std::vector<BugReport>& out) const {
  std::set<std::string> seen;
  for (const Pair& pair : pairs_) {
    const FunctionDef& acq = unit.functions[pair.acq];
    const std::set<std::string>& released = functions_[pair.rel].released;
    for (const Held& site : functions_[pair.acq].held) {
      const std::string family = ApiFamily(site.api->name);
      if (released.contains(family)) {
        continue;
      }
      if (!seen.insert(StrFormat("%s:%u", acq.name.c_str(), site.line)).second) {
        continue;
      }
      BugReport& r =
          AddReport(out, unit, acq, 6, Impact::kLeak, site.line, site.api->name, site.object);
      r.message = StrFormat("%s() acquires via %s() but paired %s() never releases the %s family",
                            acq.name.c_str(), site.api->name.c_str(),
                            unit.functions[pair.rel].name.c_str(), family.c_str());
    }
  }
}

void CheckInterUnpaired(const UnitContext& uc, const KnowledgeBase& kb,
                        const ScanOptions& options, std::vector<BugReport>& out) {
  InterUnpairedCheck check(uc.unit);
  for (size_t i = 0; i < uc.functions.size(); ++i) {
    check.Record(i, uc.functions[i], options);
  }
  check.Emit(uc.unit, out);
}

// ------------------------------------------------------------------ P7

void CheckDirectFree(const UnitContext& uc, const FunctionContext& fc, const KnowledgeBase& kb,
                     const ScanOptions& options, std::vector<BugReport>& out) {
  const auto& analysis = AnalyzeAcquisitions(fc, options);
  for (const auto& [key, site] : analysis) {
    if (site.freed_direct) {
      BugReport& r =
          AddReport(out, uc, fc, 7, Impact::kLeak, site.free_line, site.api->name, site.object);
      r.message = StrFormat(
          "'%s' (refcounted via %s()) is kfree'd directly at line %u; the release callback never runs",
          site.object.c_str(), site.api->name.c_str(), site.free_line);
    }
  }
}

// ------------------------------------------------------------------ P8

void CheckUseAfterDecrease(const UnitContext& uc, const FunctionContext& fc,
                           const KnowledgeBase& kb, const ScanOptions& options,
                           std::vector<BugReport>& out) {
  std::set<std::string> seen;
  CfgWalk& walk = fc.Walk();
  for (const WalkPos& at : walk.ReachableEvents()) {
    const SemEvent& dec = *at.ev;
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
    walk.Run(at.node, at.index + 1, 0, OnEvents([&](int, const SemEvent& ev, WalkState&) {
      if ((ev.op == SemOp::kIncrease || ev.op == SemOp::kAssign) &&
          RootsMatch(ev.object, dec.object)) {
        return WalkStep::kStop;  // re-acquired or re-initialised
      }
      const bool uses =
          (ev.op == SemOp::kDeref || ev.op == SemOp::kUnlock || ev.op == SemOp::kLock) &&
          RootsMatch(ev.object, dec.object);
      if (!uses) {
        return WalkStep::kContinue;
      }
      const std::string dedup = StrFormat("%u:%u:%s", dec.line, ev.line, root.c_str());
      if (seen.insert(dedup).second) {
        BugReport& r =
            AddReport(out, uc, fc, 8, Impact::kUaf, dec.line, dec.api->name, dec.object.str());
        r.message =
            StrFormat("'%s' is used at line %u after %s() at line %u may have freed it (UAD)",
                      root.c_str(), ev.line, dec.api->name.c_str(), dec.line);
      }
      return WalkStep::kStop;
    }));
  }
}

// ------------------------------------------------------------------ P9

namespace {

// After an escape of `ref`: does a later branch drop the function's own
// reference before re-acquiring it — with no increase right at the escape
// point (within the next two events), the correct idiom? State: events
// seen since the escape (capped at 2), plus kDropped.
struct DropWalk : WalkVisitor {
  static constexpr WalkState kDropped = 4;
  Symbol ref;
  bool dangling = false;

  WalkStep Event(int /*node*/, const SemEvent& ev, WalkState& s) {
    if (ev.op == SemOp::kIncrease && ObjectsMatch(ev.object, ref)) {
      return WalkStep::kStop;  // adjacent increase, or re-acquired before any drop
    }
    if (ev.op == SemOp::kDecrease && ObjectsMatch(ev.object, ref)) {
      s |= kDropped;
    }
    if ((s & ~kDropped) < 2) {
      ++s;
    }
    dangling |= s == (kDropped | 2);
    return s == (kDropped | 2) ? WalkStep::kStop : WalkStep::kContinue;
  }
  void End(WalkState s) { dangling |= (s & kDropped) != 0; }
};

}  // namespace

void CheckReferenceEscape(const UnitContext& uc, const FunctionContext& fc,
                          const KnowledgeBase& kb, const ScanOptions& options,
                          std::vector<BugReport>& out) {
  std::set<std::string> seen;
  CfgWalk& walk = fc.Walk();
  for (const WalkPos& at : walk.ReachableEvents()) {
    const SemEvent& esc = *at.ev;
    if (esc.op != SemOp::kAssign || !esc.escapes || esc.aux.empty()) {
      continue;
    }
    // The stored alias becomes dangling when a later branch drops the
    // function's own reference before re-acquiring it.
    DropWalk drop{{}, esc.aux};
    walk.Run(at.node, at.index + 1, 0, drop);
    if (!drop.dangling) {
      continue;
    }
    // ...and only if the escaping value is a reference some branch from the
    // entry holds here: its last increase or decrease before the escape
    // was an increase. State 1 = held.
    bool held = false;
    walk.Run(fc.cfg->entry(), 0, 0, OnEvents([&](int, const SemEvent& ev, WalkState& s) {
      held |= &ev == &esc && s == 1;
      if (ev.op == SemOp::kIncrease && ObjectsMatch(ev.object, esc.aux)) {
        s = 1;
      } else if (ev.op == SemOp::kDecrease && ObjectsMatch(ev.object, esc.aux)) {
        s = 0;
      }
      return WalkStep::kContinue;
    }));
    const std::string dedup = StrFormat("%u:%s", esc.line, esc.object.c_str());
    if (held && seen.insert(dedup).second) {
      BugReport& r =
          AddReport(out, uc, fc, 9, Impact::kUaf, esc.line, esc.aux.str(), esc.object.str());
      r.message = StrFormat(
          "reference '%s' escapes into '%s' at line %u without an increase, then is dropped",
          esc.aux.c_str(), esc.object.c_str(), esc.line);
    }
  }
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
      BugReport& r = AddReport(out, uc, fc, 10, Impact::kUaf, ev.line, "", ev.object.str());
      r.message = StrFormat(
          "raw %s of refcount field '%s' bypasses the checked API; saturation and "
          "overflow protection are lost",
          ev.op == SemOp::kRawInc ? "increment" : "decrement", ev.object.c_str());
    }
  }
}

// ------------------------------------------------------------------ P11

void CheckTestAndFree(const UnitContext& uc, const FunctionContext& fc, const KnowledgeBase& kb,
                      const ScanOptions& options, std::vector<BugReport>& out) {
  std::set<std::string> seen;
  CfgWalk& walk = fc.Walk();
  for (const WalkPos& at : walk.ReachableEvents()) {
    const SemEvent& dec = *at.ev;
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
        BugReport& r =
            AddReport(out, uc, fc, 11, Impact::kLeak, dec.line, dec.api->name, dec.object.str());
        r.message = StrFormat(
            "%s() result ignored at line %u: when the last reference drops, nothing frees '%s'",
            dec.api->name.c_str(), dec.line, root.c_str());
      }
      continue;
    }
    // Result tested: follow the true branch to the free it runs — only a
    // free of the object itself counts (exact root match; `kfree(o->name)`
    // inside a destructor releases a member) — and on to anything touching
    // the object after it: a use-after-free or a double free. State 1 =
    // freed, at `free_line`: the one free on the walk's current branch.
    uint32_t free_line = 0;
    walk.Run(at.node, at.index + 1, 0, OnEvents([&](int, const SemEvent& ev, WalkState& freed) {
      if (ev.op == SemOp::kAssign && RootsMatch(ev.object, dec.object)) {
        return WalkStep::kStop;  // re-bound to a fresh object
      }
      if (freed == 0) {
        if (ev.op == SemOp::kIncrease && RootsMatch(ev.object, dec.object)) {
          return WalkStep::kStop;  // re-acquired before any free
        }
        if (ev.op == SemOp::kFree && ev.object == root) {
          freed = 1;
          free_line = ev.line;
        }
        return WalkStep::kContinue;
      }
      const bool refree = ev.op == SemOp::kFree && ev.object == root;
      const bool uses =
          (ev.op == SemOp::kDeref || ev.op == SemOp::kLock || ev.op == SemOp::kUnlock) &&
          RootsMatch(ev.object, dec.object);
      if (!refree && !uses) {
        return WalkStep::kContinue;
      }
      const std::string dedup = StrFormat("tf:%u:%u:%s", dec.line, ev.line, root.c_str());
      if (seen.insert(dedup).second) {
        BugReport& r =
            AddReport(out, uc, fc, 11, Impact::kUaf, dec.line, dec.api->name, dec.object.str());
        r.message = StrFormat(
            "'%s' is %s at line %u after the %s() true branch already freed it at line %u",
            root.c_str(), refree ? "freed again" : "used", ev.line, dec.api->name.c_str(),
            free_line);
      }
      return WalkStep::kStop;
    }));
  }
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
      BugReport& r = AddReport(out, uc, fc, 12, Impact::kUaf, ev.line, "", ev.object.str());
      r.message = StrFormat(
          "refcount field '%s' is reset to 0 at line %u; outstanding references are orphaned "
          "and the next put underflows",
          ev.object.c_str(), ev.line);
    }
  }
}

}  // namespace refscan
