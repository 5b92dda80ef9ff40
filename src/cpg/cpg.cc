#include "src/cpg/cpg.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <mutex>

namespace refscan {

namespace {

const Expr* StripTransparent(const Expr* e) {
  while (e != nullptr) {
    if (e->kind == Expr::Kind::kCast && !e->args.empty()) {
      e = e->args[0];
      continue;
    }
    if (e->kind == Expr::Kind::kUnary && e->value == "&" && !e->args.empty()) {
      e = e->args[0];
      continue;
    }
    break;
  }
  return e;
}

// Appends `e`'s spelling to `out`; false when the expression has no stable
// identity (then `out` is garbage and the caller discards it).
bool AppendSpelling(const Expr* e, std::string& out) {
  e = StripTransparent(e);
  if (e == nullptr) {
    return false;
  }
  switch (e->kind) {
    case Expr::Kind::kIdent:
      if (e->value == "NULL") {
        return false;
      }
      out.append(e->value.view());
      return true;
    case Expr::Kind::kMember: {
      if (e->args.empty() || e->args[0] == nullptr ||
          !AppendSpelling(e->args[0], out)) {
        return false;
      }
      out.append(e->arrow ? "->" : ".");
      out.append(e->value.view());
      return true;
    }
    case Expr::Kind::kUnary:
      if (e->value == "*" && !e->args.empty() && e->args[0] != nullptr) {
        out.push_back('*');
        return AppendSpelling(e->args[0], out);
      }
      return false;
    case Expr::Kind::kIndex: {
      if (e->args.empty() || e->args[0] == nullptr ||
          !AppendSpelling(e->args[0], out)) {
        return false;
      }
      out.append("[]");
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

Symbol ObjectSpelling(const Expr& expr) {
  const Expr* e = StripTransparent(&expr);
  if (e == nullptr) {
    return Symbol();
  }
  if (e->kind == Expr::Kind::kIdent) {
    // Fast path: the identifier is already interned in the AST.
    return e->value == "NULL" ? Symbol() : e->value;
  }
  thread_local std::string scratch;
  scratch.clear();
  if (!AppendSpelling(e, scratch) || scratch.empty()) {
    return Symbol();
  }
  return Intern(scratch);
}

Symbol ObjectRoot(const Expr& expr) {
  const Expr* e = StripTransparent(&expr);
  while (e != nullptr &&
         (e->kind == Expr::Kind::kMember || e->kind == Expr::Kind::kIndex ||
          (e->kind == Expr::Kind::kUnary && e->value == "*"))) {
    e = e->args.empty() ? nullptr : StripTransparent(e->args[0]);
  }
  if (e != nullptr && e->kind == Expr::Kind::kIdent && e->value != "NULL") {
    return e->value;
  }
  return Symbol();
}

std::string ObjectRootOfSpelling(std::string_view spelling) {
  size_t i = 0;
  while (i < spelling.size() && spelling[i] == '*') {
    ++i;
  }
  size_t end = i;
  while (end < spelling.size() &&
         (std::isalnum(static_cast<unsigned char>(spelling[end])) != 0 || spelling[end] == '_')) {
    ++end;
  }
  return std::string(spelling.substr(i, end - i));
}

namespace {

// spelling-Symbol id -> root-Symbol id + 1 (0 = not yet computed). Same
// two-level page layout as the interner; pages are allocated on demand and
// entries are idempotent (every writer computes the same root), so plain
// relaxed atomics suffice.
constexpr uint32_t kRootPageBits = 12;
constexpr uint32_t kRootPageSize = 1u << kRootPageBits;
constexpr uint32_t kRootMaxPages = 4096;

struct RootPage {
  std::atomic<uint32_t> roots[kRootPageSize] = {};
};

std::atomic<RootPage*> g_root_pages[kRootMaxPages] = {};
std::mutex g_root_page_mu;

}  // namespace

Symbol RootSymbol(Symbol spelling) {
  const uint32_t id = spelling.id();
  const uint32_t page_index = id >> kRootPageBits;
  RootPage* page = g_root_pages[page_index].load(std::memory_order_acquire);
  if (page == nullptr) {
    std::lock_guard<std::mutex> lock(g_root_page_mu);
    page = g_root_pages[page_index].load(std::memory_order_relaxed);
    if (page == nullptr) {
      page = new RootPage();
      g_root_pages[page_index].store(page, std::memory_order_release);
    }
  }
  std::atomic<uint32_t>& slot = page->roots[id & (kRootPageSize - 1)];
  const uint32_t cached = slot.load(std::memory_order_relaxed);
  if (cached != 0) {
    return Symbol(cached - 1);
  }
  const std::string_view text = spelling.view();
  size_t i = 0;
  while (i < text.size() && text[i] == '*') {
    ++i;
  }
  size_t end = i;
  while (end < text.size() &&
         (std::isalnum(static_cast<unsigned char>(text[end])) != 0 || text[end] == '_')) {
    ++end;
  }
  const Symbol root = Intern(text.substr(i, end - i));
  slot.store(root.id() + 1, std::memory_order_relaxed);
  return root;
}

namespace {

// Walks expressions of one CFG node and emits SemEvents in evaluation order.
class EventExtractor {
 public:
  EventExtractor(const KnowledgeBase& kb, const SymbolSet& params,
                 const SymbolSet& locals, std::vector<SemEvent>& out)
      : kb_(kb), params_(params), locals_(locals), out_(out) {}

  // address_taken: the immediately-enclosing operator is '&', so a member
  // access does not read memory.
  void Visit(const Expr& e, uint32_t line, bool address_taken = false) {
    switch (e.kind) {
      case Expr::Kind::kAssign:
        VisitAssign(e, line);
        return;
      case Expr::Kind::kCall:
        VisitCall(e, line);
        return;
      case Expr::Kind::kMember: {
        if (e.arrow && !address_taken && !e.args.empty() && e.args[0] != nullptr) {
          Emit(SemOp::kDeref, ObjectSpelling(*e.args[0]), line);
        }
        if (!e.args.empty() && e.args[0] != nullptr) {
          // The base of `a->b->c` is itself a deref of `a`.
          Visit(*e.args[0], line, /*address_taken=*/false);
        }
        return;
      }
      case Expr::Kind::kUnary: {
        if (e.args.empty() || e.args[0] == nullptr) {
          return;
        }
        if (e.value == "*" && !address_taken) {
          Emit(SemOp::kDeref, ObjectSpelling(*e.args[0]), line);
        }
        // Raw ++/-- on a known refcount field bypasses the checked
        // saturating APIs (P10): `obj->refcnt++` where `refcnt` was declared
        // refcount_t / kref / typed-atomic.
        if ((e.value == "++" || e.value == "--") &&
            e.args[0]->kind == Expr::Kind::kMember &&
            kb_.IsRefcountField(e.args[0]->value)) {
          const Symbol obj = ObjectSpelling(*e.args[0]);
          if (!obj.empty()) {
            Emit(e.value == "++" ? SemOp::kRawInc : SemOp::kRawDec, obj, line);
          }
        }
        const bool inner_addr = e.value == "&";
        Visit(*e.args[0], line, inner_addr);
        return;
      }
      case Expr::Kind::kIndex: {
        if (!e.args.empty() && e.args[0] != nullptr) {
          if (!address_taken) {
            Emit(SemOp::kDeref, ObjectSpelling(*e.args[0]), line);
          }
          Visit(*e.args[0], line);
        }
        if (e.args.size() > 1 && e.args[1] != nullptr) {
          Visit(*e.args[1], line);
        }
        return;
      }
      default:
        for (const ExprPtr child : e.args) {
          if (child != nullptr) {
            Visit(*child, line);
          }
        }
        return;
    }
  }

  // Extracts NULL-check events from a branch condition (in addition to the
  // regular Visit events, which the caller also runs).
  void VisitCondition(const Expr& e, uint32_t line) {
    switch (e.kind) {
      case Expr::Kind::kUnary:
        if (e.value == "!" && !e.args.empty() && e.args[0] != nullptr) {
          const Symbol obj = ObjectSpelling(*e.args[0]);
          if (!obj.empty()) {
            EmitNullCheck(obj, line, /*true_is_null=*/true);
          }
        }
        return;
      case Expr::Kind::kIdent: {
        if (e.value != "NULL") {
          EmitNullCheck(e.value, line, /*true_is_null=*/false);
        }
        return;
      }
      case Expr::Kind::kMember: {
        const Symbol obj = ObjectSpelling(e);
        if (!obj.empty()) {
          EmitNullCheck(obj, line, /*true_is_null=*/false);
        }
        return;
      }
      case Expr::Kind::kBinary: {
        if (e.args.size() < 2 || e.args[0] == nullptr || e.args[1] == nullptr) {
          return;
        }
        const bool rhs_null = (e.args[1]->kind == Expr::Kind::kIdent &&
                               e.args[1]->value == "NULL") ||
                              (e.args[1]->kind == Expr::Kind::kLiteral && e.args[1]->value == "0");
        if ((e.value == "==" || e.value == "!=") && rhs_null) {
          const Symbol obj = ObjectSpelling(*e.args[0]);
          if (!obj.empty()) {
            EmitNullCheck(obj, line, /*true_is_null=*/e.value == "==");
          }
          return;
        }
        if (e.value == "&&" || e.value == "||") {
          VisitCondition(*e.args[0], line);
          VisitCondition(*e.args[1], line);
        }
        return;
      }
      case Expr::Kind::kAssign:
        // `if ((np = of_find_node(...)))` — the assigned object is checked.
        if (!e.args.empty() && e.args[0] != nullptr) {
          const Symbol obj = ObjectSpelling(*e.args[0]);
          if (!obj.empty()) {
            EmitNullCheck(obj, line, /*true_is_null=*/false);
          }
        }
        return;
      case Expr::Kind::kCall: {
        // `if (IS_ERR(np))` guards ERR_PTR-returning acquirers the same way
        // a NULL check guards NULL-returning ones.
        const Symbol callee = e.CalleeName();
        if ((callee == "IS_ERR" || callee == "IS_ERR_OR_NULL") && e.args.size() > 1 &&
            e.args[1] != nullptr) {
          const Symbol obj = ObjectSpelling(*e.args[1]);
          if (!obj.empty()) {
            EmitNullCheck(obj, line, /*true_is_null=*/true);
          }
        }
        if ((callee == "unlikely" || callee == "likely") && e.args.size() > 1 &&
            e.args[1] != nullptr) {
          VisitCondition(*e.args[1], line);
        }
        return;
      }
      default:
        return;
    }
  }

 private:
  void Emit(SemOp op, Symbol object, uint32_t line) {
    if (op == SemOp::kDeref && object.empty()) {
      return;
    }
    SemEvent ev;
    ev.op = op;
    ev.object = object;
    ev.line = line;
    out_.push_back(ev);
  }

  void EmitNullCheck(Symbol object, uint32_t line, bool true_is_null) {
    SemEvent ev;
    ev.op = SemOp::kNullCheck;
    ev.object = object;
    ev.line = line;
    ev.checks_null_true_branch = true_is_null;
    out_.push_back(ev);
  }

  void VisitAssign(const Expr& e, uint32_t line) {
    if (e.args.size() < 2 || e.args[0] == nullptr || e.args[1] == nullptr) {
      return;
    }
    const Expr& lhs = *e.args[0];
    const Expr& rhs = *e.args[1];

    // Writing through a pointer lhs dereferences its base.
    if (lhs.kind == Expr::Kind::kMember && lhs.arrow && !lhs.args.empty() &&
        lhs.args[0] != nullptr) {
      Emit(SemOp::kDeref, ObjectSpelling(*lhs.args[0]), line);
    }
    if (lhs.kind == Expr::Kind::kUnary && lhs.value == "*" && !lhs.args.empty() &&
        lhs.args[0] != nullptr) {
      Emit(SemOp::kDeref, ObjectSpelling(*lhs.args[0]), line);
    }

    // rhs first (evaluation order does not matter for matching).
    Visit(rhs, line);

    // Compound/plain stores to a known refcount field (P10/P12): `+=`/`-=`
    // are raw manipulation like ++/--; `= <literal>` is a reset (kRawSet,
    // with the `= 1` init idiom recorded as nonzero so P12 can allow it).
    if (lhs.kind == Expr::Kind::kMember && kb_.IsRefcountField(lhs.value)) {
      const Symbol field_obj = ObjectSpelling(lhs);
      if (!field_obj.empty()) {
        if (e.value == "+=") {
          Emit(SemOp::kRawInc, field_obj, line);
        } else if (e.value == "-=") {
          Emit(SemOp::kRawDec, field_obj, line);
        } else if (e.value == "=" && rhs.kind == Expr::Kind::kLiteral) {
          SemEvent raw;
          raw.op = SemOp::kRawSet;
          raw.object = field_obj;
          raw.line = line;
          raw.raw_set_nonzero = rhs.value != "0";
          out_.push_back(raw);
        }
      }
    }

    const Symbol lhs_obj = ObjectSpelling(lhs);
    SemEvent ev;
    ev.op = SemOp::kAssign;
    ev.object = lhs_obj;
    ev.aux = ObjectSpelling(rhs);
    if (const Expr* rhs_call = StripTransparent(&rhs);
        rhs_call != nullptr && rhs_call->kind == Expr::Kind::kCall) {
      // Assignment from a call: the call's own events (e.g. 𝒢 of the
      // returned object) were emitted by Visit(rhs) with the lhs unknown;
      // PatchCallResult below rewrites them. Record the call for that.
      pending_call_result_ = lhs_obj;
    }
    ev.line = line;
    ev.escapes = EscapesScope(lhs);
    out_.push_back(ev);
    PatchCallResult();
  }

  // An lhs escapes the function when it is a global identifier (not a local
  // or parameter) or a store through a parameter (out-param / longer-lived
  // object field).
  bool EscapesScope(const Expr& lhs) const {
    const Symbol root = ObjectRoot(lhs);
    if (root.empty()) {
      return false;
    }
    const bool is_param = params_.contains(root);
    const bool is_local = locals_.contains(root);
    if (lhs.kind == Expr::Kind::kIdent) {
      return !is_param && !is_local;  // plain write to a global
    }
    // Member/deref store: escapes when rooted in a parameter or a global.
    if (is_param) {
      return true;
    }
    return !is_local;
  }

  void VisitCall(const Expr& e, uint32_t line) {
    const Symbol callee = e.CalleeName();
    const RefApiInfo* api = kb_.FindApi(callee);

    // Visit arguments first (derefs inside argument expressions).
    for (size_t i = 1; i < e.args.size(); ++i) {
      if (e.args[i] != nullptr) {
        Visit(*e.args[i], line, /*address_taken=*/false);
      }
    }

    auto arg_object = [&](int index) -> Symbol {
      const size_t slot = static_cast<size_t>(index) + 1;
      if (index < 0 || slot >= e.args.size() || e.args[slot] == nullptr) {
        return Symbol();
      }
      return ObjectSpelling(*e.args[slot]);
    };

    if (api != nullptr) {
      if (api->consumed_param >= 0) {
        const Symbol victim = arg_object(api->consumed_param);
        if (!victim.empty()) {
          SemEvent ev;
          ev.op = SemOp::kDecrease;
          ev.object = victim;
          ev.api = api;
          ev.line = line;
          out_.push_back(ev);
        }
      }
      SemEvent ev;
      ev.op = api->direction == RefDirection::kIncrease ? SemOp::kIncrease : SemOp::kDecrease;
      ev.api = api;
      ev.line = line;
      if (api->returns_object && api->object_param < 0) {
        // Object is the return value; the enclosing assignment (if any)
        // patches in the lhs spelling.
        ev.object = Symbol();
        out_.push_back(ev);
        unpatched_result_ = static_cast<int>(out_.size()) - 1;
      } else {
        ev.object = arg_object(api->object_param);
        out_.push_back(ev);
      }
      return;
    }

    // Summarised helpers known to dereference some of their parameters get
    // synthetic 𝒟 events at the call site, so use-after-decrease shapes
    // hidden inside helpers stay visible to the checkers.
    if (const std::vector<int>* derefs = kb_.FindParamDerefs(callee); derefs != nullptr) {
      for (const int param : *derefs) {
        Emit(SemOp::kDeref, arg_object(param), line);
      }
    }

    if (kb_.IsFreeApi(callee)) {
      Emit(SemOp::kFree, arg_object(0), line);
      return;
    }
    // Ownership sinks: the callee stores this argument into longer-lived
    // state, so the caller's reference escapes through the call.
    if (const int sink_param = kb_.FindOwnershipSink(callee); sink_param >= 0) {
      const Symbol victim = arg_object(sink_param);
      if (!victim.empty()) {
        thread_local std::string scratch;
        scratch.assign(callee.view());
        scratch.append("()");
        SemEvent ev;
        ev.op = SemOp::kAssign;
        ev.object = Intern(scratch);
        ev.aux = victim;
        ev.line = line;
        ev.escapes = true;
        out_.push_back(ev);
      }
    }
    if (KnowledgeBase::IsLockFunction(callee)) {
      Emit(SemOp::kLock, arg_object(0), line);
      return;
    }
    if (KnowledgeBase::IsUnlockFunction(callee)) {
      Emit(SemOp::kUnlock, arg_object(0), line);
      return;
    }
  }

  void PatchCallResult() {
    if (unpatched_result_ >= 0 && !pending_call_result_.empty()) {
      out_[static_cast<size_t>(unpatched_result_)].object = pending_call_result_;
    }
    unpatched_result_ = -1;
    pending_call_result_ = Symbol();
  }

  const KnowledgeBase& kb_;
  const SymbolSet& params_;
  const SymbolSet& locals_;
  std::vector<SemEvent>& out_;
  int unpatched_result_ = -1;
  Symbol pending_call_result_;
};

}  // namespace

Cpg BuildCpg(const Cfg& cfg, const KnowledgeBase& kb) {
  Cpg cpg;
  RebuildCpg(cpg, cfg, kb);
  return cpg;
}

void RebuildCpg(Cpg& cpg, const Cfg& cfg, const KnowledgeBase& kb) {
  cpg.cfg_ = &cfg;
  cpg.kb_ = &kb;
  cpg.events_.clear();
  cpg.event_offsets_.clear();
  cpg.params_.clear();
  cpg.locals_.clear();
  cpg.event_offsets_.reserve(cfg.size() + 1);
  cpg.event_offsets_.push_back(0);

  const FunctionDef* fn = cfg.function();
  for (const Param& p : fn->params) {
    if (!p.name.empty()) {
      cpg.params_.insert(p.name);
    }
  }
  if (fn->body != nullptr) {
    ForEachStmt(*fn->body, [&cpg](const Stmt& s) {
      if (s.kind == Stmt::Kind::kDecl && !s.name.empty()) {
        cpg.locals_.insert(s.name);
      }
    });
  }

  // Nodes are processed in index order, appending to the flat array; the
  // offset for node i is sealed when the loop advances (see the `seal`
  // labels below — every `continue` path records the end offset).
  std::vector<SemEvent>& events = cpg.events_;
  const auto seal = [&cpg] {
    cpg.event_offsets_.push_back(static_cast<uint32_t>(cpg.events_.size()));
  };
  // P11: a tests_zero decrease (refcount_dec_and_test & co) whose boolean
  // result feeds this node's condition / initializer / assignment / return is
  // "tested" — the caller observed the 1 -> 0 transition. The call's events
  // are necessarily in the node's own slice, so marking the slice suffices.
  const auto mark_tested = [&events](size_t from) {
    for (size_t k = from; k < events.size(); ++k) {
      SemEvent& ev = events[k];
      if (ev.op == SemOp::kDecrease && ev.api != nullptr && ev.api->tests_zero) {
        ev.result_tested = true;
      }
    }
  };
  for (size_t i = 0; i < cfg.size(); ++i) {
    const CfgNode& node = cfg.node(static_cast<int>(i));
    const size_t node_start = events.size();
    EventExtractor extractor(kb, cpg.params_, cpg.locals_, events);

    if (node.kind == CfgNode::Kind::kLoopHead && node.expr != nullptr &&
        node.expr->kind == Expr::Kind::kCall) {
      SemEvent ev;
      ev.op = SemOp::kLoopHead;
      ev.line = node.line;
      ev.loop = kb.FindSmartLoop(node.expr->CalleeName());
      if (ev.loop != nullptr) {
        const size_t slot = static_cast<size_t>(ev.loop->iterator_arg) + 1;
        if (slot < node.expr->args.size() && node.expr->args[slot] != nullptr) {
          ev.object = ObjectSpelling(*node.expr->args[slot]);
        }
      }
      events.push_back(ev);
      // Also extract ordinary events from the head's other arguments
      // (e.g. a consumed `from` pointer is not modelled for macros).
      seal();
      continue;
    }

    // kDecl initializer: synthesise the assignment into the declared name.
    if (node.stmt != nullptr && node.stmt->kind == Stmt::Kind::kDecl) {
      if (node.expr != nullptr) {
        // `type name = init;` has assignment semantics: visit the
        // initializer, patch any returns-object refcount event with the
        // declared name, then record the 𝒜 event.
        extractor.Visit(*node.expr, node.line);
        // Patch a pending returns-object event (find-like initializer);
        // only this node's slice of the flat array is a candidate.
        for (size_t k = events.size(); k > node_start; --k) {
          SemEvent& cand = events[k - 1];
          if ((cand.op == SemOp::kIncrease || cand.op == SemOp::kDecrease) &&
              cand.object.empty() && cand.api != nullptr && cand.api->returns_object &&
              cand.api->object_param < 0) {
            cand.object = node.stmt->name;
            break;
          }
        }
        SemEvent ev;
        ev.op = SemOp::kAssign;
        ev.object = node.stmt->name;
        ev.aux = ObjectSpelling(*node.expr);
        ev.line = node.line;
        ev.escapes = false;  // declarations never escape
        events.push_back(ev);
        mark_tested(node_start);  // `bool dead = refcount_dec_and_test(...)`
      }
      seal();
      continue;
    }

    if (node.kind == CfgNode::Kind::kCondition && node.expr != nullptr) {
      extractor.Visit(*node.expr, node.line);
      extractor.VisitCondition(*node.expr, node.line);
      mark_tested(node_start);  // `if (refcount_dec_and_test(...))`
      seal();
      continue;
    }

    if (node.stmt != nullptr && node.stmt->kind == Stmt::Kind::kReturn) {
      if (node.expr != nullptr) {
        extractor.Visit(*node.expr, node.line);
      }
      SemEvent ev;
      ev.op = SemOp::kReturn;
      ev.line = node.line;
      if (node.expr != nullptr) {
        ev.object = ObjectSpelling(*node.expr);
        // `return to_foo(obj)` / `return container_of(obj, ...)` transfers
        // obj's ownership through the wrapper; record the argument so the
        // acquisition analysis can see the hand-off.
        if (ev.object.empty() && node.expr->kind == Expr::Kind::kCall &&
            node.expr->CalleeName() != "ERR_PTR" && node.expr->CalleeName() != "ERR_CAST") {
          for (size_t a = 1; a < node.expr->args.size(); ++a) {
            if (node.expr->args[a] != nullptr) {
              const Symbol spelling = ObjectSpelling(*node.expr->args[a]);
              if (!spelling.empty()) {
                ev.aux = spelling;
                break;
              }
            }
          }
        }
      }
      events.push_back(ev);
      mark_tested(node_start);  // `return refcount_dec_and_test(...)`
      seal();
      continue;
    }

    if (node.expr != nullptr) {
      extractor.Visit(*node.expr, node.line);
      if (node.expr->kind == Expr::Kind::kAssign) {
        mark_tested(node_start);  // `dead = refcount_dec_and_test(...)`
      }
    }
    seal();
  }
}

}  // namespace refscan
