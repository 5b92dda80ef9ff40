#include "src/cfg/cfg.h"

#include <cctype>

#include "src/support/governor.h"

namespace refscan {

namespace {

// Condition wrappers that are transparent for error classification.
bool IsTransparentWrapper(std::string_view callee) {
  return callee == "unlikely" || callee == "likely" || callee == "WARN_ON" ||
         callee == "WARN_ON_ONCE";
}

bool IsErrorReturningIdent(std::string_view name) {
  return name == "ret" || name == "err" || name == "error" || name == "rc" || name == "retval" ||
         name == "status";
}

bool IsNullLiteral(const Expr& e) {
  if (e.kind == Expr::Kind::kIdent && e.value == "NULL") {
    return true;
  }
  return e.kind == Expr::Kind::kLiteral && e.value == "0";
}

}  // namespace

bool IsErrorLabel(std::string_view label) {
  static constexpr std::string_view kPrefixes[] = {"err",     "out",  "fail", "cleanup",
                                                   "unwind",  "bail", "exit", "free",
                                                   "release", "undo", "abort"};
  const std::string lower = [&] {
    std::string s(label);
    for (char& c : s) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return s;
  }();
  for (std::string_view p : kPrefixes) {
    if (std::string_view(lower).starts_with(p)) {
      return true;
    }
  }
  return false;
}

int ClassifyErrorCondition(const Expr& cond) {
  switch (cond.kind) {
    case Expr::Kind::kUnary:
      if (cond.value == "!" && !cond.args.empty() && cond.args[0] != nullptr) {
        // `if (!ptr)` — but `if (!failed)` style double negation is rare in
        // kernel code; treat uniformly.
        return 1;
      }
      return 0;
    case Expr::Kind::kBinary: {
      if (cond.args.size() < 2 || cond.args[0] == nullptr || cond.args[1] == nullptr) {
        return 0;
      }
      const Expr& lhs = *cond.args[0];
      const Expr& rhs = *cond.args[1];
      const bool rhs_zero = rhs.kind == Expr::Kind::kLiteral && rhs.value == "0";
      if (cond.value == "<" && rhs_zero) {
        return 1;  // ret < 0
      }
      if (cond.value == ">=" && rhs_zero) {
        return -1;  // ret >= 0 guards the good path
      }
      if (cond.value == "==" && IsNullLiteral(rhs)) {
        return 1;  // ptr == NULL
      }
      if (cond.value == "!=" && IsNullLiteral(rhs)) {
        return -1;  // ptr != NULL guards the good path
      }
      if (cond.value == "&&" || cond.value == "||") {
        const int l = ClassifyErrorCondition(lhs);
        if (l != 0) {
          return l;
        }
        return ClassifyErrorCondition(rhs);
      }
      return 0;
    }
    case Expr::Kind::kCall: {
      const Symbol callee = cond.CalleeName();
      if (callee == "IS_ERR" || callee == "IS_ERR_OR_NULL") {
        return 1;
      }
      if (IsTransparentWrapper(callee.view()) && cond.args.size() > 1 &&
          cond.args[1] != nullptr) {
        return ClassifyErrorCondition(*cond.args[1]);
      }
      return 0;
    }
    case Expr::Kind::kIdent:
      // `if (ret)` — error when a status variable is truthy.
      return IsErrorReturningIdent(cond.value.view()) ? 1 : 0;
    default:
      return 0;
  }
}

bool ReturnsErrorCode(const Stmt& stmt) {
  if (stmt.kind != Stmt::Kind::kReturn || stmt.expr == nullptr) {
    return false;
  }
  const Expr& e = *stmt.expr;
  if (e.kind == Expr::Kind::kUnary && e.value == "-" && !e.args.empty() && e.args[0] != nullptr) {
    const Expr& inner = *e.args[0];
    if (inner.kind == Expr::Kind::kLiteral) {
      return true;  // return -1;
    }
    if (inner.kind == Expr::Kind::kIdent && !inner.value.empty() &&
        inner.value.view()[0] == 'E') {
      return true;  // return -EINVAL;
    }
  }
  if (e.kind == Expr::Kind::kCall) {
    const Symbol callee = e.CalleeName();
    return callee == "ERR_PTR" || callee == "ERR_CAST";
  }
  if (e.kind == Expr::Kind::kIdent && IsErrorReturningIdent(e.value.view())) {
    // `return ret;` under an error guard; callers check the guard, we accept.
    return false;
  }
  return false;
}

namespace {

// Small-buffer list of node indices for CFG lowering. Nearly every
// statement has one predecessor and one exit, so the std::vector<int>
// that Lower used to pass/return by value spent the whole build in the
// allocator; four inline slots cover all but pathological branch fans.
class IntList {
 public:
  IntList() = default;
  IntList(std::initializer_list<int> il) {
    for (int v : il) {
      push_back(v);
    }
  }
  IntList(IntList&& o) noexcept { MoveFrom(o); }
  IntList& operator=(IntList&& o) noexcept {
    if (this != &o) {
      Free();
      MoveFrom(o);
    }
    return *this;
  }
  IntList(const IntList&) = delete;
  IntList& operator=(const IntList&) = delete;
  ~IntList() { Free(); }

  void push_back(int v) {
    if (size_ == cap_) {
      Grow();
    }
    data_[size_++] = v;
  }
  void append(const IntList& o) {
    for (uint32_t i = 0; i < o.size_; ++i) {
      push_back(o.data_[i]);
    }
  }
  bool empty() const { return size_ == 0; }
  const int* begin() const { return data_; }
  const int* end() const { return data_ + size_; }

 private:
  void MoveFrom(IntList& o) {
    if (o.data_ == o.inline_) {
      data_ = inline_;
      cap_ = kInline;
      size_ = o.size_;
      for (uint32_t i = 0; i < size_; ++i) {
        inline_[i] = o.inline_[i];
      }
    } else {
      data_ = o.data_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.data_ = o.inline_;
      o.cap_ = kInline;
    }
    o.size_ = 0;
  }
  void Free() {
    if (data_ != inline_) {
      delete[] data_;
    }
  }
  void Grow() {
    const uint32_t new_cap = cap_ * 2;
    int* fresh = new int[new_cap];
    for (uint32_t i = 0; i < size_; ++i) {
      fresh[i] = data_[i];
    }
    Free();
    data_ = fresh;
    cap_ = new_cap;
  }

  static constexpr uint32_t kInline = 4;
  int inline_[kInline];
  int* data_ = inline_;
  uint32_t size_ = 0;
  uint32_t cap_ = kInline;
};

}  // namespace

// The builder's per-function scratch. Edges are collected as one chain per
// node (so Link can keep a node's successors unique and in link order) and
// flattened into the Cfg when the build is done.
struct CfgScratch {
  std::vector<int> edge_to;
  std::vector<int> edge_next;   // next edge of the same node, or -1
  std::vector<int> first_edge;  // per node, or -1
  std::vector<int> last_edge;   // per node, or -1
  std::vector<std::pair<Symbol, int>> labels;  // a redefined label: the last wins
  std::vector<std::pair<int, Symbol>> pending_gotos;
  std::vector<IntList*> break_sinks;
  std::vector<int> continue_targets;
  std::vector<int> macro_loops;
  std::vector<int> any_loops;

  void Clear() {
    edge_to.clear();
    edge_next.clear();
    first_edge.clear();
    last_edge.clear();
    labels.clear();
    pending_gotos.clear();
    break_sinks.clear();
    continue_targets.clear();
    macro_loops.clear();
    any_loops.clear();
  }
};

// Note: not in an anonymous namespace — Cfg befriends refscan::CfgBuilder.
class CfgBuilder {
 public:
  CfgBuilder(Cfg& cfg, const FunctionDef& fn, CfgScratch& scratch)
      : cfg_(cfg), scratch_(scratch) {
    scratch_.Clear();
    cfg_.fn_ = &fn;
    cfg_.nodes_.clear();
    cfg_.entry_ = NewNode(CfgNode::Kind::kEntry, nullptr, fn.line);
    cfg_.exit_ = NewNode(CfgNode::Kind::kExit, nullptr, fn.line);
  }

  void Build() {
    IntList exits = {cfg_.entry_};
    if (cfg_.fn_->body != nullptr) {
      exits = Lower(*cfg_.fn_->body, std::move(exits));
    }
    for (int e : exits) {
      Link(e, cfg_.exit_);
    }
    ResolveGotos();
    Flatten();
  }

 private:
  int NewNode(CfgNode::Kind kind, const Stmt* stmt, uint32_t line,
              const Expr* expr = nullptr) {
    CfgNode& node = cfg_.nodes_.emplace_back();
    node.kind = kind;
    node.stmt = stmt;
    node.expr = expr;
    node.line = line;
    node.is_error_context = error_depth_ > 0;
    node.macro_loop = scratch_.macro_loops.empty() ? -1 : scratch_.macro_loops.back();
    node.any_loop = scratch_.any_loops.empty() ? -1 : scratch_.any_loops.back();
    scratch_.first_edge.push_back(-1);
    scratch_.last_edge.push_back(-1);
    return static_cast<int>(cfg_.nodes_.size() - 1);
  }

  void Link(int from, int to) {
    const auto f = static_cast<size_t>(from);
    for (int e = scratch_.first_edge[f]; e >= 0; e = scratch_.edge_next[static_cast<size_t>(e)]) {
      if (scratch_.edge_to[static_cast<size_t>(e)] == to) {
        return;
      }
    }
    const auto edge = static_cast<int>(scratch_.edge_to.size());
    scratch_.edge_to.push_back(to);
    scratch_.edge_next.push_back(-1);
    if (scratch_.last_edge[f] >= 0) {
      scratch_.edge_next[static_cast<size_t>(scratch_.last_edge[f])] = edge;
    } else {
      scratch_.first_edge[f] = edge;
    }
    scratch_.last_edge[f] = edge;
  }

  void LinkAll(const IntList& preds, int to) {
    for (int p : preds) {
      Link(p, to);
    }
  }

  // Copies each node's edge chain, in link order, into the Cfg's flat array.
  void Flatten() {
    cfg_.succs_.clear();
    cfg_.succs_.reserve(scratch_.edge_to.size());
    cfg_.succ_offsets_.clear();
    cfg_.succ_offsets_.reserve(cfg_.nodes_.size() + 1);
    cfg_.succ_offsets_.push_back(0);
    for (size_t n = 0; n < cfg_.nodes_.size(); ++n) {
      for (int e = scratch_.first_edge[n]; e >= 0; e = scratch_.edge_next[static_cast<size_t>(e)]) {
        cfg_.succs_.push_back(scratch_.edge_to[static_cast<size_t>(e)]);
      }
      cfg_.succ_offsets_.push_back(static_cast<uint32_t>(cfg_.succs_.size()));
    }
  }

  // True if the branch statement is "error-handling shaped" even without an
  // error-shaped condition: it (almost) immediately returns an error code or
  // jumps to an error label.
  static bool BranchLooksLikeErrorPath(const Stmt& branch) {
    bool found = false;
    int statements = 0;
    ForEachStmt(branch, [&](const Stmt& s) {
      if (s.kind != Stmt::Kind::kCompound && s.kind != Stmt::Kind::kEmpty) {
        ++statements;
      }
      if (ReturnsErrorCode(s)) {
        found = true;
      }
      if (s.kind == Stmt::Kind::kGoto && IsErrorLabel(s.name.view())) {
        found = true;
      }
    });
    return found && statements <= 4;
  }

  IntList LowerSeq(const ArenaVec<StmtPtr>& stmts, IntList preds) {
    // Track error-label regions: statements after an `err:`-style label in
    // the same sequence are error context until a non-error label appears.
    bool label_error_region = false;
    for (const StmtPtr s : stmts) {
      if (s == nullptr) {
        continue;
      }
      if (s->kind == Stmt::Kind::kLabel) {
        label_error_region = IsErrorLabel(s->name.view());
      }
      if (label_error_region) {
        ++error_depth_;
      }
      preds = Lower(*s, std::move(preds));
      if (label_error_region) {
        --error_depth_;
      }
    }
    return preds;
  }

  IntList Lower(const Stmt& s, IntList preds) {
    CheckDeadline("cfg");
    switch (s.kind) {
      case Stmt::Kind::kCompound:
        return LowerSeq(s.stmts, std::move(preds));

      case Stmt::Kind::kEmpty:
        return preds;

      case Stmt::Kind::kExpr:
      case Stmt::Kind::kDecl:
      case Stmt::Kind::kError:
      case Stmt::Kind::kCase:
      case Stmt::Kind::kDefault: {
        const int n = NewNode(CfgNode::Kind::kStatement, &s, s.line, s.expr);
        LinkAll(preds, n);
        return {n};
      }

      case Stmt::Kind::kLabel: {
        const int n = NewNode(CfgNode::Kind::kStatement, &s, s.line);
        LinkAll(preds, n);
        SetLabel(s.name, n);
        return {n};
      }

      case Stmt::Kind::kGoto: {
        const int n = NewNode(CfgNode::Kind::kStatement, &s, s.line);
        LinkAll(preds, n);
        scratch_.pending_gotos.emplace_back(n, s.name);
        return {};
      }

      case Stmt::Kind::kReturn: {
        const int n = NewNode(CfgNode::Kind::kStatement, &s, s.line, s.expr);
        LinkAll(preds, n);
        Link(n, cfg_.exit_);
        return {};
      }

      case Stmt::Kind::kBreak: {
        const int n = NewNode(CfgNode::Kind::kStatement, &s, s.line);
        LinkAll(preds, n);
        if (!scratch_.break_sinks.empty()) {
          scratch_.break_sinks.back()->push_back(n);
        }
        return {};
      }

      case Stmt::Kind::kContinue: {
        const int n = NewNode(CfgNode::Kind::kStatement, &s, s.line);
        LinkAll(preds, n);
        if (!scratch_.continue_targets.empty()) {
          Link(n, scratch_.continue_targets.back());
        }
        return {};
      }

      case Stmt::Kind::kIf:
        return LowerIf(s, std::move(preds));

      case Stmt::Kind::kWhile: {
        const int cond = NewNode(CfgNode::Kind::kCondition, &s, s.line, s.expr);
        LinkAll(preds, cond);
        IntList breaks;
        scratch_.break_sinks.push_back(&breaks);
        scratch_.continue_targets.push_back(cond);
        scratch_.any_loops.push_back(cond);
        IntList body_exits = s.body ? Lower(*s.body, {cond}) : IntList{cond};
        scratch_.any_loops.pop_back();
        scratch_.continue_targets.pop_back();
        scratch_.break_sinks.pop_back();
        LinkAll(body_exits, cond);
        IntList exits = {cond};
        exits.append(breaks);
        return exits;
      }

      case Stmt::Kind::kDoWhile: {
        const int cond = NewNode(CfgNode::Kind::kCondition, &s, s.line, s.expr);
        IntList breaks;
        scratch_.break_sinks.push_back(&breaks);
        scratch_.continue_targets.push_back(cond);
        scratch_.any_loops.push_back(cond);
        IntList body_exits =
            s.body ? Lower(*s.body, std::move(preds)) : std::move(preds);
        scratch_.any_loops.pop_back();
        scratch_.continue_targets.pop_back();
        scratch_.break_sinks.pop_back();
        LinkAll(body_exits, cond);
        IntList exits = {cond};
        exits.append(breaks);
        return exits;
      }

      case Stmt::Kind::kFor: {
        IntList p = std::move(preds);
        if (s.init != nullptr) {
          const int init = NewNode(CfgNode::Kind::kStatement, &s, s.line, s.init);
          LinkAll(p, init);
          p = {init};
        }
        const int cond = NewNode(CfgNode::Kind::kCondition, &s, s.line, s.expr);
        LinkAll(p, cond);
        IntList breaks;
        scratch_.break_sinks.push_back(&breaks);
        scratch_.continue_targets.push_back(cond);
        scratch_.any_loops.push_back(cond);
        IntList body_exits = s.body ? Lower(*s.body, {cond}) : IntList{cond};
        scratch_.any_loops.pop_back();
        scratch_.continue_targets.pop_back();
        scratch_.break_sinks.pop_back();
        LinkAll(body_exits, cond);  // increment folded into the back edge
        IntList exits = {cond};
        exits.append(breaks);
        return exits;
      }

      case Stmt::Kind::kMacroLoop: {
        const int head = NewNode(CfgNode::Kind::kLoopHead, &s, s.line, s.expr);
        LinkAll(preds, head);
        IntList breaks;
        scratch_.break_sinks.push_back(&breaks);
        scratch_.continue_targets.push_back(head);
        scratch_.macro_loops.push_back(head);
        scratch_.any_loops.push_back(head);
        IntList body_exits = s.body ? Lower(*s.body, {head}) : IntList{head};
        scratch_.any_loops.pop_back();
        scratch_.macro_loops.pop_back();
        scratch_.continue_targets.pop_back();
        scratch_.break_sinks.pop_back();
        LinkAll(body_exits, head);
        IntList exits = {head};
        exits.append(breaks);
        return exits;
      }

      case Stmt::Kind::kSwitch: {
        const int cond = NewNode(CfgNode::Kind::kCondition, &s, s.line, s.expr);
        LinkAll(preds, cond);
        IntList breaks;
        scratch_.break_sinks.push_back(&breaks);
        IntList body_exits = s.body ? Lower(*s.body, {cond}) : IntList{cond};
        scratch_.break_sinks.pop_back();
        // Each case label is also directly reachable from the condition.
        if (s.body != nullptr) {
          for (size_t i = 0; i < cfg_.nodes_.size(); ++i) {
            const CfgNode& n = cfg_.nodes_[i];
            if (n.stmt != nullptr &&
                (n.stmt->kind == Stmt::Kind::kCase || n.stmt->kind == Stmt::Kind::kDefault)) {
              // Only cases created under this switch matter; over-linking
              // nested switch cases is tolerable for path purposes.
              Link(cond, static_cast<int>(i));
            }
          }
        }
        IntList exits = std::move(body_exits);
        exits.push_back(cond);  // no-default fallthrough
        exits.append(breaks);
        return exits;
      }
    }
    return preds;
  }

  IntList LowerIf(const Stmt& s, IntList preds) {
    const int cond = NewNode(CfgNode::Kind::kCondition, &s, s.line, s.expr);
    LinkAll(preds, cond);

    int error_side = s.expr ? ClassifyErrorCondition(*s.expr) : 0;
    if (error_side == 0 && s.body != nullptr && BranchLooksLikeErrorPath(*s.body)) {
      error_side = 1;
    }
    cfg_.nodes_[static_cast<size_t>(cond)].error_branch = error_side;

    IntList exits;
    {
      if (error_side == 1) {
        ++error_depth_;
      }
      IntList then_exits = s.body ? Lower(*s.body, {cond}) : IntList{cond};
      if (error_side == 1) {
        --error_depth_;
      }
      exits.append(then_exits);
    }
    if (s.else_body != nullptr) {
      if (error_side == -1) {
        ++error_depth_;
      }
      IntList else_exits = Lower(*s.else_body, {cond});
      if (error_side == -1) {
        --error_depth_;
      }
      exits.append(else_exits);
    } else {
      exits.push_back(cond);
    }
    return exits;
  }

  void SetLabel(Symbol name, int node) {
    for (auto& [label, target] : scratch_.labels) {
      if (label == name) {
        target = node;
        return;
      }
    }
    scratch_.labels.emplace_back(name, node);
  }

  void ResolveGotos() {
    for (const auto& [node, name] : scratch_.pending_gotos) {
      int target = cfg_.exit_;  // unresolved label: treat as function exit
      for (const auto& [label, labelled] : scratch_.labels) {
        if (label == name) {
          target = labelled;
          break;
        }
      }
      Link(node, target);
    }
  }

  Cfg& cfg_;
  CfgScratch& scratch_;
  int error_depth_ = 0;
};

void RebuildCfg(Cfg& cfg, const FunctionDef& fn) {
  thread_local CfgScratch scratch;
  CfgBuilder(cfg, fn, scratch).Build();
}

Cfg BuildCfg(const FunctionDef& fn) {
  Cfg cfg;
  RebuildCfg(cfg, fn);
  return cfg;
}

}  // namespace refscan
