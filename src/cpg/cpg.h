// Code Property Graph: CFG nodes annotated with semantic operator events.
//
// This is refscan's equivalent of the paper's JOERN-based CPG (§6.1): for
// every CFG node we derive the ordered list of semantic events the paper's
// templates speak about — 𝒢 (increase), 𝒫 (decrease), 𝒜 (assignment),
// 𝒟 (dereference), ℒ/𝒰 (lock/unlock), free(), NULL-checks, returns and
// smartloop heads — each bound to a *symbolic object* (the normalised
// pointer spelling, e.g. "np" or "crc->dev"). The anti-pattern checkers
// (src/checkers) match their templates by walking the CFG over these events.
//
// Object spellings are interned Symbols (DESIGN.md §5.11): event comparison
// in the checkers is a 32-bit integer compare, and the root of a spelling
// ("crc" for "crc->dev.node") is memoized per distinct Symbol so template
// matching never re-parses spelling text on the hot path.

#ifndef REFSCAN_CPG_CPG_H_
#define REFSCAN_CPG_CPG_H_

#include <span>
#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/cfg/cfg.h"
#include "src/kb/kb.h"
#include "src/support/interner.h"

namespace refscan {

enum class SemOp : uint8_t {
  kIncrease,   // 𝒢: refcount acquired on `object`
  kDecrease,   // 𝒫: refcount released on `object`
  kAssign,     // 𝒜: `object` (lhs) assigned from `aux` (rhs object, may be "")
  kDeref,      // 𝒟: memory access through `object`
  kLock,       // ℒ
  kUnlock,     // 𝒰
  kFree,       // direct kfree-style deallocation of `object`
  kNullCheck,  // `object` tested against NULL (either polarity)
  kReturn,     // function return; `object` = returned identifier if any
  kLoopHead,   // smartloop head; `object` = iterator variable
  kRawInc,     // P10: ++/+= on a known refcount field, bypassing checked APIs
  kRawDec,     // P10: --/-= on a known refcount field
  kRawSet,     // P12: direct store to a known refcount field (obj->refs = N)
};

struct SemEvent {
  SemOp op = SemOp::kDeref;
  Symbol object;  // normalised spelling; empty Symbol when unknown
  Symbol aux;     // kAssign: rhs object spelling
  uint32_t line = 0;

  const RefApiInfo* api = nullptr;        // kIncrease/kDecrease via an API
  const SmartLoopInfo* loop = nullptr;    // kLoopHead (null for unknown loops)
  bool escapes = false;                   // kAssign into a global / out-param
  bool checks_null_true_branch = false;   // kNullCheck: true branch is the NULL side
  bool result_tested = false;  // kDecrease via a tests_zero API whose return
                               // value feeds a condition/assignment/return
  bool raw_set_nonzero = false;  // kRawSet: rhs is a nonzero literal (init idiom)
};

// Per-function CPG. Parallel arrays with the Cfg it annotates; the Cfg, the
// KB and the AST must outlive the Cpg. Events live in one flat array
// (DESIGN.md §5.11) — node n's slice is events_[event_offsets_[n] ..
// event_offsets_[n+1]) — so building a CPG costs two allocations instead of
// one vector per CFG node, and a path walk reads contiguous memory.
// SemEvent addresses are stable until the Cpg is rebuilt or destroyed
// (checkers hold `const SemEvent*` trigger positions across their walks).
class Cpg {
 public:
  const Cfg& cfg() const { return *cfg_; }
  const KnowledgeBase& kb() const { return *kb_; }
  std::span<const SemEvent> events(int node) const {
    const size_t n = static_cast<size_t>(node);
    return std::span<const SemEvent>(events_.data() + event_offsets_[n],
                                     event_offsets_[n + 1] - event_offsets_[n]);
  }
  size_t size() const { return event_offsets_.empty() ? 0 : event_offsets_.size() - 1; }

  // Names of this function's parameters / local declarations (escape logic).
  // Membership-only sets — see SymbolSet's determinism note.
  const SymbolSet& params() const { return params_; }
  const SymbolSet& locals() const { return locals_; }

 private:
  friend void RebuildCpg(Cpg& cpg, const Cfg& cfg, const KnowledgeBase& kb);
  const Cfg* cfg_ = nullptr;
  const KnowledgeBase* kb_ = nullptr;
  std::vector<SemEvent> events_;
  std::vector<uint32_t> event_offsets_;  // size()+1 entries
  SymbolSet params_;
  SymbolSet locals_;
};

Cpg BuildCpg(const Cfg& cfg, const KnowledgeBase& kb);

// Rebuilds `cpg` in place as BuildCpg(cfg, kb) would build it, keeping the
// capacity of its arrays.
void RebuildCpg(Cpg& cpg, const Cfg& cfg, const KnowledgeBase& kb);

// Normalises an expression to its symbolic object spelling: strips casts and
// address-of, renders identifiers and member chains; returns the empty
// Symbol for anything without a stable identity (calls, arithmetic,
// literals). Single identifiers hit a fast path (the AST value is already
// the Symbol); composite spellings intern once per distinct text.
Symbol ObjectSpelling(const Expr& expr);

// Root identifier of a member chain ("crc" for "crc->dev.node"), or the
// identifier itself; the empty Symbol when not rooted in an identifier.
Symbol ObjectRoot(const Expr& expr);
std::string ObjectRootOfSpelling(std::string_view spelling);

// Root of an interned spelling, memoized per Symbol id in a global
// lock-free page table: after first touch, RootsMatch-style checks cost two
// loads and an integer compare. RootSymbol(s) == Intern(ObjectRootOfSpelling(s.view())).
Symbol RootSymbol(Symbol spelling);

}  // namespace refscan

#endif  // REFSCAN_CPG_CPG_H_
