// Global thread-safe string interner (DESIGN.md §5.11).
//
// Maps identifier/token/API-name text to dense 32-bit `Symbol` ids so the
// hot paths — KnowledgeBase::FindApi, CPG event comparison, template
// matching — compare integers instead of hashing strings. Interning is
// sharded (16 shards, each behind its own mutex); id -> text lookup is a
// lock-free read through a two-level page table, so Symbol::view() costs
// two dependent loads.
//
// Symbol 0 is always the empty string, so a default-constructed Symbol
// means "no object", mirroring the empty std::string it replaces.
//
// DETERMINISM CONTRACT: the numeric id a given text receives depends on the
// interning order, which under a parallel parse depends on thread
// interleaving. Two symbols are equal iff their texts are equal (one global
// table, one id per text — this *is* run-stable), but nothing that reaches
// scan output may be ordered by raw id value. Order by text (Symbol's
// operator< compares views) or by source position instead. The symbol table
// itself is append-only and process-lived; Symbols never dangle.

#ifndef REFSCAN_SUPPORT_INTERNER_H_
#define REFSCAN_SUPPORT_INTERNER_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace refscan {

namespace internal {
// id -> NUL-terminated text, lock-free. Defined in interner.cc.
const char* SymbolTextPtr(uint32_t id);
size_t SymbolTextSize(uint32_t id);
}  // namespace internal

class Symbol {
 public:
  constexpr Symbol() = default;
  explicit constexpr Symbol(uint32_t id) : id_(id) {}

  uint32_t id() const { return id_; }
  bool empty() const { return id_ == 0; }

  std::string_view view() const {
    return {internal::SymbolTextPtr(id_), internal::SymbolTextSize(id_)};
  }
  std::string str() const { return std::string(view()); }
  // The interner stores every string NUL-terminated, so this is safe to
  // hand to printf-style formatting.
  const char* c_str() const { return internal::SymbolTextPtr(id_); }

  friend bool operator==(Symbol a, Symbol b) { return a.id_ == b.id_; }
  friend bool operator!=(Symbol a, Symbol b) { return a.id_ != b.id_; }
  friend bool operator==(Symbol a, std::string_view b) { return a.view() == b; }
  friend bool operator==(std::string_view a, Symbol b) { return a == b.view(); }
  // Text order, NOT id order — safe for output-visible sorting.
  friend bool operator<(Symbol a, Symbol b) { return a.view() < b.view(); }

 private:
  uint32_t id_ = 0;
};

Symbol FindSymbol(std::string_view text);  // declared again below with docs

// Membership-only set of Symbols (sorted id vector + binary search). It
// deliberately exposes NO iteration: iterating by id would leak the
// interleaving-dependent interning order into callers (see the determinism
// contract above). Used for CPG param/local sets where only contains()
// matters.
class SymbolSet {
 public:
  void insert(Symbol s) {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), s.id());
    if (it == ids_.end() || *it != s.id()) {
      ids_.insert(it, s.id());
    }
  }
  bool contains(Symbol s) const {
    return std::binary_search(ids_.begin(), ids_.end(), s.id());
  }
  // Convenience (tests/diagnostics): membership by text without interning.
  bool contains(std::string_view text) const { return contains(FindSymbol(text)); }
  bool empty() const { return ids_.empty(); }
  size_t size() const { return ids_.size(); }
  void clear() { ids_.clear(); }

 private:
  std::vector<uint32_t> ids_;
};

// Interns `text`, returning its unique Symbol (allocating one on first
// sight). Thread-safe; lock-free when only reading id -> text.
Symbol Intern(std::string_view text);

// Looks up without inserting; returns the empty Symbol if `text` was never
// interned. (Symbol 0 is also the legitimate id of ""; callers distinguish
// via text.empty() when it matters.)
Symbol FindSymbol(std::string_view text);

// Number of distinct symbols interned so far (including the empty string).
size_t InternedSymbolCount();

}  // namespace refscan

#endif  // REFSCAN_SUPPORT_INTERNER_H_
