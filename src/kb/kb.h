// Refcounting knowledge base.
//
// Mirrors the paper's lexer-parsing stage (§6.1): it knows which APIs
// increase (𝒢) or decrease (𝒫) refcounters, which of them deviate from the
// standard contract (return-error 𝒢_E, return-NULL 𝒢_N — §5.1), which are
// "hidden" behind non-refcount-sounding names (𝒢_H/𝒫_H — §5.2), and which
// macros are smartloops (ℳ_SL). Two sources feed it:
//
//   1. A built-in catalogue of real Linux kernel APIs transcribed from the
//      paper's Appendix A (Table 6) plus the general/specific APIs of §5.
//   2. Discovery from source: the structure parser marks structs carrying a
//      refcounter (directly or nested up to a threshold), then functions
//      that operate those refcounters — or wrap known refcounting APIs —
//      are classified as refcounting APIs themselves, with their deviation
//      flags inferred from their bodies. Macros whose bodies loop over a
//      refcounting-embedded API become smartloops.

#ifndef REFSCAN_KB_KB_H_
#define REFSCAN_KB_KB_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/ast/ast.h"

namespace refscan {

enum class RefDirection : uint8_t { kIncrease, kDecrease };

// The paper's three API categories (§5).
enum class ApiCategory : uint8_t {
  kGeneral,   // refcount_inc / kref_put / kobject_get ...
  kSpecific,  // of_node_get / dev_hold: typed wrappers over general APIs
  kEmbedded,  // find-like APIs whose main job is not refcounting
};

struct RefApiInfo {
  std::string name;
  RefDirection direction = RefDirection::kIncrease;
  ApiCategory category = ApiCategory::kGeneral;

  // Deviations (§5.1).
  bool returns_error = false;    // 𝒢_E: increments even when returning an error
  bool may_return_null = false;  // 𝒢_N: returns the object pointer, possibly NULL

  // Shape.
  bool returns_object = false;  // the acquired object is the return value
  int object_param = 0;         // 0-based index of the object parameter; -1 if retval-only
  int consumed_param = -1;      // param whose refcount this API *decreases* (of_find_*(from))

  // 𝒢_H/𝒫_H: none of the refcounting keywords appear in the name, or the
  // name's dominant meaning is unrelated (find/parse/...). §5.2.
  bool hidden = false;

  // Decrease APIs of the *_dec_and_test / *_put_and_test family: the return
  // value is true exactly when the count hit zero and the caller owns the
  // release. P11 (test-and-free, DESIGN.md §5.12) keys on this flag.
  bool tests_zero = false;

  // Provenance: false for the built-in catalogue, true for entries produced
  // by source discovery or interprocedural summaries. Only discovered
  // entries may be refined after registration (FindApiMutable) — the
  // catalogue is ground truth and stays untouched.
  bool discovered = false;
};

struct SmartLoopInfo {
  std::string name;          // e.g. for_each_matching_node
  int iterator_arg = 0;      // 0-based macro argument holding the iterated object
  std::string embedded_api;  // the refcounting-embedded API invoked per iteration
};

// Keyword sets the paper uses for two-level commit filtering and for the
// hiddenness classification (§3.1, Table 3).
const std::vector<std::string>& IncreaseKeywords();  // get, take, hold, grab, ...
const std::vector<std::string>& DecreaseKeywords();  // put, drop, unhold, release, ...

// True if any refcounting keyword occurs as an identifier word in `name`.
bool NameSoundsLikeRefcounting(std::string_view name);

// Inter-paired callback fields of kernel ops structs (§5.3.2): acquire-side
// field first ("probe"), release-side second ("remove").
const std::vector<std::pair<std::string, std::string>>& PairedOpsFields();

// Name-based function pairs (register/unregister, create/destroy, ...);
// returns the release-side word for an acquire-side word, or "" if none.
std::string PairedReleaseWord(std::string_view acquire_word);

// The KB-independent projection of one translation unit that discovery
// consumes (§6.1). Extraction is a pure function of the unit — it never
// consults a KnowledgeBase — so the facts can be computed once, cached on
// disk keyed by file content, and replayed later: applying the same facts in
// the same file order rebuilds a byte-identical KB no matter whether the
// facts came from a fresh parse or from the incremental scan cache
// (src/cache). Everything order- or KB-sensitive (is this callee a known
// decrease API? is this struct tag already refcounted?) is resolved at
// replay time, inside DiscoverFromFacts.
struct DiscoveryFacts {
  struct Field {
    bool direct_refcounter = false;  // IsRefcounterFieldType(type, name)
    std::string nested_tag;          // struct tag of the field type, "" if none
    std::string name;                // field name (refcount-field registry, P10)
  };
  struct Struct {
    std::string name;
    std::vector<Field> fields;
  };
  // One refcount-relevant expression inside a function body, in pre-order
  // traversal position: either a call (classified against the KB at replay
  // time) or a ++/-- on a refcounter-named member.
  struct RefEvent {
    bool is_call = false;
    std::string callee;   // calls only
    int arg1_param = -1;  // param index named by the call's second argument
    bool increase = false;  // unary events only: ++ vs --
  };
  struct Function {
    std::string name;
    bool returns_pointer = false;
    bool has_return_null = false;
    bool has_error_return = false;
    std::vector<RefEvent> events;
    int sink_param = -1;  // param stored into non-local state, -1 if none
  };
  struct Macro {
    std::string name;
    std::vector<std::string> params;
    std::string body;
  };

  std::vector<Struct> structs;
  std::vector<Function> functions;  // body-carrying functions only
  std::vector<Macro> macros;        // function-like macros whose body says "for"
};

DiscoveryFacts ExtractDiscoveryFacts(const TranslationUnit& unit);

// Thread-safety: the const lookup surface (FindApi / FindSmartLoop /
// IsRefcountedStruct / FindOwnershipSink and the accessors) never mutates,
// caches, or lazily initialises anything, so any number of threads may read
// one KnowledgeBase concurrently — the parallel checking stage relies on
// this. Registration and discovery mutate the maps and must be externally
// serialised against all readers (the scan engine runs discovery behind a
// merge barrier, before the first concurrent reader starts).
class KnowledgeBase {
 public:
  // The catalogue transcribed from the paper (Appendix A + §5 examples).
  static KnowledgeBase BuiltIn();

  // The copy operations rebuild api_index_ (its string_view keys alias the
  // source's map nodes); moves keep it, because std::map moves steal nodes
  // without relocating them.
  KnowledgeBase() = default;
  KnowledgeBase(const KnowledgeBase& other);
  KnowledgeBase& operator=(const KnowledgeBase& other);
  KnowledgeBase(KnowledgeBase&&) = default;
  KnowledgeBase& operator=(KnowledgeBase&&) = default;

  // Lookup ------------------------------------------------------------
  const RefApiInfo* FindApi(std::string_view name) const;
  // Hot-path variant: one integer hash probe against symbol_index_, with the
  // same "__"-prefix fallback semantics as the string overload.
  const RefApiInfo* FindApi(Symbol name) const;
  const SmartLoopInfo* FindSmartLoop(std::string_view name) const;
  const SmartLoopInfo* FindSmartLoop(Symbol name) const {
    return FindSmartLoop(name.view());
  }
  bool IsRefcountedStruct(std::string_view struct_name) const;

  // Refcount-field registry (P10, DESIGN.md §5.12): member names whose
  // declared type is a checked refcount type (refcount_t / kref / typed
  // atomics that pass IsRefcounterFieldType), fed by struct discovery and
  // dialect catalogues. Raw ++/--/= on such a member bypasses the saturating
  // APIs. The match is by field name, not (struct, field) pair — the same
  // approximation the textual discovery pass already makes for structs.
  bool IsRefcountField(Symbol field_name) const;

  // Classification helpers --------------------------------------------
  // They compare interned ids — no hashing, no char compares.
  static bool IsFreeFunction(Symbol name);    // kfree, vfree, ...
  static bool IsLockFunction(Symbol name);    // mutex_lock, spin_lock, ...
  static bool IsUnlockFunction(Symbol name);  // mutex_unlock, ...

  // Instance variant: the static kernel list plus any dialect-registered
  // deallocators (uacpi_free, g_free, ... — AddFreeFunction). The CPG uses
  // this so ℱ events exist for non-kernel codebases too.
  bool IsFreeApi(Symbol name) const;

  // Ownership sinks: functions that store one of their pointer parameters
  // into longer-lived state (a global or another parameter's field).
  // Passing an acquired reference to a sink transfers ownership — the
  // inter-procedural half of escape reasoning (§5.4.2). Returns the 0-based
  // parameter index consumed, or -1.
  int FindOwnershipSink(std::string_view function_name) const;
  int FindOwnershipSink(Symbol function_name) const;

  // Param-deref facts: non-refcounting helpers known to dereference some of
  // their pointer parameters (from interprocedural summaries). Call sites
  // grow synthetic 𝒟 events for the listed arguments, which lets the
  // use-after-decrease checkers see derefs hidden inside helpers. Returns
  // null when no fact is registered.
  const std::vector<int>* FindParamDerefs(std::string_view function_name) const;
  const std::vector<int>* FindParamDerefs(Symbol function_name) const;

  // Registration -------------------------------------------------------
  void AddApi(RefApiInfo info);
  void AddSmartLoop(SmartLoopInfo info);
  void AddRefcountedStruct(std::string name);
  void AddOwnershipSink(std::string name, int param_index);
  void AddParamDerefs(std::string name, std::vector<int> param_indices);
  void AddRefcountField(std::string field_name);
  void AddFreeFunction(std::string name);

  // Mutable access for summary-time refinement (exact-name match only).
  // Callers must leave built-in entries (discovered == false) alone and are
  // subject to the same serialisation contract as discovery: no concurrent
  // readers while an entry is being refined. Fields are mutated in place —
  // entry addresses are stable, so `const RefApiInfo*` held elsewhere stays
  // valid.
  RefApiInfo* FindApiMutable(std::string_view name);

  // Discovery from source (§6.1 "Lexer Parsing"). Safe to call repeatedly
  // (e.g. once per translation unit); runs a bounded nesting fixpoint for
  // struct classification and then classifies functions and macros.
  // Equivalent to DiscoverFromFacts(ExtractDiscoveryFacts(unit), ...).
  void DiscoverFromUnit(const TranslationUnit& unit, int nesting_threshold = 3);

  // Replays one unit's extracted facts. All KB- and order-sensitive
  // decisions happen here, so replaying cached facts in the original unit
  // order reproduces DiscoverFromUnit's result exactly (the incremental
  // scan cache depends on this — see src/cache and DESIGN.md §5.8).
  void DiscoverFromFacts(const DiscoveryFacts& facts, int nesting_threshold = 3);

  // Accessors for reporting.
  const std::map<std::string, RefApiInfo, std::less<>>& apis() const { return apis_; }
  const std::map<std::string, SmartLoopInfo, std::less<>>& smart_loops() const {
    return smart_loops_;
  }
  const std::set<std::string, std::less<>>& refcounted_structs() const {
    return refcounted_structs_;
  }
  const std::map<std::string, int, std::less<>>& ownership_sinks() const {
    return ownership_sinks_;
  }
  const std::map<std::string, std::vector<int>, std::less<>>& param_derefs() const {
    return param_derefs_;
  }
  const std::set<std::string, std::less<>>& refcount_fields() const {
    return refcount_fields_;
  }
  const std::set<std::string, std::less<>>& extra_free_functions() const {
    return extra_free_fns_;
  }

 private:
  void DiscoverStructs(const DiscoveryFacts& facts, int nesting_threshold);
  void DiscoverFunctions(const DiscoveryFacts& facts);
  void DiscoverMacros(const DiscoveryFacts& facts);
  void DiscoverOwnershipSinks(const DiscoveryFacts& facts);

  // Single mutation point for apis_: keeps api_index_/symbol_index_ in sync.
  RefApiInfo& UpsertApi(RefApiInfo info);
  void RebuildApiIndex();

  std::map<std::string, RefApiInfo, std::less<>> apis_;
  std::map<std::string, SmartLoopInfo, std::less<>> smart_loops_;
  std::set<std::string, std::less<>> refcounted_structs_;
  std::map<std::string, int, std::less<>> ownership_sinks_;
  std::map<std::string, std::vector<int>, std::less<>> param_derefs_;
  std::set<std::string, std::less<>> refcount_fields_;
  std::set<std::string, std::less<>> extra_free_fns_;

  // Hash indexes over the sorted maps for the hot lookups (FindApi & co run
  // per call expression in discovery replay and CPG construction; the sorted
  // maps stay the source of truth for deterministic iteration). String keys
  // view the map nodes' keys — address-stable under insert and move; symbol
  // keys are interned ids, so the CPG's per-call lookup is one integer hash
  // probe (DESIGN.md §5.11).
  std::unordered_map<std::string_view, const RefApiInfo*> api_index_;
  std::unordered_map<uint32_t, const RefApiInfo*> symbol_index_;
  std::unordered_map<uint32_t, int> sink_index_;
  std::unordered_map<uint32_t, const std::vector<int>*> deref_index_;
  std::unordered_set<uint32_t> field_index_;  // interned refcount_fields_
  std::unordered_set<uint32_t> free_index_;   // interned extra_free_fns_
};

// Userspace refcount dialects (P12, DESIGN.md §5.12): named catalogues of
// non-kernel refcounting APIs, refcounted structs, refcount field names and
// deallocators that ApplyDialect folds into a KnowledgeBase so the scanner
// understands non-kernel trees (scan --dialect NAME). Catalogue entries are
// ground truth like the built-ins (discovered == false).
const std::vector<std::string>& KnownDialects();  // sorted: "glib", "uacpi"
bool ApplyDialect(KnowledgeBase& kb, std::string_view dialect);

}  // namespace refscan

#endif  // REFSCAN_KB_KB_H_
