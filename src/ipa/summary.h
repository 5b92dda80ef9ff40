// Interprocedural ref-delta summaries (stage 2.5 of the scan pipeline).
//
// For every function in the call graph we compute a summary of its net
// refcount effect: per parameter the 𝒢/𝒫 delta split by path class (normal
// vs error return), whether the returned pointer carries an acquired
// reference, whether the increment survives error returns (the 𝒢_E shape),
// which parameters the body dereferences or stores into longer-lived state,
// and the net effect on escaped globals. Summaries are computed bottom-up
// over the SCC condensation of the call graph — callees first — so a
// wrapper's summary is built with its helpers' summaries already folded
// into the knowledge base. Recursive SCCs get one extra compute+register
// iteration, which reaches the fixpoint for the monotone flag lattice
// (returns_error / may_return_null / consumed_param only ever turn on).
//
// Injection happens through the knowledge base, not the checkers: a helper
// with a consistent net effect registers as a discovered RefApiInfo (so its
// call sites grow synthetic 𝒢/𝒫 events when the CPG is built), a helper
// that dereferences a parameter registers a param-deref fact (synthetic 𝒟),
// and a helper that stores a parameter into longer-lived state registers an
// ownership sink (synthetic escaping 𝒜). The intraprocedural checkers then
// fire through wrapper chains without any checker changes.

#ifndef REFSCAN_IPA_SUMMARY_H_
#define REFSCAN_IPA_SUMMARY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ipa/callgraph.h"
#include "src/kb/kb.h"
#include "src/support/threadpool.h"

namespace refscan {

// Net 𝒢/𝒫 effect on one parameter, split by path class. The summary walks
// the CFG (src/cpg/walk.h) with the parameter's delta as its state, and
// reads a branch's class at the return that reaches the exit. A class
// reports the first delta the walk reached it with, and is "consistent"
// when the walk reached it with no other delta; only consistent deltas are
// trusted for KB injection. A branch whose delta left ±15 has an unknown
// delta: its class is inconsistent, and reports 0 if that branch came
// first.
struct ParamSummary {
  std::string name;
  int normal_delta = 0;
  bool normal_consistent = true;
  bool saw_normal = false;  // at least one normal-class path exists
  int error_delta = 0;
  bool error_consistent = true;
  bool saw_error = false;
  bool derefed = false;         // body dereferences the parameter
  bool deref_after_put = false; // ...while the net delta was negative
  bool escapes = false;         // stored into longer-lived state
};

struct FunctionSummary {
  std::string name;
  std::string file;
  uint32_t line = 0;
  std::vector<ParamSummary> params;

  bool returns_pointer = false;
  bool returns_acquired = false;  // a path returns an object holding +1
  bool may_return_null = false;
  bool error_increment = false;   // 𝒢_E: an error class starts at +1 or more
  int consumed_param = -1;        // lowest param netting -1 on a branch
                                  // that returns an acquired reference
  bool tests_zero = false;        // returns the raw result of a tests_zero
                                  // decrease API (dec_and_test wrapper)
  int global_delta = 0;           // net delta on escaped globals: the first
                                  // normal-class branch's that is non-zero
  bool registered = false;        // injected a new or upgraded KB fact
};

struct SummaryOptions {
  // Unread: summaries walk the CFG and have no path budget. Kept only
  // because perfbench/replay.cc still assigns it; it goes with the replay.
  size_t max_paths_per_function = 512;
};

struct SummaryResult {
  CallGraph graph;
  std::vector<FunctionSummary> summaries;  // call-graph node order
  size_t registered_apis = 0;              // new RefApiInfo entries
  size_t upgraded_apis = 0;                // flag upgrades on discovered entries
  size_t registered_derefs = 0;            // param-deref facts
  size_t registered_sinks = 0;             // ownership sinks
};

// Computes summaries bottom-up over `units` and injects the derived facts
// into `kb`. Parallel within an SCC level via `pool`; registration happens
// serially in node order between levels, so the resulting KB — and with it
// every downstream report — is byte-identical at any pool width. Built-in
// KB entries are never modified; discovery-registered entries only gain
// flags the textual pass cannot infer.
SummaryResult ComputeSummaries(const std::vector<const TranslationUnit*>& units,
                               KnowledgeBase& kb, const SummaryOptions& options,
                               ThreadPool& pool);

// Renderings for the `refscan summaries` subcommand. Deterministic: both
// follow call-graph node order.
std::string SummariesToJson(const SummaryResult& result);
std::string SummariesToText(const SummaryResult& result);

}  // namespace refscan

#endif  // REFSCAN_IPA_SUMMARY_H_
