// Acquisition analysis — the path-sensitive object-lifetime summary that
// checkers P1/P4/P5/P7 (and the P6 peer matching) share.
//
// For every refcount-acquisition site (an 𝒢 event with a known object and
// API) the analysis walks the CFG forward from the acquisition (walk.h) and
// aggregates, over every branch, what became of the reference: released,
// transferred to the caller, stored into longer-lived state, kfree'd,
// overwritten, or leaked (on a normal or an error path). Loops may run any
// number of times and no path budget applies. The engine computes this once
// per function and memoizes it on the FunctionContext; it is also a useful
// public surface for building new checkers.

#ifndef REFSCAN_CHECKERS_ANALYSIS_H_
#define REFSCAN_CHECKERS_ANALYSIS_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/kb/kb.h"

namespace refscan {

struct FunctionContext;
struct ScanOptions;

struct AcqSite {
  const RefApiInfo* api = nullptr;
  uint32_t line = 0;
  std::string object;

  bool paired_somewhere = false;     // a path releases the object
  bool transferred = false;          // returned / stored escaping (ownership moved)
  bool unpaired_path = false;        // a path exits holding the reference
  bool unpaired_error_path = false;  // ...and that path is an error path
  uint32_t error_exit_line = 0;      // the first leaking error branch's return, when known
  bool freed_direct = false;         // kfree'd while the reference was held
  uint32_t free_line = 0;            // the last freeing branch's kfree
  bool reassigned_while_held = false;  // pointer overwritten before release
};

// Keyed by "line:object:api" so one site aggregates across paths.
using AcquisitionAnalysis = std::map<std::string, AcqSite>;

// The FunctionContext's memo slot: the option key and the analysis built
// under it. A rebuilt context invalidates it.
struct AcquisitionCache {
  static constexpr uint64_t kStale = ~uint64_t{0};
  uint64_t key = kStale;
  AcquisitionAnalysis analysis;

  void Invalidate() {
    key = kStale;
    analysis.clear();
  }
};

// Computes (or returns the memoized) analysis for `fc`. The returned
// reference stays valid until `fc` dies or is rebuilt, or the next call on
// `fc` with a different option key rebuilds the memo.
const AcquisitionAnalysis& AnalyzeAcquisitions(const FunctionContext& fc,
                                               const ScanOptions& options);

}  // namespace refscan

#endif  // REFSCAN_CHECKERS_ANALYSIS_H_
