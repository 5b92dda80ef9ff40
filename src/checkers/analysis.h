// Acquisition analysis — the path-sensitive object-lifetime summary that
// checkers P1/P4/P5/P7 (and the P6 peer matching) share.
//
// For every refcount-acquisition site (an 𝒢 event with a known object and
// API) the analysis aggregates, across every enumerated CFG path, what
// became of the reference: released, transferred to the caller, stored into
// longer-lived state, kfree'd, overwritten, or leaked (on a normal or an
// error path). The engine computes this once per function and memoizes it
// on the FunctionContext; it is also a useful public surface for building new
// checkers.

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
  uint32_t error_exit_line = 0;      // the leaking error return, when known
  bool freed_direct = false;         // kfree'd while the reference was held
  uint32_t free_line = 0;
  bool reassigned_while_held = false;  // pointer overwritten before release
};

// Keyed by "line:object:api" so one site aggregates across paths.
using AcquisitionAnalysis = std::map<std::string, AcqSite>;

// The FunctionContext's memo slot: the option key and the analysis built
// under it.
struct AcquisitionCache {
  uint64_t key = 0;
  AcquisitionAnalysis analysis;
};

// Computes (or returns the memoized) analysis for `fc`. The returned
// reference stays valid until `fc` dies or the next call on `fc` with a
// different option key rebuilds the memo.
const AcquisitionAnalysis& AnalyzeAcquisitions(const FunctionContext& fc,
                                               const ScanOptions& options);

}  // namespace refscan

#endif  // REFSCAN_CHECKERS_ANALYSIS_H_
