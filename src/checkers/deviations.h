// Implementation-deviation detector (§5.1.3 "Another way is to proactively
// detect such deviations, as an important future work").
//
// Scans a source tree for refcounting APIs whose *implementations* deviate
// from the standard contract — increase-even-on-error (𝒢_E, the
// pm_runtime_get_sync family) and may-return-NULL (𝒢_N, the mdesc_grab
// family) — so the deviants can be documented before they cause the next
// hundred bugs.

#ifndef REFSCAN_CHECKERS_DEVIATIONS_H_
#define REFSCAN_CHECKERS_DEVIATIONS_H_

#include <string>
#include <vector>

#include "src/checkers/engine.h"
#include "src/support/source.h"

namespace refscan {

enum class DeviationKind : uint8_t {
  kReturnError,  // increments the refcount even when returning an error
  kReturnNull,   // hands back the (possibly NULL) object pointer
};

std::string_view DeviationKindName(DeviationKind kind);

struct DeviationReport {
  DeviationKind kind = DeviationKind::kReturnError;
  std::string api;
  std::string file;  // where the deviant implementation lives
  uint32_t line = 0;
  bool hidden = false;  // the name does not sound like refcounting at all
  std::string note;
};

// Runs the scan spine's front half over `tree` under `options` (dialects,
// discovery, jobs, governors and faults act as in a scan), then reports
// every API *defined in the tree* whose implementation carries a deviation
// flag. Already-catalogued deviants (the built-in Table 6 entries) are
// reported too when the tree contains their definitions. Quarantined files
// are left out; `scan`, when given, receives the front half's failures,
// abort state and stats. The report list is identical at every thread
// count.
std::vector<DeviationReport> DetectDeviations(const SourceTree& tree,
                                              const ScanOptions& options = {},
                                              ScanResult* scan = nullptr);

}  // namespace refscan

#endif  // REFSCAN_CHECKERS_DEVIATIONS_H_
