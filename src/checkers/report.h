// Bug reports produced by the anti-pattern checkers.

#ifndef REFSCAN_CHECKERS_REPORT_H_
#define REFSCAN_CHECKERS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace refscan {

// Security impact classes the paper tracks (Table 4).
enum class Impact : uint8_t {
  kLeak,  // memory leak (missing decrease)
  kUaf,   // use-after-free (UAD, escape, missing increase)
  kNpd,   // NULL-pointer dereference (return-NULL deviants)
};

std::string_view ImpactName(Impact impact);

struct BugReport {
  int anti_pattern = 0;  // 1..12 (paper's P1..P9 plus the P10..P12 extensions)
  Impact impact = Impact::kLeak;

  std::string file;
  std::string function;
  uint32_t line = 0;       // the acquire / decrease / escape site
  uint32_t exit_line = 0;  // the leaking exit / offending use, when known (0 otherwise)

  std::string api;     // the bug-caused API (Table 5 column 3)
  std::string object;  // symbolic object involved

  std::string template_path;  // rendered semantic template (Table 1 style)
  std::string message;        // one-line human explanation

  // Stable ordering / dedup key.
  std::string Key() const;
  bool operator<(const BugReport& other) const { return Key() < other.Key(); }
};

// Drops duplicates (same file/function/object/line across patterns keeps the
// lowest-numbered anti-pattern, matching how the paper counts one bug per
// site) and sorts by location.
std::vector<BugReport> DeduplicateReports(std::vector<BugReport> reports);

// Serializes reports as a JSON array (machine-readable CLI / CI output).
std::string ReportsToJson(const std::vector<BugReport>& reports);

}  // namespace refscan

#endif  // REFSCAN_CHECKERS_REPORT_H_
