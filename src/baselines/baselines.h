// Prior-work baseline detectors (paper §8 "Related Work").
//
// Three simplified reimplementations of the strategy families the paper
// compares against, used by the ablation bench to reproduce the paper's
// qualitative claims (e.g. invariant-style checking suffers ~60% false
// positives on kernel-style code because ownership transfers and
// refcounting omissions break the simple rules):
//
//   * PairedConsistency (RID-style): every increment must have a matching
//     decrement somewhere in the same function; flags any function-level
//     imbalance. No transfer-, NULL-branch- or error-path-awareness.
//   * EscapeInvariant (LinKRID-style): the number of escaped references
//     must equal the number of increments in a function; flags violations.
//   * CrossCheck: for each API, observe how the majority of call sites
//     behave (paired vs not) and flag minority sites.

#ifndef REFSCAN_BASELINES_BASELINES_H_
#define REFSCAN_BASELINES_BASELINES_H_

#include <string>
#include <vector>

#include "src/kb/kb.h"
#include "src/support/source.h"

namespace refscan {

struct BaselineReport {
  std::string checker;  // "paired-consistency" | "escape-invariant" | "cross-check"
  std::string file;
  std::string function;
  std::string api;
  std::string object;
  uint32_t line = 0;
};

struct BaselineResult {
  std::vector<BaselineReport> paired_consistency;
  std::vector<BaselineReport> escape_invariant;
  std::vector<BaselineReport> cross_check;
};

// Runs all three baselines over the tree: the scan spine's front half
// (the engine's parse and discovery over seed `kb`), then its units.
BaselineResult RunBaselines(const SourceTree& tree, KnowledgeBase kb);

}  // namespace refscan

#endif  // REFSCAN_BASELINES_BASELINES_H_
