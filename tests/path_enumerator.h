// Test-only: entry→exit path enumeration, the oracle the CFG walk
// (src/cpg/walk.h) is checked against.
//
// A bounded DFS in which every node may appear at most `node_visit_cap`
// times per path (with the default 2, a head-tested loop body runs 0 or 1
// times, twice only when left by break/return/goto), under a path budget.
// The program itself never enumerates paths; the tests use this to state
// what "some path" means and to pin the walk's order: the walk follows
// successors in the order this DFS explores them.

#ifndef REFSCAN_TESTS_PATH_ENUMERATOR_H_
#define REFSCAN_TESTS_PATH_ENUMERATOR_H_

#include <span>
#include <vector>

#include "src/cfg/cfg.h"

namespace refscan {

// Enumerates entry→exit paths of `cfg` as node-index sequences, calling
// `visit(path)` for each; a node without successors ends a (degenerate)
// path too. At most `max_paths` paths are produced. Returns false if the
// budget or the path-length cap truncated the enumeration.
template <typename Visit>
bool EnumeratePaths(const Cfg& cfg, const Visit& visit, size_t max_paths = 2048,
                    int node_visit_cap = 2) {
  std::vector<int> visits(cfg.size(), 0);
  std::vector<int> path;
  size_t produced = 0;
  bool truncated = false;
  const size_t length_cap = cfg.size() * static_cast<size_t>(node_visit_cap) + 2;

  const auto dfs = [&](const auto& self, int node) -> void {
    if (produced >= max_paths) {
      truncated = true;
      return;
    }
    if (path.size() > length_cap) {
      truncated = true;
      return;
    }
    path.push_back(node);
    ++visits[static_cast<size_t>(node)];
    if (node == cfg.exit()) {
      visit(path);
      ++produced;
    } else {
      const std::span<const int> next_nodes = cfg.succs(node);
      if (next_nodes.empty()) {
        visit(path);
        ++produced;
      }
      for (int next : next_nodes) {
        if (visits[static_cast<size_t>(next)] < node_visit_cap) {
          self(self, next);
          if (produced >= max_paths) {
            truncated = true;
            break;
          }
        }
      }
    }
    --visits[static_cast<size_t>(node)];
    path.pop_back();
  };

  dfs(dfs, cfg.entry());
  return !truncated;
}

}  // namespace refscan

#endif  // REFSCAN_TESTS_PATH_ENUMERATOR_H_
