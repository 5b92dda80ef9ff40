// Control-flow graph over the refscan AST.
//
// One CFG per function. Nodes are statement-granular (conditions get their
// own node), edges follow C control flow including goto/label resolution,
// `break`/`continue`, and macro loops (`for_each_*`). Two classifications
// that the anti-pattern checkers rely on are computed here:
//
//   * error nodes — statements inside error-handling contexts (the paper's
//     B_error): branches guarded by error-shaped conditions (`ret < 0`,
//     `!ptr`, `IS_ERR(..)`), code under `err*`/`out*`/`fail*` labels, and
//     branches that return negative error codes.
//   * loop membership — which macro loop (if any) encloses each node, used
//     by the smartloop checker (anti-pattern P3).
//
// EnumeratePaths lists entry→exit paths with a bounded DFS in which every
// node may appear at most twice per path (so a head-tested loop body runs 0
// or 1 times, twice only when left by break/return/goto), under a path
// budget. It serves IPA summaries, `refscan match` and the tests that
// use it as an oracle; the anti-pattern checkers walk the CFG instead
// (src/checkers/walk.h), with no budget and any number of loop iterations.

#ifndef REFSCAN_CFG_CFG_H_
#define REFSCAN_CFG_CFG_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/ast/ast.h"

namespace refscan {

struct CfgNode {
  enum class Kind : uint8_t {
    kEntry,
    kExit,
    kStatement,  // expression / decl / return / goto-origin etc.
    kCondition,  // if / while / for / switch condition
    kLoopHead,   // macro-loop head (carries the macro call expression)
  };

  Kind kind = Kind::kStatement;
  const Stmt* stmt = nullptr;  // null for entry/exit
  // The expression this node evaluates: the statement expression, the branch
  // condition, a for-init clause, or the macro-loop invocation. May be null
  // (labels, break, goto, empty returns).
  const Expr* expr = nullptr;
  uint32_t line = 0;

  // Error-context classification (B_error).
  bool is_error_context = false;

  // Innermost enclosing macro loop head node index, or -1.
  int macro_loop = -1;
  // Innermost enclosing loop of any kind (for/while/do/macro) head index, or -1.
  int any_loop = -1;

  // For kCondition nodes: Cfg::succs(n)[0] = true branch, [1] = false
  // branch (when both exist). `error_branch` records which branch was
  // classified as the error side: +1 the true one, -1 the false one, 0
  // neither.
  int error_branch = -1;
};

// Successors live in one flat array per Cfg, the layout the Cpg uses for
// its events (DESIGN.md §5.11): node n's successors are
// succs_[succ_offsets_[n] .. succ_offsets_[n+1]), in the order the builder
// linked them, without duplicates. A Cfg rebuilt in place for another
// function (RebuildCfg) keeps the capacity of all three arrays.
class Cfg {
 public:
  const FunctionDef* function() const { return fn_; }
  const std::vector<CfgNode>& nodes() const { return nodes_; }
  const CfgNode& node(int i) const { return nodes_[static_cast<size_t>(i)]; }
  std::span<const int> succs(int i) const {
    const size_t n = static_cast<size_t>(i);
    return std::span<const int>(succs_.data() + succ_offsets_[n],
                                succ_offsets_[n + 1] - succ_offsets_[n]);
  }
  int entry() const { return entry_; }
  int exit() const { return exit_; }
  size_t size() const { return nodes_.size(); }

  // Enumerates entry→exit paths as node-index sequences. Each node may
  // repeat at most `node_visit_cap` times per path; at most `max_paths`
  // paths are produced. Returns false if the cap truncated enumeration.
  // A template so the per-path visitor inlines.
  template <typename Visit>
  bool EnumeratePaths(const Visit& visit, size_t max_paths = 2048,
                      int node_visit_cap = 2) const {
    std::vector<int> visits(nodes_.size(), 0);
    std::vector<int> path;
    size_t produced = 0;
    bool truncated = false;
    const size_t length_cap = nodes_.size() * static_cast<size_t>(node_visit_cap) + 2;

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
      if (node == exit_) {
        visit(path);
        ++produced;
      } else {
        const std::span<const int> next_nodes = succs(node);
        if (next_nodes.empty()) {
          // Dead end (should not happen; exit is always linked). Count as a
          // degenerate path so callers still see the prefix.
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

    dfs(dfs, entry_);
    return !truncated;
  }

 private:
  friend class CfgBuilder;
  const FunctionDef* fn_ = nullptr;
  std::vector<CfgNode> nodes_;
  std::vector<int> succs_;
  std::vector<uint32_t> succ_offsets_;  // size()+1 entries
  int entry_ = 0;
  int exit_ = 0;
};

// Builds the CFG for a parsed function. The function (and its AST) must
// outlive the returned CFG.
Cfg BuildCfg(const FunctionDef& fn);

// Rebuilds `cfg` in place as BuildCfg(fn) would build it, keeping the
// capacity of its arrays. The builder's own scratch is kept per thread, so
// rebuilding function after function allocates only when a function is
// larger than every one before it.
void RebuildCfg(Cfg& cfg, const FunctionDef& fn);

// True if `label` looks like an error-handling label (err, out, fail, ...).
bool IsErrorLabel(std::string_view label);

// Classifies a condition expression as error-shaped and reports which branch
// is the error side: returns +1 if the *true* branch is the error path
// (e.g. `ret < 0`, `!ptr`, `IS_ERR(p)`), -1 if the *false* branch is
// (e.g. `ptr != NULL` guarding the good path), 0 if not error-shaped.
int ClassifyErrorCondition(const Expr& cond);

// True if `stmt` is a `return` of a negative error code (`return -EINVAL;`,
// `return -1;`, `return ERR_PTR(...)`).
bool ReturnsErrorCode(const Stmt& stmt);

}  // namespace refscan

#endif  // REFSCAN_CFG_CFG_H_
