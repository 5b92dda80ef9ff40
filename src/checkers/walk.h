// The checkers' CFG walk (DESIGN.md §5.3): a depth-first walk over
// (CFG node, checker state) positions of one function.
//
// The paper's templates ask whether *some* potential execution path matches
// (§6.1). Instead of enumerating paths, a checker walks forward from its
// trigger event carrying a small state of its own, and the walk enters each
// (node, state) pair at most once. A question about "some path, with any
// number of loop iterations" then costs time linear in CFG nodes × states,
// and no path budget can hide a bug.
//
// The walk follows successors in the order Cfg::EnumeratePaths explores them,
// so "the first path that ..." of the enumerator is the walk's first branch
// that does. It keeps an explicit stack, so it never recurses.

#ifndef REFSCAN_CHECKERS_WALK_H_
#define REFSCAN_CHECKERS_WALK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/cfg/cfg.h"
#include "src/cpg/cpg.h"

namespace refscan {

// What a checker makes of the branch it is walking.
enum class WalkStep : uint8_t {
  kContinue,
  kStop,  // end this branch here; the others go on
};

// Checker-defined, below 64; positions are equal when node and state are.
using WalkState = uint8_t;

// One semantic event, addressed by its CFG node and its index there.
struct WalkPos {
  int node = 0;
  uint32_t index = 0;
  const SemEvent* ev = nullptr;
};

// A visitor derives from this and defines
//   WalkStep Event(int node, const SemEvent& ev, WalkState& state)
// which sees every event of every node it enters, in order.
struct WalkVisitor {
  // Before the walk follows successor `succ` (an index into Cfg::succs) of
  // `node`: may edit the state the successor is entered in; false prunes it.
  bool Edge(int /*node*/, size_t /*succ*/, WalkState& /*state*/) { return true; }
  // The branch reached the exit, or a node without successors.
  void End(WalkState /*state*/) {}
};

// A visitor made of its Event hook alone.
template <typename EventFn>
struct OnEvents : WalkVisitor {
  explicit OnEvents(EventFn fn) : event(fn) {}
  WalkStep Event(int node, const SemEvent& ev, WalkState& state) {
    return event(node, ev, state);
  }
  EventFn event;
};

class CfgWalk {
 public:
  // Also walks from the entry once, to list the reachable events.
  CfgWalk(const Cfg& cfg, const Cpg& cpg) : cfg_(cfg), cpg_(cpg) { Relist(); }

  // Lists the reachable events again, after the Cfg and Cpg this walk is
  // bound to were rebuilt in place for another function. The scratch space
  // keeps its capacity.
  void Relist() {
    reachable_.clear();
    Run(cfg_.entry(), 0, 0, OnEvents([this](int node, const SemEvent& ev, WalkState&) {
      const auto index = static_cast<uint32_t>(&ev - cpg_.events(node).data());
      reachable_.push_back(WalkPos{node, index, &ev});
      return WalkStep::kContinue;
    }));
  }

  // Every event reachable from the entry, in walk order: the order the
  // checkers take their trigger events in.
  const std::vector<WalkPos>& ReachableEvents() const { return reachable_; }

  // Walks forward from event `first` of `node`, in `state`, reusing the
  // scratch space of earlier runs.
  template <typename Visitor>
  void Run(int node, uint32_t first, WalkState state, Visitor&& v) {
    entered_.assign(cfg_.size(), 0);
    stack_.clear();
    Enter(node, first, state, v);
    while (!stack_.empty()) {
      Frame& top = stack_.back();
      const std::span<const int> succs = cfg_.succs(top.node);
      if (top.next_succ == succs.size()) {
        stack_.pop_back();
        continue;
      }
      const size_t succ = top.next_succ++;
      WalkState s = top.state;
      const auto next = static_cast<size_t>(succs[succ]);
      if (v.Edge(top.node, succ, s) && (entered_[next] & (uint64_t{1} << s)) == 0) {
        entered_[next] |= uint64_t{1} << s;
        Enter(succs[succ], 0, s, v);
      }
    }
  }

 private:
  struct Frame {
    int node;
    uint32_t next_succ;
    WalkState state;
  };

  // Feeds `node`'s events from `first` to the visitor, then ends the branch
  // or stacks the node to follow its successors.
  template <typename Visitor>
  void Enter(int node, uint32_t first, WalkState state, Visitor& v) {
    const auto events = cpg_.events(node);
    for (uint32_t i = first; i < events.size(); ++i) {
      if (v.Event(node, events[i], state) == WalkStep::kStop) {
        return;
      }
    }
    if (node == cfg_.exit() || cfg_.succs(node).empty()) {
      v.End(state);
    } else {
      stack_.push_back(Frame{node, 0, state});
    }
  }

  const Cfg& cfg_;
  const Cpg& cpg_;
  std::vector<uint64_t> entered_;  // per node, a bit per entered state
  std::vector<Frame> stack_;
  std::vector<WalkPos> reachable_;
};

}  // namespace refscan

#endif  // REFSCAN_CHECKERS_WALK_H_
