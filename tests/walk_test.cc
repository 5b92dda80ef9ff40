// Tests for the CFG walk (src/cpg/walk.h): it explores
// branches in the path enumerator's order, enters each (node, state) once,
// and — the property the checkers rest on — reaches from every acquisition
// exactly the events that entry→exit paths reach after it, loops included.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/ast/parser.h"
#include "src/checkers/engine.h"
#include "src/checkers/scan_stages.h"
#include "src/cpg/walk.h"
#include "src/corpus/generator.h"
#include "tests/path_enumerator.h"

namespace refscan {
namespace {

struct Function {
  TranslationUnit unit;
  Cfg cfg;
  Cpg cpg;
};

std::unique_ptr<Function> Build(std::string text, const KnowledgeBase& kb) {
  auto f = std::make_unique<Function>();
  SourceFile file("t.c", std::move(text));
  f->unit = ParseFile(file);
  EXPECT_EQ(f->unit.functions.size(), 1u);
  f->cfg = BuildCfg(f->unit.functions[0]);
  f->cpg = BuildCpg(f->cfg, kb);
  return f;
}

TEST(CfgWalkTest, ReachableEventsFollowTheEnumeratorsBranchOrder) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto f = Build(
      "static int f(struct device_node *np, int a)\n"
      "{\n"
      "  of_node_get(np);\n"
      "  if (a)\n"
      "    of_node_put(np);\n"
      "  else\n"
      "    kfree(np);\n"
      "  return 0;\n"
      "unreachable:\n"
      "  of_node_get(np);\n"
      "}\n",
      kb);
  CfgWalk walk(f->cfg, f->cpg);
  std::vector<uint32_t> lines;
  for (const WalkPos& at : walk.ReachableEvents()) {
    if (at.ev->op != SemOp::kNullCheck) {
      lines.push_back(at.ev->line);
    }
  }
  // The true branch before the false one, the dead label never.
  EXPECT_EQ(lines, (std::vector<uint32_t>{3, 5, 8, 7}));
}

TEST(CfgWalkTest, EachNodeAndStateIsEnteredOnce) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto f = Build(
      "static void f(struct device_node *np, int n)\n"
      "{\n"
      "  while (n--)\n"
      "    of_node_get(np);\n"
      "}\n",
      kb);
  CfgWalk walk(f->cfg, f->cpg);
  // State counts the increases seen, up to 3: the loop body is entered
  // once per state, so the walk stops after four laps.
  std::vector<WalkState> states;
  walk.Run(f->cfg.entry(), 0, 0, OnEvents([&](int, const SemEvent& ev, WalkState& s) {
    if (ev.op == SemOp::kIncrease) {
      states.push_back(s);
      s = static_cast<WalkState>(std::min(s + 1, 3));
    }
    return WalkStep::kContinue;
  }));
  EXPECT_EQ(states, (std::vector<WalkState>{0, 1, 2, 3}));
}

TEST(CfgWalkTest, StopEndsOnlyItsBranch) {
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const auto f = Build(
      "static void f(struct device_node *np, int a)\n"
      "{\n"
      "  if (a)\n"
      "    of_node_get(np);\n"
      "  else\n"
      "    of_node_put(np);\n"
      "  kfree(np);\n"
      "}\n",
      kb);
  CfgWalk walk(f->cfg, f->cpg);
  std::vector<SemOp> ops;
  walk.Run(f->cfg.entry(), 0, 0, OnEvents([&](int, const SemEvent& ev, WalkState&) {
    if (ev.op == SemOp::kIncrease || ev.op == SemOp::kDecrease || ev.op == SemOp::kFree) {
      ops.push_back(ev.op);
    }
    return ev.op == SemOp::kIncrease ? WalkStep::kStop : WalkStep::kContinue;
  }));
  // The true branch stops at the get; the else branch goes on to the kfree.
  EXPECT_EQ(ops, (std::vector<SemOp>{SemOp::kIncrease, SemOp::kDecrease, SemOp::kFree}));
}

// From one 𝒢 event: every event some branch reaches before a 𝒫 of the
// same object.
using Reach = std::map<const SemEvent*, std::set<const SemEvent*>>;

bool ReleasesSameObject(const SemEvent& ev, const SemEvent& acq) {
  return ev.op == SemOp::kDecrease && ev.object == acq.object;
}

bool IsAcquisition(const SemEvent& ev) {
  return ev.op == SemOp::kIncrease && !ev.object.empty();
}

Reach ByWalk(const FunctionContext& fc) {
  Reach reach;
  CfgWalk walk(*fc.cfg, *fc.cpg);
  for (const WalkPos& at : walk.ReachableEvents()) {
    const SemEvent& acq = *at.ev;
    if (!IsAcquisition(acq)) {
      continue;
    }
    std::set<const SemEvent*>& seen = reach[&acq];
    walk.Run(at.node, at.index + 1, 0, OnEvents([&](int, const SemEvent& ev, WalkState&) {
      if (ReleasesSameObject(ev, acq)) {
        return WalkStep::kStop;
      }
      seen.insert(&ev);
      return WalkStep::kContinue;
    }));
  }
  return reach;
}

Reach ByEnumeration(const FunctionContext& fc, int node_visit_cap, bool& complete) {
  Reach reach;
  std::vector<const SemEvent*> trace;
  complete = EnumeratePaths(*fc.cfg,
      [&](const std::vector<int>& path) {
        trace.clear();
        for (int node : path) {
          for (const SemEvent& ev : fc.cpg->events(node)) {
            trace.push_back(&ev);
          }
        }
        for (size_t i = 0; i < trace.size(); ++i) {
          if (!IsAcquisition(*trace[i])) {
            continue;
          }
          std::set<const SemEvent*>& seen = reach[trace[i]];
          for (size_t j = i + 1; j < trace.size() && !ReleasesSameObject(*trace[j], *trace[i]);
               ++j) {
            seen.insert(trace[j]);
          }
        }
      },
      size_t{1} << 20, node_visit_cap);
  return reach;
}

bool Contains(const Reach& big, const Reach& small) {
  for (const auto& [acq, events] : small) {
    const auto it = big.find(acq);
    if (it == big.end() ||
        !std::includes(it->second.begin(), it->second.end(), events.begin(), events.end())) {
      return false;
    }
  }
  return true;
}

TEST(CfgWalkTest, AgreesWithPathEnumerationOnEveryCorpusFunction) {
  CorpusOptions corpus_options;
  corpus_options.kernelish_modules = 20;
  corpus_options.wrapper_chain_depths = {2, 3};
  corpus_options.new_family_modules = true;
  const Corpus corpus = GenerateKernelCorpus(corpus_options);

  ScanOptions options;
  options.dialects = {"glib", "uacpi"};
  ScanSpine spine(corpus.tree, KnowledgeBase::BuiltIn(), options, /*keep_units=*/true);
  ASSERT_TRUE(spine.RunFront());

  size_t functions = 0;
  size_t acquisitions = 0;
  for (size_t f = 0; f < spine.files().size(); ++f) {
    FileScanState& st = spine.states()[f];
    if (!st.unit) {
      continue;
    }
    const UnitContext uc = BuildUnitContext(*spine.files()[f], *std::move(st.unit), spine.kb());
    st.unit.reset();
    for (const FunctionContext& fc : uc.functions) {
      ++functions;
      const std::string where = uc.unit.path + ": " + std::string(fc.fn->name.view());
      const Reach walked = ByWalk(fc);
      acquisitions += walked.size();
      // The checkers' enumerator (each node at most twice per path) runs a
      // head-tested loop body at most once, so from inside a loop it can
      // miss the next lap: it may only see less.
      bool complete = false;
      EXPECT_TRUE(Contains(walked, ByEnumeration(fc, 2, complete))) << where;
      ASSERT_TRUE(complete) << where;
      // Three visits per node: any event a branch reaches lies on an
      // entry→exit path made of three simple paths (entry to 𝒢, 𝒢 to the
      // event, the event to the exit), so this enumeration sees it all.
      EXPECT_EQ(walked, ByEnumeration(fc, 3, complete)) << where;
      ASSERT_TRUE(complete) << where;
    }
  }
  EXPECT_GT(functions, 1000u);
  EXPECT_GT(acquisitions, 500u);
}

}  // namespace
}  // namespace refscan
