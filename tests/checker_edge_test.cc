// Edge-case coverage for the anti-pattern checkers: kernel unwind-label
// chains, multiple tracked objects, nested and continued smartloops, lock
// interactions, out-parameter escapes, switch dispatch, and branch-heavy
// or loop-heavy inputs that a path budget would have cut short.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "src/checkers/engine.h"

namespace refscan {
namespace {

std::vector<BugReport> ScanText(std::string text) {
  CheckerEngine engine;
  return engine.ScanFileText("drivers/t/t.c", std::move(text)).reports;
}

int CountPattern(const std::vector<BugReport>& reports, int pattern) {
  int n = 0;
  for (const BugReport& r : reports) {
    n += r.anti_pattern == pattern ? 1 : 0;
  }
  return n;
}

// ------------------------------------------------ kernel unwind-label chains

TEST(GotoChainTest, CorrectStagedUnwindIsClean) {
  // The canonical kernel shape: later failures jump to labels that undo
  // progressively less. No leak anywhere.
  const auto reports = ScanText(
      "static int staged_probe(struct platform_device *pdev)\n"
      "{\n"
      "  struct device_node *np;\n"
      "  int ret;\n"
      "\n"
      "  ret = alloc_resources(pdev);\n"
      "  if (ret < 0)\n"
      "    return ret;\n"
      "  np = of_find_compatible_node(NULL, NULL, \"acme,dev\");\n"
      "  if (!np) {\n"
      "    ret = -ENODEV;\n"
      "    goto err_free;\n"
      "  }\n"
      "  ret = map_registers(pdev, np);\n"
      "  if (ret < 0)\n"
      "    goto err_put;\n"
      "  ret = request_irqs(pdev);\n"
      "  if (ret < 0)\n"
      "    goto err_unmap;\n"
      "  of_node_put(np);\n"
      "  return 0;\n"
      "err_unmap:\n"
      "  unmap_registers(pdev);\n"
      "err_put:\n"
      "  of_node_put(np);\n"
      "err_free:\n"
      "  free_resources(pdev);\n"
      "  return ret;\n"
      "}\n");
  EXPECT_TRUE(reports.empty()) << (reports.empty() ? "" : reports[0].message);
}

TEST(GotoChainTest, JumpToWrongLabelLeaks) {
  // Jumping past the put label leaks the node: P5 (paired elsewhere,
  // missing on this error path).
  const auto reports = ScanText(
      "static int staged_probe(struct platform_device *pdev)\n"
      "{\n"
      "  struct device_node *np;\n"
      "  int ret;\n"
      "\n"
      "  np = of_find_compatible_node(NULL, NULL, \"acme,dev\");\n"
      "  if (!np)\n"
      "    return -ENODEV;\n"
      "  ret = map_registers(pdev, np);\n"
      "  if (ret < 0)\n"
      "    goto err_free;\n"  // *BUG*: should be err_put
      "  of_node_put(np);\n"
      "  return 0;\n"
      "err_put:\n"
      "  of_node_put(np);\n"
      "err_free:\n"
      "  free_resources(pdev);\n"
      "  return ret;\n"
      "}\n");
  EXPECT_GE(CountPattern(reports, 5), 1);
}

// ------------------------------------------------------- multiple objects

TEST(MultiObjectTest, TwoNodesOneLeaks) {
  const auto reports = ScanText(
      "static int pair(void)\n"
      "{\n"
      "  struct device_node *a = of_find_node_by_path(\"/a\");\n"
      "  struct device_node *b = of_find_node_by_path(\"/b\");\n"
      "  if (!a || !b)\n"
      "    return -ENODEV;\n"
      "  wire(a, b);\n"
      "  of_node_put(a);\n"
      "  return 0;\n"  // *BUG*: b leaks
      "}\n");
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].object, "b");
}

TEST(MultiObjectTest, PutOfOneDoesNotSatisfyTheOther) {
  const auto reports = ScanText(
      "static int pair(void)\n"
      "{\n"
      "  struct device_node *a = of_find_node_by_path(\"/a\");\n"
      "  struct device_node *b = of_find_node_by_path(\"/b\");\n"
      "  use2(a, b);\n"
      "  of_node_put(a);\n"
      "  of_node_put(a);\n"  // double put of a, none of b
      "  return 0;\n"
      "}\n");
  bool b_reported = false;
  for (const BugReport& r : reports) {
    b_reported |= r.object == "b";
  }
  EXPECT_TRUE(b_reported);
}

// ------------------------------------------------------------- smartloops

TEST(SmartLoopEdgeTest, ContinueDoesNotLeak) {
  // `continue` hands control back to the macro, which puts the previous
  // iterator itself — not an early exit.
  const auto reports = ScanText(
      "static int walk(struct device_node *parent)\n"
      "{\n"
      "  struct device_node *child;\n"
      "  for_each_child_of_node(parent, child) {\n"
      "    if (!interesting(child))\n"
      "      continue;\n"
      "    handle(child);\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(CountPattern(reports, 3), 0);
}

TEST(SmartLoopEdgeTest, NestedLoopsInnerBreakLeaksInner) {
  const auto reports = ScanText(
      "static int nested(struct device_node *parent)\n"
      "{\n"
      "  struct device_node *child;\n"
      "  struct device_node *gc;\n"
      "  for_each_child_of_node(parent, child) {\n"
      "    for_each_child_of_node(child, gc) {\n"
      "      if (match(gc))\n"
      "        break;\n"  // *BUG*: gc leaks (child is fine: outer loop continues)
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  ASSERT_GE(CountPattern(reports, 3), 1);
  bool inner = false;
  for (const BugReport& r : reports) {
    inner |= r.anti_pattern == 3 && r.object == "gc";
  }
  EXPECT_TRUE(inner);
}

TEST(SmartLoopEdgeTest, GotoNonErrorLabelInsideLoopIsNotP3) {
  // A goto to a non-error label (e.g. a retry) is not treated as an exit.
  const auto reports = ScanText(
      "static int walk(struct device_node *parent)\n"
      "{\n"
      "  struct device_node *child;\n"
      "retry:\n"
      "  for_each_child_of_node(parent, child) {\n"
      "    if (transient(child))\n"
      "      goto retry;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(CountPattern(reports, 3), 0);
}

// ----------------------------------------------------------------- locks

TEST(LockInteractionTest, PutInsideCriticalSectionThenUnlockIsP8) {
  const auto reports = ScanText(
      "static void drop_locked(struct usb_serial *serial)\n"
      "{\n"
      "  mutex_lock(&serial->disc_mutex);\n"
      "  finish(serial);\n"
      "  usb_serial_put(serial);\n"
      "  mutex_unlock(&serial->disc_mutex);\n"  // *BUG*: Listing 2 shape
      "}\n");
  EXPECT_EQ(CountPattern(reports, 8), 1);
}

TEST(LockInteractionTest, UnlockOfUnrelatedLockIsClean) {
  const auto reports = ScanText(
      "static void drop_other(struct usb_serial *serial, struct bus *bus)\n"
      "{\n"
      "  mutex_lock(&bus->lock);\n"
      "  usb_serial_put(serial);\n"
      "  mutex_unlock(&bus->lock);\n"  // different object: fine
      "}\n");
  EXPECT_EQ(CountPattern(reports, 8), 0);
}

// --------------------------------------------------------------- escapes

TEST(EscapeEdgeTest, OutParameterStoreThenDropIsP9) {
  const auto reports = ScanText(
      "static int lookup_into(struct device_node **out)\n"
      "{\n"
      "  struct device_node *np = of_find_node_by_path(\"/x\");\n"
      "  if (!np)\n"
      "    return -ENODEV;\n"
      "  *out = np;\n"  // escapes through the out-parameter...
      "  validate(np);\n"
      "  of_node_put(np);\n"  // ...then the only reference is dropped
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(CountPattern(reports, 9), 1);
}

TEST(EscapeEdgeTest, LocalStructFieldStoreIsNotAnEscape) {
  const auto reports = ScanText(
      "static int local_cache(void)\n"
      "{\n"
      "  struct walk_state st;\n"
      "  struct device_node *np = of_find_node_by_path(\"/x\");\n"
      "  if (!np)\n"
      "    return -ENODEV;\n"
      "  st.node = np;\n"  // local struct: no escape
      "  run(&st);\n"
      "  of_node_put(np);\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(CountPattern(reports, 9), 0);
}

// ---------------------------------------------------------------- switch

TEST(SwitchTest, LeakOnOneCaseOnly) {
  const auto reports = ScanText(
      "static int dispatch(int kind)\n"
      "{\n"
      "  struct device_node *np = of_find_node_by_path(\"/x\");\n"
      "  if (!np)\n"
      "    return -ENODEV;\n"
      "  switch (kind) {\n"
      "  case 1:\n"
      "    handle1(np);\n"
      "    of_node_put(np);\n"
      "    return 0;\n"
      "  default:\n"
      "    return -EINVAL;\n"  // *BUG*: leaks np
      "  }\n"
      "}\n");
  EXPECT_GE(CountPattern(reports, 5), 1);
}

// --------------------------------------------------------- path explosion

// The checkers walk the CFG instead of enumerating its paths, so no number
// of event-free branches can hide a leak. Parameter k = event-free branches.
class PathCapTest : public ::testing::TestWithParam<int> {};

TEST_P(PathCapTest, ManyBranchesStillTerminatesAndDetects) {
  const int k = GetParam();
  std::string branches;
  for (int i = 0; i < k; ++i) {
    branches += "  if (cond" + std::to_string(i) + "()) side" + std::to_string(i) + "();\n";
  }
  SourceTree tree;
  // A leak no path releases (P4): np is never put.
  tree.Add("drivers/t/wide.c",
           "static int wide(void)\n"
           "{\n"
           "  struct device_node *np = of_find_node_by_path(\"/x\");\n"
           "  if (!np)\n"
           "    return -ENODEV;\n" +
               branches + "  return 0;\n}\n");
  // A leak only the last path shows (P5): the branches multiply the paths
  // through `fast` before the walk could reach `return -EIO`.
  tree.Add("drivers/t/fast.c",
           "static int probe(int fast)\n"
           "{\n"
           "  struct device_node *np = of_find_node_by_name(NULL, \"x\");\n"
           "  if (!np)\n"
           "    return -ENODEV;\n"
           "  if (fast) {\n" +
               branches +
               "    of_node_put(np);\n"
               "    return 0;\n"
               "  }\n"
               "  return -EIO;\n"
               "}\n");
  const uint32_t eio_line = 10 + static_cast<uint32_t>(k);
  const auto reports = CheckerEngine().Scan(tree).reports;
  std::set<std::tuple<std::string, int, uint32_t, std::string>> found;
  for (const BugReport& r : reports) {
    found.emplace(r.file, r.anti_pattern, r.line, r.object);
    if (r.anti_pattern == 5) {
      EXPECT_EQ(r.exit_line, eio_line) << "k=" << k;
    }
  }
  const std::set<std::tuple<std::string, int, uint32_t, std::string>> expected = {
      {"drivers/t/fast.c", 5, 3, "np"}, {"drivers/t/wide.c", 4, 3, "np"}};
  EXPECT_EQ(found, expected) << "k=" << k;
  EXPECT_GE(CountPattern(reports, 4), 1);
}

INSTANTIATE_TEST_SUITE_P(EventFreeBranches, PathCapTest, ::testing::Range(0, 21));

TEST(PathBudgetTest, CapOfOnePathStillFindsALaterPathLeak) {
  // max_paths_per_function caps only IPA summaries and `match`: with a
  // budget of one path (the NULL branch), the leak on the third is found.
  ScanOptions options;
  options.max_paths_per_function = 1;
  CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
  std::string code =
      "static int probe(int fast)\n"
      "{\n"
      "  struct device_node *np = of_find_node_by_path(\"/x\");\n"
      "  if (!np)\n"
      "    return -ENODEV;\n"
      "  if (fast) {\n"
      "    of_node_put(np);\n"
      "    return 0;\n"
      "  }\n"
      "  return -EIO;\n"  // *BUG*: the error path misses the put
      "}\n";
  const auto result = engine.ScanFileText("drivers/t/t.c", code);
  ASSERT_EQ(CountPattern(result.reports, 5), 1);
  EXPECT_EQ(result.reports[0].line, 3u);
  EXPECT_EQ(result.reports[0].exit_line, 10u);
}

// ------------------------------------------------------------ loop bound

TEST(LoopBoundTest, BugNeedingThreeIterationsIsFound) {
  // np is acquired on the first iteration, stored into a global on the
  // second and put on the third (P9). A path enumerator that lets each node
  // repeat twice never sees the put after the store; the walk lets a loop
  // run any number of times.
  const auto reports = ScanText(
      "static struct device_node *saved;\n"
      "static void cycle(int n)\n"
      "{\n"
      "  struct device_node *np = NULL;\n"
      "  int i;\n"
      "  for (i = 0; i < n; i++) {\n"
      "    if (i == 0)\n"
      "      np = of_find_node_by_path(\"/x\");\n"
      "    else if (i == 1)\n"
      "      saved = np;\n"
      "    else\n"
      "      of_node_put(np);\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(CountPattern(reports, 9), 1);
  for (const BugReport& r : reports) {
    if (r.anti_pattern == 9) {
      EXPECT_EQ(r.line, 10u);
      EXPECT_EQ(r.object, "saved");
    }
  }
}

// -------------------------------------------------------------- do-while

TEST(DoWhileTest, LeakInsideDoWhileBody) {
  const auto reports = ScanText(
      "static int spin(void)\n"
      "{\n"
      "  do {\n"
      "    struct device_node *np = of_find_node_by_path(\"/x\");\n"
      "    if (!np)\n"
      "      return -ENODEV;\n"
      "    poke(np);\n"
      "  } while (again());\n"  // *BUG*: np leaks every iteration
      "  return 0;\n"
      "}\n");
  EXPECT_GE(CountPattern(reports, 4), 1);
}

// ------------------------------------------------------- ternary condition

TEST(TernaryTest, AcquisitionInTernaryStillTracked) {
  const auto reports = ScanText(
      "static int pick(int flag)\n"
      "{\n"
      "  struct device_node *np;\n"
      "  np = flag ? of_find_node_by_path(\"/a\") : of_find_node_by_path(\"/b\");\n"
      "  if (!np)\n"
      "    return -ENODEV;\n"
      "  use(np);\n"
      "  of_node_put(np);\n"
      "  return 0;\n"
      "}\n");
  // Both acquisitions are released through the same put; no reports.
  EXPECT_TRUE(reports.empty()) << (reports.empty() ? "" : reports[0].message);
}

}  // namespace
}  // namespace refscan
