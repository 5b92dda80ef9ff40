// IPA summaries walk the CFG (src/ipa/summary.cc): no path budget, so a
// branchy wrapper is summarised and injected like any other, and the
// summaries of the corpora stay what path enumeration made them.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ast/parser.h"
#include "src/cache/serial.h"
#include "src/checkers/engine.h"
#include "src/checkers/scan_stages.h"
#include "src/corpus/generator.h"
#include "src/ipa/summary.h"
#include "src/support/strings.h"
#include "src/support/threadpool.h"

namespace refscan {
namespace {

std::string Branches(int k) {
  std::string out;
  for (int i = 0; i < k; ++i) {
    out += "  if (cond" + std::to_string(i) + "()) side" + std::to_string(i) + "();\n";
  }
  return out;
}

const FunctionSummary* FindSummary(const SummaryResult& result, std::string_view name) {
  for (const FunctionSummary& s : result.summaries) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

// A 𝒢_E forwarder with k event-free branches in front of its `return
// w2(dev);`. At 9 branches and more, path enumeration hit its 512-path cap,
// dropped w1's summary and left the caller's leak to P5.
class ForwarderBranchesTest : public ::testing::TestWithParam<int> {};

TEST_P(ForwarderBranchesTest, ErrorIncrementReachesTheCaller) {
  const std::string code =
      "static int w2(struct device *dev)\n"
      "{\n"
      "  return pm_runtime_get_sync(dev);\n"
      "}\n"
      "\n"
      "static int w1(struct device *dev)\n"
      "{\n" +
      Branches(GetParam()) +
      "  return w2(dev);\n"
      "}\n"
      "\n"
      "static int user(struct device *dev)\n"
      "{\n"
      "  if (w1(dev) < 0)\n"
      "    return -EIO;\n"
      "  pm_runtime_put(dev);\n"
      "  return 0;\n"
      "}\n";
  SourceTree tree;
  tree.Add("drivers/t/pm.c", code);
  ScanOptions options;
  options.interprocedural = true;
  ScanSpine spine(tree, KnowledgeBase::BuiltIn(), options, /*keep_units=*/true);
  ASSERT_TRUE(spine.RunFront());
  const FunctionSummary* w1 = FindSummary(spine.summaries(), "w1");
  ASSERT_NE(w1, nullptr);
  EXPECT_TRUE(w1->registered);
  EXPECT_TRUE(w1->error_increment);
  const RefApiInfo* api = spine.kb().FindApi("w1");
  ASSERT_NE(api, nullptr);
  EXPECT_TRUE(api->returns_error);

  const ScanResult result = CheckerEngine(KnowledgeBase::BuiltIn(), options).Scan(tree);
  bool p1_in_user = false;
  for (const BugReport& r : result.reports) {
    EXPECT_NE(r.anti_pattern, 5) << r.function << ":" << r.line;
    p1_in_user |= r.anti_pattern == 1 && r.function == "user";
  }
  EXPECT_TRUE(p1_in_user);
}

INSTANTIATE_TEST_SUITE_P(EventFreeBranches, ForwarderBranchesTest, ::testing::Values(8, 9, 12));

TEST(SummaryWalkTest, WrapperWith4096PathsIsInjected) {
  SourceFile file("drivers/t/hold.c",
                  "static void hold(struct device_node *np)\n"
                  "{\n" +
                      Branches(12) +
                      "  of_node_get(np);\n"
                      "}\n");
  const TranslationUnit unit = ParseFile(file);
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  ThreadPool pool(1);
  const SummaryResult result = ComputeSummaries({&unit}, kb, SummaryOptions{}, pool);
  const FunctionSummary* hold = FindSummary(result, "hold");
  ASSERT_NE(hold, nullptr);
  ASSERT_EQ(hold->params.size(), 1u);
  EXPECT_TRUE(hold->params[0].saw_normal);
  EXPECT_TRUE(hold->params[0].normal_consistent);
  EXPECT_EQ(hold->params[0].normal_delta, 1);
  EXPECT_TRUE(hold->registered);
  const RefApiInfo* api = kb.FindApi("hold");
  ASSERT_NE(api, nullptr);
  EXPECT_EQ(api->direction, RefDirection::kIncrease);
  EXPECT_EQ(api->object_param, 0);
  EXPECT_EQ(SummariesToText(result).find("truncated"), std::string::npos);
}

// A returned object holding +1 may be NULL exactly when the last 𝒢 that
// acquired it may return NULL.
TEST(SummaryWalkTest, ReturnedReferenceTakesItsLastGetsNullability) {
  SourceFile file("drivers/t/grab.c",
                  "struct mdesc_handle *grab_md(void)\n"
                  "{\n"
                  "  struct mdesc_handle *hp = mdesc_grab();\n"
                  "  return hp;\n"
                  "}\n"
                  "\n"
                  "struct device_node *grab_node(struct device_node *np)\n"
                  "{\n"
                  "  of_node_get(np);\n"
                  "  return np;\n"
                  "}\n");
  const TranslationUnit unit = ParseFile(file);
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  ThreadPool pool(1);
  const SummaryResult result = ComputeSummaries({&unit}, kb, SummaryOptions{}, pool);
  const FunctionSummary* md = FindSummary(result, "grab_md");
  ASSERT_NE(md, nullptr);
  EXPECT_TRUE(md->returns_acquired);
  EXPECT_TRUE(md->may_return_null);
  const FunctionSummary* node = FindSummary(result, "grab_node");
  ASSERT_NE(node, nullptr);
  EXPECT_TRUE(node->returns_acquired);
  EXPECT_FALSE(node->may_return_null);
}

std::string Calls(const char* call, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += std::string("  ") + call + "(np);\n";
  }
  return out;
}

// The walk counts exactly: four gets then four puts net 0, as do four puts
// then four gets, and neither wrapper is injected.
TEST(SummaryWalkTest, BalancedRunsOfFourNetZero) {
  SourceFile file("drivers/t/runs.c",
                  "void gets_then_puts(struct device_node *np)\n{\n" + Calls("of_node_get", 4) +
                      Calls("of_node_put", 4) +
                      "}\n\nvoid puts_then_gets(struct device_node *np)\n{\n" +
                      Calls("of_node_put", 4) + Calls("of_node_get", 4) + "}\n");
  const TranslationUnit unit = ParseFile(file);
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  ThreadPool pool(1);
  const SummaryResult result = ComputeSummaries({&unit}, kb, SummaryOptions{}, pool);
  for (const char* name : {"gets_then_puts", "puts_then_gets"}) {
    const FunctionSummary* s = FindSummary(result, name);
    ASSERT_NE(s, nullptr) << name;
    ASSERT_EQ(s->params.size(), 1u);
    EXPECT_TRUE(s->params[0].normal_consistent) << name;
    EXPECT_EQ(s->params[0].normal_delta, 0) << name;
    EXPECT_FALSE(s->registered) << name;
    EXPECT_EQ(kb.FindApi(name), nullptr) << name;
  }
}

// A net count past ±15 is unknown: its class is inconsistent and nothing is
// injected from it, where 15 gets still make an increase wrapper.
TEST(SummaryWalkTest, CountPastTheRangeInjectsNothing) {
  SourceFile file("drivers/t/many.c",
                  "void get15(struct device_node *np)\n{\n" + Calls("of_node_get", 15) +
                      "}\n\nvoid get16(struct device_node *np)\n{\n" +
                      Calls("of_node_get", 16) +
                      "}\n\nvoid round16(struct device_node *np)\n{\n" +
                      Calls("of_node_get", 16) + Calls("of_node_put", 16) + "}\n");
  const TranslationUnit unit = ParseFile(file);
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  ThreadPool pool(1);
  const SummaryResult result = ComputeSummaries({&unit}, kb, SummaryOptions{}, pool);
  const FunctionSummary* get15 = FindSummary(result, "get15");
  ASSERT_NE(get15, nullptr);
  EXPECT_TRUE(get15->params[0].normal_consistent);
  EXPECT_EQ(get15->params[0].normal_delta, 15);
  EXPECT_TRUE(get15->registered);
  for (const char* name : {"get16", "round16"}) {
    const FunctionSummary* s = FindSummary(result, name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_TRUE(s->params[0].saw_normal) << name;
    EXPECT_FALSE(s->params[0].normal_consistent) << name;
    EXPECT_EQ(s->params[0].normal_delta, 0) << name;
    EXPECT_FALSE(s->registered) << name;
    EXPECT_EQ(kb.FindApi(name), nullptr) << name;
  }
}

// Digests of `refscan summaries` text over four corpora, captured from the
// path-enumerating summariser before the walk replaced it: on these
// corpora no function had 512 paths, and the walk changes no summary.
TEST(SummaryWalkTest, CorpusSummariesKeepTheirDigests) {
  struct Case {
    const char* name;
    CorpusOptions options;
    const char* digest;
  };
  std::vector<Case> cases(4);
  cases[0] = {"base", {}, "b41c698fd2d45a62"};
  cases[1] = {"kernelish-20", {}, "ef651c1746340b49"};
  cases[1].options.kernelish_modules = 20;
  cases[2] = {"wrapper-chain-2-3", {}, "fa56471d93f159a3"};
  cases[2].options.wrapper_chain_depths = {2, 3};
  cases[3] = {"new-family", {}, "f3394c9f54de0090"};
  cases[3].options.new_family_modules = true;
  for (const Case& c : cases) {
    const Corpus corpus = GenerateKernelCorpus(c.options);
    ScanOptions options;
    options.interprocedural = true;
    options.dialects = {"glib", "uacpi"};
    ScanSpine spine(corpus.tree, KnowledgeBase::BuiltIn(), options);
    ASSERT_TRUE(spine.RunFront());
    const std::string text = SummariesToText(spine.summaries());
    EXPECT_EQ(StrFormat("%016llx", static_cast<unsigned long long>(HashBytes(text))), c.digest)
        << c.name;
  }
}

}  // namespace
}  // namespace refscan
