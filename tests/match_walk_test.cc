// `refscan match` walks the CFG (src/checkers/template_matcher.cc); these
// tests hold it against the path matcher it replaced (tests/path_matcher.h)
// and against the shapes path enumeration lost. The walk matches more: it
// tries every start where the path matcher kept one match per path, and
// where a negation follows a step it tries every event the step can take,
// where the path matcher took B_error's first error node.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/checkers/scan_stages.h"
#include "src/checkers/template_matcher.h"
#include "src/corpus/generator.h"
#include "tests/path_matcher.h"

namespace refscan {
namespace {

// Every template tests/template_matcher_test.cc parses or matches.
const std::vector<std::string>& Templates() {
  static const std::vector<std::string> templates = {
      "F_start -> S_G_E -> B_error -> F_end",
      "F_start -> S_P(p0) -> S_D(p0) -> F_end",
      "F_start -> M_SL -> S_ret -> F_end",
      "F_start -> S_G -> S_free -> F_end",
      "F_start -> S_A_GO(p0) -> S_P(p0) -> F_end",
      "S_G(of_node_get) -> !S_P -> F_end",
      "F_start -> !S_P(p0) -> S_G_N(p0) -> F_end",
      "S_G(kref_get) -> S_P(p0)",
      "F_start -> S_G(p0) -> !S_P(p0) -> F_end",
      "F_start -> S_G_E(p0) -> !S_P(p0) -> B_error -> F_end",
      "S_G(sock_hold) -> F_end",
      "S_G(kref_get) -> F_end",
      "F_start -> S_G(p0) -> S_free(p0) -> F_end",
      "F_start -> S_G(p0) -> S_A_GO(p0) -> S_P(p0) -> F_end",
      "S_L -> S_P(p0) -> S_U -> F_end",
      // And one without an event step, matched from the entry.
      "F_start -> B_error -> F_end",
      // Steps a negation follows, which the walk forks at.
      "F_start -> S_G(p0) -> S_D(p0) -> !S_P(p0) -> F_end",
      "F_start -> S_G(p0) -> B_error -> !S_P(p0) -> F_end",
      "F_start -> S_G(p0) -> !S_P(p0) -> S_P(p0) -> !S_D(p0) -> F_end",
  };
  return templates;
}

struct Named {
  const char* name;
  CorpusOptions options;
};

std::vector<Named> Corpora() {
  std::vector<Named> corpora(4);
  corpora[0].name = "base";
  corpora[1].name = "kernelish-20";
  corpora[1].options.kernelish_modules = 20;
  corpora[2].name = "wrapper-chain-2-3";
  corpora[2].options.wrapper_chain_depths = {2, 3};
  corpora[3].name = "new-family";
  corpora[3].options.new_family_modules = true;
  return corpora;
}

using Key = std::tuple<std::string, std::string, uint32_t, std::string>;

TEST(MatchWalkTest, IncludesEveryPathMatchOnTheCorpora) {
  std::vector<SemanticTemplate> templates;
  for (const std::string& text : Templates()) {
    const auto tmpl = ParseTemplate(text);
    ASSERT_TRUE(tmpl.has_value()) << text;
    templates.push_back(*tmpl);
  }
  ScanOptions options;
  options.dialects = {"glib", "uacpi"};
  std::vector<size_t> path_matches(templates.size(), 0);
  std::vector<size_t> extras(templates.size(), 0);
  size_t functions = 0;
  for (const Named& named : Corpora()) {
    const Corpus corpus = GenerateKernelCorpus(named.options);
    ScanSpine spine(corpus.tree, KnowledgeBase::BuiltIn(), options, /*keep_units=*/true);
    ASSERT_TRUE(spine.RunFront());
    for (FileScanState& st : spine.states()) {
      if (!st.unit) {
        continue;
      }
      FunctionContext fc;
      for (const FunctionDef& fn : st.unit->functions) {
        fc.Rebuild(*st.unit, fn, spine.kb());
        ++functions;
        for (size_t t = 0; t < templates.size(); ++t) {
          bool complete = false;
          const auto by_paths = MatchTemplateByPaths(templates[t], fc, 512, complete);
          ASSERT_TRUE(complete) << st.unit->path << ": " << fn.name.view();
          std::map<Key, uint32_t> walked;
          for (const TemplateMatch& m : MatchTemplate(templates[t], fc)) {
            walked.emplace(Key{st.unit->path, fn.name.str(), m.line, m.object}, m.last_line);
          }
          for (const TemplateMatch& m : by_paths) {
            const Key key{st.unit->path, fn.name.str(), m.line, m.object};
            const auto it = walked.find(key);
            ASSERT_NE(it, walked.end())
                << named.name << " " << Templates()[t] << ": " << st.unit->path << ":" << m.line
                << " " << fn.name.view() << " '" << m.object << "'";
            // The branch the walk completes first is the first such path.
            EXPECT_EQ(it->second, m.last_line) << st.unit->path << ":" << m.line;
          }
          path_matches[t] += by_paths.size();
          extras[t] += walked.size() - std::min(walked.size(), by_paths.size());
        }
      }
    }
  }
  EXPECT_GT(functions, 4000u);
  // The walk may match more: the path matcher keeps one match per path,
  // takes B_error's first error node, and its enumeration runs a loop body
  // at most once.
  for (size_t t = 0; t < templates.size(); ++t) {
    std::printf("  %-55s %5zu path matches, %3zu more by the walk\n", Templates()[t].c_str(),
                path_matches[t], extras[t]);
  }
}

// A leak behind k event-free branches: the walk finds it at every k; the
// path matcher's 512-path budget lost it from k = 9 on.
TEST(MatchWalkTest, BranchesBeforeTheLeakHideNothing) {
  SourceTree tree;
  std::string code;
  std::set<std::string> expected;
  for (const int k : {4, 8, 9, 10, 12}) {
    std::string branches;
    for (int i = 0; i < k; ++i) {
      branches += "    if (cond" + std::to_string(i) + "()) side" + std::to_string(i) + "();\n";
    }
    const std::string name = "probe_k" + std::to_string(k);
    code += "static int " + name +
            "(int fast)\n"
            "{\n"
            "  struct device_node *np = of_find_node_by_name(NULL, \"x\");\n"
            "  if (fast) {\n" +
            branches +
            "    of_node_put(np);\n"
            "    return 0;\n"
            "  }\n"
            "  return -EIO;\n"
            "}\n\n";
    expected.insert(name);
  }
  tree.Add("drivers/t/fast.c", code);
  const auto tmpl = ParseTemplate("F_start -> S_G(p0) -> !S_P(p0) -> F_end");
  ASSERT_TRUE(tmpl.has_value());
  std::set<std::string> matched;
  for (const BugReport& r : RunTemplateChecker(*tmpl, tree)) {
    EXPECT_EQ(r.object, "np");
    matched.insert(r.function);
  }
  EXPECT_EQ(matched, expected);
}

}  // namespace
}  // namespace refscan
