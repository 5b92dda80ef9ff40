// Parallel scan pipeline tests: reports must be byte-identical at every
// thread count (the engine's determinism guarantee), and concurrent engines
// must not interfere (the ThreadSanitizer-facing stress shape; build with
// -DREFSCAN_SANITIZE=thread to run it under TSan).

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/checkers/engine.h"
#include "src/checkers/template_matcher.h"
#include "src/corpus/generator.h"
#include "src/histmine/miner.h"
#include "src/checkers/deviations.h"
#include "src/support/threadpool.h"

namespace refscan {
namespace {

const Corpus& SharedCorpus() {
  static const Corpus* corpus = new Corpus(GenerateKernelCorpus());
  return *corpus;
}

ScanResult ScanWithJobs(const SourceTree& tree, size_t jobs) {
  ScanOptions options;
  options.jobs = jobs;
  CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
  return engine.Scan(tree);
}

void ExpectIdentical(const ScanResult& a, const ScanResult& b) {
  EXPECT_EQ(a.stats.files, b.stats.files);
  EXPECT_EQ(a.stats.functions, b.stats.functions);
  EXPECT_EQ(a.stats.discovered_apis, b.stats.discovered_apis);
  EXPECT_EQ(a.stats.discovered_smart_loops, b.stats.discovered_smart_loops);
  EXPECT_EQ(a.stats.refcounted_structs, b.stats.refcounted_structs);
  EXPECT_EQ(a.stats.summarized_functions, b.stats.summarized_functions);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  // The JSON rendering covers every report field, so equal JSON means the
  // report lists are byte-identical.
  EXPECT_EQ(ReportsToJson(a.reports), ReportsToJson(b.reports));
}

TEST(ScanParallelTest, ReportsIdenticalAcrossThreadCounts) {
  const Corpus& corpus = SharedCorpus();
  const ScanResult serial = ScanWithJobs(corpus.tree, 1);
  EXPECT_GT(serial.reports.size(), 0u);
  ExpectIdentical(serial, ScanWithJobs(corpus.tree, 2));
  ExpectIdentical(serial, ScanWithJobs(corpus.tree, 8));
  ExpectIdentical(serial, ScanWithJobs(corpus.tree, 0));  // hardware concurrency
}

TEST(ScanParallelTest, MoreThreadsThanFiles) {
  // Lanes are clamped to the item count; a tiny tree with a huge jobs value
  // must still scan correctly.
  SourceTree tree;
  tree.Add("drivers/a/a.c",
           "static int probe(struct device_node *np)\n"
           "{\n"
           "  struct device_node *child = of_get_parent(np);\n"
           "  return 0;\n"
           "}\n");
  ScanResult serial = ScanWithJobs(tree, 1);
  ScanResult wide = ScanWithJobs(tree, 64);
  EXPECT_GT(serial.reports.size(), 0u);
  EXPECT_EQ(ReportsToJson(serial.reports), ReportsToJson(wide.reports));
}

TEST(ScanParallelTest, ConcurrentEnginesStress) {
  // Two engines, each with its own pool, scanning the same (const) tree at
  // the same time. Under -DREFSCAN_SANITIZE=thread this is the test that
  // would flag any shared mutable state between scans.
  const Corpus& corpus = SharedCorpus();
  const ScanResult baseline = ScanWithJobs(corpus.tree, 1);

  ScanResult from_a;
  ScanResult from_b;
  std::thread ta([&] { from_a = ScanWithJobs(corpus.tree, 4); });
  std::thread tb([&] { from_b = ScanWithJobs(corpus.tree, 4); });
  ta.join();
  tb.join();

  ExpectIdentical(baseline, from_a);
  ExpectIdentical(baseline, from_b);
}

TEST(ScanParallelTest, SuppressionOnLineOneChecksTheLineOnlyOnce) {
  // Regression: the old probe-line initializer {r.line, r.line-1 or r.line}
  // scanned line 1 twice for a line-1 report. The dedup keeps behaviour
  // correct at the boundary: a marker on line 1 suppresses a line-1 report,
  // and there is no phantom "line above".
  const char* bug_on_line_one =
      "static void f(struct device_node *np) { struct device_node *c = of_get_parent(np); }\n";
  CheckerEngine plain;
  const ScanResult unsuppressed = plain.ScanFileText("drivers/t/t.c", bug_on_line_one);
  ASSERT_GT(unsuppressed.reports.size(), 0u);
  EXPECT_EQ(unsuppressed.reports[0].line, 1u);

  const std::string suppressed_text =
      "static void f(struct device_node *np) { struct device_node *c = of_get_parent(np); } "
      "/* refscan: ignore */\n";
  CheckerEngine with_marker;
  const ScanResult suppressed = with_marker.ScanFileText("drivers/t/t.c", suppressed_text);
  EXPECT_EQ(suppressed.reports.size(), 0u);
}

TEST(ScanParallelTest, TemplateCheckerDeterministicAcrossJobs) {
  const Corpus& corpus = SharedCorpus();
  const auto tmpl = ParseTemplate("F_start -> S_P(p0) -> S_D(p0) -> F_end");
  ASSERT_TRUE(tmpl.has_value());
  ScanOptions serial_options;
  serial_options.jobs = 1;
  ScanOptions wide_options;
  wide_options.jobs = 8;
  const auto serial = RunTemplateChecker(*tmpl, corpus.tree, KnowledgeBase::BuiltIn(),
                                         serial_options);
  const auto wide = RunTemplateChecker(*tmpl, corpus.tree, KnowledgeBase::BuiltIn(),
                                       wide_options);
  EXPECT_EQ(ReportsToJson(serial), ReportsToJson(wide));
}

TEST(ScanParallelTest, DeviationDetectorDeterministicAcrossJobs) {
  const Corpus& corpus = SharedCorpus();
  ScanOptions serial_options;
  serial_options.jobs = 1;
  ScanOptions wide_options;
  wide_options.jobs = 8;
  const auto serial = DetectDeviations(corpus.tree, serial_options);
  const auto wide = DetectDeviations(corpus.tree, wide_options);
  ASSERT_EQ(serial.size(), wide.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].api, wide[i].api);
    EXPECT_EQ(serial[i].file, wide[i].file);
    EXPECT_EQ(serial[i].line, wide[i].line);
    EXPECT_EQ(serial[i].kind, wide[i].kind);
    EXPECT_EQ(serial[i].hidden, wide[i].hidden);
    EXPECT_EQ(serial[i].note, wide[i].note);
  }
}

TEST(ScanParallelTest, MinerDeterministicAcrossJobs) {
  HistoryOptions options;
  options.noise_commits = 2000;
  const History history = GenerateHistory(options);
  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const MiningResult serial = MineRefcountBugs(history, kb, 1);
  const MiningResult wide = MineRefcountBugs(history, kb, 4);

  EXPECT_EQ(serial.level1_candidates, wide.level1_candidates);
  EXPECT_EQ(serial.level2_candidates, wide.level2_candidates);
  EXPECT_EQ(serial.removed_as_wrong_fix, wide.removed_as_wrong_fix);
  ASSERT_EQ(serial.dataset.size(), wide.dataset.size());
  for (size_t i = 0; i < serial.dataset.size(); ++i) {
    EXPECT_EQ(serial.dataset[i].commit, wide.dataset[i].commit);
    EXPECT_EQ(serial.dataset[i].kind, wide.dataset[i].kind);
    EXPECT_EQ(serial.dataset[i].is_uad, wide.dataset[i].is_uad);
    EXPECT_EQ(serial.dataset[i].is_leak, wide.dataset[i].is_leak);
    EXPECT_EQ(serial.dataset[i].subsystem, wide.dataset[i].subsystem);
    EXPECT_EQ(serial.dataset[i].fixed_release, wide.dataset[i].fixed_release);
    EXPECT_EQ(serial.dataset[i].introduced_release, wide.dataset[i].introduced_release);
  }
}

}  // namespace
}  // namespace refscan
