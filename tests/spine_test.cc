// Tests for the scan spine (src/checkers/scan_stages): every client of the
// one skeleton gets its guarantees. A reused engine starts each scan from
// its seed KB; `match` gets the spine's `refscan: ignore` filter; and a
// parser fault makes `deviations`, `summaries` and `match` quarantine the
// faulted files and report the healthy rest exactly as a scan of that rest
// alone would.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/checkers/deviations.h"
#include "src/checkers/engine.h"
#include "src/checkers/report.h"
#include "src/checkers/scan_stages.h"
#include "src/checkers/template_matcher.h"
#include "src/corpus/generator.h"
#include "src/ipa/summary.h"

namespace refscan {
namespace {

void ExpectSameScan(const ScanResult& want, const ScanResult& got) {
  EXPECT_EQ(ReportsToJson(want.reports), ReportsToJson(got.reports));
  for (const ScanStatsField& f : ScanStatsFields()) {
    EXPECT_EQ(want.stats.*f.member, got.stats.*f.member) << f.json_key;
  }
  EXPECT_EQ(want.failures.size(), got.failures.size());
}

TEST(ScanSpineTest, EveryScanOfOneEngineStartsFromTheSeed) {
  // a.c teaches discovery a wrapper; b.c leaks through it on -EIO. Only a
  // scan that sees both files may know the wrapper.
  SourceTree a;
  a.Add("drivers/x/a.c",
        "struct device_node *my_grab(struct device_node *np)\n"
        "{\n"
        "  return of_node_get(np);\n"
        "}\n");
  SourceTree b;
  b.Add("drivers/x/b.c",
        "static int probe(struct device_node *np)\n"
        "{\n"
        "  struct device_node *child = my_grab(np);\n"
        "  if (setup(child) < 0)\n"
        "    return -EIO;\n"
        "  of_node_put(child);\n"
        "  return 0;\n"
        "}\n");

  CheckerEngine reused;
  const ScanResult first = reused.Scan(a);
  const ScanResult second = reused.Scan(b);
  ExpectSameScan(CheckerEngine().Scan(a), first);
  ExpectSameScan(CheckerEngine().Scan(b), second);
}

// of_node_put then a dereference: the canonical use-after-decrease shape.
constexpr const char* kUadTemplate = "F_start -> S_P(p0) -> S_D(p0) -> F_end";

std::string UseAfterPut(const std::string& fn, const char* marker) {
  return "static int " + fn +
         "(struct device_node *np)\n"
         "{\n"
         "  of_node_put(np);" + marker + "\n"
         "  return np->flags;\n"
         "}\n";
}

TEST(ScanSpineTest, MatchHonoursSuppressionComments) {
  const auto tmpl = ParseTemplate(kUadTemplate);
  ASSERT_TRUE(tmpl.has_value());
  SourceTree tree;
  tree.Add("drivers/x/plain.c", UseAfterPut("plain", ""));
  tree.Add("drivers/x/quiet.c", UseAfterPut("quiet", " /* refscan: ignore */"));
  const std::vector<BugReport> matches = RunTemplateChecker(*tmpl, tree);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].file, "drivers/x/plain.c");
}

// The demo corpus with every drivers/ file dropped: what a fault on
// parser.parse:file=drivers/* must leave behind.
SourceTree WithoutDrivers(const SourceTree& tree) {
  SourceTree rest;
  for (const auto& [path, file] : tree.files()) {
    if (path.rfind("drivers/", 0) != 0) {
      rest.Add(path, std::string(file.text()));
    }
  }
  return rest;
}

class ClientQuarantineTest : public ::testing::Test {
 protected:
  static const Corpus& SharedCorpus() {
    static const Corpus* corpus = new Corpus(GenerateKernelCorpus());
    return *corpus;
  }

  ClientQuarantineTest() : rest_(WithoutDrivers(SharedCorpus().tree)) {
    faulted_.jobs = 2;
    faulted_.fault_spec = "parser.parse:file=drivers/*";
    plain_.jobs = 2;
  }

  // Every quarantined file is a drivers/ file that failed in the parse
  // stage, and every drivers/ file is quarantined.
  void ExpectDriversQuarantined(const ScanResult& scan) const {
    EXPECT_FALSE(scan.aborted);
    EXPECT_EQ(scan.failures.size(), SharedCorpus().tree.size() - rest_.size());
    for (const FileFailure& f : scan.failures) {
      EXPECT_EQ(f.path.rfind("drivers/", 0), 0u) << f.path;
      EXPECT_EQ(f.stage, FailureStage::kParse) << f.path;
      EXPECT_EQ(f.kind, FailureKind::kParse) << f.path;
    }
  }

  const SourceTree& tree() const { return SharedCorpus().tree; }

  SourceTree rest_;
  ScanOptions faulted_;
  ScanOptions plain_;
};

TEST_F(ClientQuarantineTest, DeviationsReportTheHealthyRest) {
  ASSERT_LT(rest_.size(), tree().size());
  ScanResult scan;
  const std::vector<DeviationReport> got = DetectDeviations(tree(), faulted_, &scan);
  ExpectDriversQuarantined(scan);
  const std::vector<DeviationReport> want = DetectDeviations(rest_, plain_);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].api, want[i].api);
    EXPECT_EQ(got[i].file, want[i].file);
    EXPECT_EQ(got[i].line, want[i].line);
  }
}

TEST_F(ClientQuarantineTest, SummariesReportTheHealthyRest) {
  const auto summarize = [](const SourceTree& tree, ScanOptions options, ScanResult& scan) {
    options.interprocedural = true;
    ScanSpine spine(tree, KnowledgeBase::BuiltIn(), std::move(options));
    EXPECT_TRUE(spine.RunFront());
    std::string json = SummariesToJson(spine.summaries());
    scan = spine.Finish();
    return json;
  };
  ScanResult faulted_scan;
  ScanResult rest_scan;
  const std::string got = summarize(tree(), faulted_, faulted_scan);
  ExpectDriversQuarantined(faulted_scan);
  EXPECT_EQ(got, summarize(rest_, plain_, rest_scan));
  EXPECT_TRUE(rest_scan.failures.empty());
}

TEST_F(ClientQuarantineTest, MatchReportsTheHealthyRest) {
  const auto tmpl = ParseTemplate(kUadTemplate);
  ASSERT_TRUE(tmpl.has_value());
  ScanResult scan;
  const std::vector<BugReport> got =
      RunTemplateChecker(*tmpl, tree(), KnowledgeBase::BuiltIn(), faulted_, &scan);
  ExpectDriversQuarantined(scan);
  EXPECT_EQ(ReportsToJson(got),
            ReportsToJson(RunTemplateChecker(*tmpl, rest_, KnowledgeBase::BuiltIn(), plain_)));
}

}  // namespace
}  // namespace refscan
