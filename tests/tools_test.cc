// Tests for the production-tool surfaces: deviation detection, suppression
// comments, disk loading and the git-log round trip.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "src/checkers/engine.h"
#include "src/histmine/gitlog.h"
#include "src/histmine/miner.h"
#include "src/checkers/deviations.h"
#include "src/support/fs.h"

namespace refscan {
namespace {

// ------------------------------------------------------------- deviations

TEST(DeviationsTest, DetectsReturnErrorDeviant) {
  SourceTree tree;
  tree.Add("drivers/power/rt.c",
           "int foo_power_get(struct dev *d)\n"
           "{\n"
           "  atomic_inc(&d->usage);\n"
           "  if (resume(d) < 0)\n"
           "    return -EIO;\n"
           "  return 0;\n"
           "}\n");
  const auto reports = DetectDeviations(tree);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, DeviationKind::kReturnError);
  EXPECT_EQ(reports[0].api, "foo_power_get");
  EXPECT_EQ(reports[0].file, "drivers/power/rt.c");
}

TEST(DeviationsTest, DetectsReturnNullDeviant) {
  SourceTree tree;
  tree.Add("drivers/sbus/md.c",
           "struct md *my_grab(void)\n"
           "{\n"
           "  if (!global_md)\n"
           "    return NULL;\n"
           "  refcount_inc(&global_md->refs);\n"
           "  return global_md;\n"
           "}\n");
  const auto reports = DetectDeviations(tree);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, DeviationKind::kReturnNull);
}

TEST(DeviationsTest, WellBehavedApiIsNotReported) {
  SourceTree tree;
  tree.Add("drivers/x/x.c",
           "struct foo *foo_get(struct foo *f)\n"
           "{\n"
           "  kref_get(&f->ref);\n"
           "  return f;\n"
           "}\n");
  EXPECT_TRUE(DetectDeviations(tree).empty());
}

TEST(DeviationsTest, HiddenDeviantFlagged) {
  SourceTree tree;
  tree.Add("drivers/x/x.c",
           "int widget_autoresume(struct dev *d)\n"  // no refcount keyword in the name
           "{\n"
           "  atomic_inc(&d->usage);\n"
           "  if (resume(d) < 0)\n"
           "    return -EBUSY;\n"
           "  return 0;\n"
           "}\n");
  const auto reports = DetectDeviations(tree);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].hidden);
}

// ------------------------------------------------------------ suppression

TEST(SuppressionTest, IgnoreCommentSilencesReport) {
  CheckerEngine engine;
  const auto with = engine.ScanFileText(
      "drivers/t/t.c",
      "static int p(struct platform_device *pdev)\n"
      "{\n"
      "  struct device_node *dn;\n"
      "  for_each_matching_node(dn, ids) {\n"
      "    if (match(dn))\n"
      "      break; /* refscan: ignore */\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(with.reports.empty());

  CheckerEngine engine2;
  const auto without = engine2.ScanFileText(
      "drivers/t/t.c",
      "static int p(struct platform_device *pdev)\n"
      "{\n"
      "  struct device_node *dn;\n"
      "  for_each_matching_node(dn, ids) {\n"
      "    if (match(dn))\n"
      "      break;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(without.reports.size(), 1u);
}

TEST(SuppressionTest, CommentOnPrecedingLineAlsoWorks) {
  CheckerEngine engine;
  const auto result = engine.ScanFileText(
      "drivers/t/t.c",
      "static int setup(void)\n"
      "{\n"
      "  /* refscan: ignore -- ownership documented elsewhere */\n"
      "  struct device_node *np = of_find_compatible_node(NULL, NULL, \"x\");\n"
      "  if (!np)\n"
      "    return -ENODEV;\n"
      "  use(np);\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(result.reports.empty());
}

// --------------------------------------------------------- pattern filter

TEST(PatternListTest, ParsesValidLists) {
  std::set<int> out;
  EXPECT_TRUE(ParsePatternList("1,4,8", out));
  EXPECT_EQ(out, (std::set<int>{1, 4, 8}));
  EXPECT_TRUE(ParsePatternList("9", out));
  EXPECT_EQ(out, std::set<int>{9});
  EXPECT_TRUE(ParsePatternList("3,3,3", out));  // duplicates collapse
  EXPECT_EQ(out, std::set<int>{3});
  EXPECT_TRUE(ParsePatternList("10,11,12", out));  // the P10-P12 extensions
  EXPECT_EQ(out, (std::set<int>{10, 11, 12}));
}

TEST(PatternListTest, RejectsInvalidListsWithoutTouchingOutput) {
  std::set<int> out = {7};
  EXPECT_FALSE(ParsePatternList("0", out));
  EXPECT_FALSE(ParsePatternList("13", out));
  EXPECT_FALSE(ParsePatternList("abc", out));
  EXPECT_FALSE(ParsePatternList("", out));
  EXPECT_FALSE(ParsePatternList("1,,2", out));
  EXPECT_FALSE(ParsePatternList("1,x", out));
  EXPECT_FALSE(ParsePatternList("-1", out));
  EXPECT_EQ(out, std::set<int>{7});  // failed parses leave the set alone
}

TEST(PatternListTest, EnabledPatternsRestrictTheScan) {
  // The P2 missing-null-check bug below must vanish when only P1 runs.
  const char* text =
      "static int vio_init(void)\n"
      "{\n"
      "  struct mdesc_handle *hp = mdesc_grab();\n"
      "  parse_node(hp->root);\n"
      "  mdesc_release(hp);\n"
      "  return 0;\n"
      "}\n";
  CheckerEngine all;
  const auto unrestricted = all.ScanFileText("drivers/t/t.c", text);
  EXPECT_FALSE(unrestricted.reports.empty());

  ScanOptions only_p1;
  ASSERT_TRUE(ParsePatternList("1", only_p1.enabled_patterns));
  CheckerEngine restricted(KnowledgeBase::BuiltIn(), only_p1);
  const auto filtered = restricted.ScanFileText("drivers/t/t.c", text);
  EXPECT_TRUE(filtered.reports.empty());
}

// --------------------------------------------------------------- disk I/O

class DiskTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test and process: ctest -j runs each case as its
    // own process, and a shared directory let them remove each other's tree.
    root_ = std::filesystem::temp_directory_path() /
            (std::string("refscan_disk_tree_test_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
             std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_ / "drivers" / "usb");
    std::filesystem::create_directories(root_ / ".git");
    Write("drivers/usb/dev.c",
          "static int p(void)\n"
          "{\n"
          "  struct device_node *np = of_find_node_by_path(\"/x\");\n"
          "  if (!np)\n"
          "    return -ENODEV;\n"
          "  use(np);\n"
          "  return 0;\n"
          "}\n");
    Write("drivers/usb/dev.h", "struct widget { struct kref ref; };\n");
    Write("drivers/usb/notes.txt", "not C\n");
    Write(".git/blob.c", "garbage\n");
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  void Write(const std::string& relative, const std::string& text) {
    std::ofstream out(root_ / relative);
    out << text;
  }

  std::filesystem::path root_;
};

TEST_F(DiskTreeTest, LoadsOnlyWantedFiles) {
  const SourceTree tree = LoadSourceTreeFromDisk(root_.string());
  EXPECT_EQ(tree.size(), 2u);  // .c and .h; .txt and .git skipped
  EXPECT_NE(tree.Find("drivers/usb/dev.c"), nullptr);
  EXPECT_NE(tree.Find("drivers/usb/dev.h"), nullptr);
  EXPECT_EQ(tree.Find("drivers/usb/notes.txt"), nullptr);
}

TEST_F(DiskTreeTest, ScanningDiskTreeFindsTheBug) {
  const SourceTree tree = LoadSourceTreeFromDisk(root_.string());
  CheckerEngine engine;
  const ScanResult result = engine.Scan(tree);
  ASSERT_EQ(result.reports.size(), 1u);
  EXPECT_EQ(result.reports[0].anti_pattern, 4);
  EXPECT_EQ(result.reports[0].file, "drivers/usb/dev.c");
}

TEST(DiskTreeErrorsTest, MissingRootReportsError) {
  std::vector<std::string> errors;
  const SourceTree tree = LoadSourceTreeFromDisk("/nonexistent/refscan/path", {}, &errors);
  EXPECT_EQ(tree.size(), 0u);
  ASSERT_EQ(errors.size(), 1u);
}

// ----------------------------------------------------------- gitlog round trip

TEST(GitLogTest, RoundTripPreservesMiningResult) {
  HistoryOptions options;
  options.noise_commits = 500;
  const History original = GenerateHistory(options);
  const std::string log = SerializeGitLog(original);
  const History parsed = ParseGitLog(log);

  EXPECT_EQ(parsed.commits.size(), original.commits.size());
  EXPECT_EQ(parsed.commit_release.size(), original.commit_release.size());

  const KnowledgeBase kb = KnowledgeBase::BuiltIn();
  const MiningResult a = MineRefcountBugs(original, kb);
  const MiningResult b = MineRefcountBugs(parsed, kb);
  EXPECT_EQ(a.level1_candidates.size(), b.level1_candidates.size());
  EXPECT_EQ(a.dataset.size(), b.dataset.size());

  // Kind/impact classification survives the round trip.
  std::map<std::string, std::pair<int, bool>> by_id;
  for (const MinedBug& bug : a.dataset) {
    by_id[bug.commit->id] = {static_cast<int>(bug.kind), bug.is_leak};
  }
  for (const MinedBug& bug : b.dataset) {
    const auto it = by_id.find(bug.commit->id);
    ASSERT_NE(it, by_id.end());
    EXPECT_EQ(it->second.first, static_cast<int>(bug.kind));
    EXPECT_EQ(it->second.second, bug.is_leak);
  }
}

TEST(GitLogTest, FixesTagSurvives) {
  HistoryOptions options;
  options.noise_commits = 0;
  const History original = GenerateHistory(options);
  const History parsed = ParseGitLog(SerializeGitLog(original));
  int tagged_original = 0;
  int tagged_parsed = 0;
  for (const Commit& c : original.commits) {
    tagged_original += c.fixes_tag.empty() ? 0 : 1;
  }
  for (const Commit& c : parsed.commits) {
    tagged_parsed += c.fixes_tag.empty() ? 0 : 1;
    if (!c.fixes_tag.empty()) {
      EXPECT_TRUE(parsed.commit_release.contains(c.fixes_tag)) << c.fixes_tag;
    }
  }
  EXPECT_EQ(tagged_original, tagged_parsed);
}

TEST(GitLogTest, ParseGarbageIsSafe) {
  const History parsed = ParseGitLog("this is not a log\nat all\n\ncommit zzz\nnonsense");
  EXPECT_EQ(parsed.commits.size(), 1u);  // the malformed block parses to an empty commit
}

}  // namespace
}  // namespace refscan
