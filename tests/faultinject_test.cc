// Fault-isolation tests (DESIGN.md §5.9): the deterministic fault-injection
// registry, the engine's per-file sandboxes and quarantine reports, the
// resource governors, and the circuit breaker.
//
// The contract under test: a scan of N files with k injected failures still
// completes, quarantines exactly the k failed files, and emits reports for
// the other N−k that are byte-identical to scanning the healthy subset
// alone — at every thread count, cached and uncached.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "src/checkers/engine.h"
#include "src/support/faultinject.h"
#include "src/support/governor.h"

namespace refscan {
namespace {

namespace stdfs = std::filesystem;

// One known-leaky function per file (of_get_parent with no matching put):
// every healthy file contributes exactly one deterministic report.
std::string LeakyFile(const std::string& fn) {
  return "static int " + fn +
         "_probe(struct device_node *np)\n"
         "{\n"
         "  struct device_node *child = of_get_parent(np);\n"
         "  return 0;\n"
         "}\n";
}

SourceTree ThreeFileTree() {
  SourceTree tree;
  tree.Add("drivers/a/alpha.c", LeakyFile("alpha"));
  tree.Add("drivers/b/broken.c", LeakyFile("broken"));
  tree.Add("drivers/c/gamma.c", LeakyFile("gamma"));
  return tree;
}

SourceTree HealthySubset() {
  SourceTree tree;
  tree.Add("drivers/a/alpha.c", LeakyFile("alpha"));
  tree.Add("drivers/c/gamma.c", LeakyFile("gamma"));
  return tree;
}

ScanResult ScanTree(const SourceTree& tree, ScanOptions options) {
  CheckerEngine engine(KnowledgeBase::BuiltIn(), std::move(options));
  return engine.Scan(tree);
}

// ---- spec parsing ----

TEST(FaultSpecTest, ParsesTriggersActionsAndSeed) {
  FaultPlan plan;
  ASSERT_TRUE(ParseFaultSpec(
      "seed=42, fs.read:every=7, parser.parse:file=*.broken.c, cache.load:once:truncate, "
      "checker.run:always:delay=5",
      plan));
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.rules.size(), 4u);
  EXPECT_EQ(plan.rules[0].site, "fs.read");
  EXPECT_EQ(plan.rules[0].trigger, FaultRule::Trigger::kEvery);
  EXPECT_EQ(plan.rules[0].every_n, 7u);
  EXPECT_EQ(plan.rules[1].trigger, FaultRule::Trigger::kFile);
  EXPECT_EQ(plan.rules[1].glob, "*.broken.c");
  EXPECT_EQ(plan.rules[2].action, FaultRule::Action::kTruncate);
  EXPECT_EQ(plan.rules[3].action, FaultRule::Action::kDelay);
  EXPECT_EQ(plan.rules[3].delay_ms, 5u);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(ParseFaultSpec("nonsense", plan, &error));
  EXPECT_FALSE(ParseFaultSpec("no.such.site:always", plan, &error));
  EXPECT_NE(error.find("unknown fault site"), std::string::npos);
  EXPECT_FALSE(ParseFaultSpec("fs.read:every=0", plan, &error));
  EXPECT_FALSE(ParseFaultSpec("fs.read:file=", plan, &error));
  EXPECT_FALSE(ParseFaultSpec("fs.read:always:delay=999999", plan, &error));
  EXPECT_FALSE(ParseFaultSpec("fs.read:whenever", plan, &error));
  // A failed parse must leave `plan` untouched.
  ASSERT_TRUE(ParseFaultSpec("fs.read:always", plan));
  EXPECT_FALSE(ParseFaultSpec("garbage", plan, &error));
  EXPECT_EQ(plan.rules.size(), 1u);
}

TEST(FaultSpecTest, GlobMatchCoversStarsAndQuestionMarks) {
  EXPECT_TRUE(GlobMatch("*.c", "drivers/a/alpha.c"));
  EXPECT_TRUE(GlobMatch("*broken*", "drivers/b/broken.c"));
  EXPECT_TRUE(GlobMatch("drivers/?/*.c", "drivers/b/broken.c"));
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_FALSE(GlobMatch("*.h", "drivers/a/alpha.c"));
  EXPECT_FALSE(GlobMatch("alpha.c", "drivers/a/alpha.c"));  // whole-string match
  EXPECT_TRUE(GlobMatch("a*b*c", "a_x_b_y_c"));
  EXPECT_FALSE(GlobMatch("a*b*c", "a_x_b_y"));
}

// ---- the registry itself ----

TEST(FaultRegistryTest, DisarmedIsNoop) {
  DisarmFaults();
  EXPECT_FALSE(FaultsArmed());
  EXPECT_NO_THROW(MaybeFault("fs.read", "anything"));
}

TEST(FaultRegistryTest, ScopedArmFiresAndRestores) {
  {
    ScopedFaultArm arm(std::string_view("parser.parse:always"));
    EXPECT_TRUE(FaultsArmed());
    EXPECT_THROW(MaybeFault("parser.parse", "x.c"), FaultInjected);
    EXPECT_NO_THROW(MaybeFault("fs.read", "x.c"));  // other sites unaffected
  }
  EXPECT_FALSE(FaultsArmed());
  EXPECT_NO_THROW(MaybeFault("parser.parse", "x.c"));
}

TEST(FaultRegistryTest, OnceFiresOncePerSubject) {
  ScopedFaultArm arm(std::string_view("fs.read:once:io"));
  EXPECT_THROW(MaybeFault("fs.read", "a.c"), FaultInjected);
  EXPECT_NO_THROW(MaybeFault("fs.read", "a.c"));  // second hit: counter spent
  EXPECT_THROW(MaybeFault("fs.read", "b.c"), FaultInjected);  // fresh subject
}

TEST(FaultRegistryTest, TransientIoIsMarked) {
  ScopedFaultArm arm(std::string_view("fs.read:always:io"));
  try {
    MaybeFault("fs.read", "a.c");
    FAIL() << "expected FaultInjected";
  } catch (const FaultInjected& e) {
    EXPECT_TRUE(e.transient_io());
    EXPECT_EQ(e.site(), "fs.read");
  }
}

TEST(FaultRegistryTest, EverySelectsByHashNotCallOrder) {
  // The every=N selector must depend only on (seed, site, subject) — calling
  // in a different order, or repeatedly, picks the same subjects.
  const auto selected = [](const std::vector<std::string>& subjects) {
    std::vector<std::string> hit;
    for (const std::string& s : subjects) {
      try {
        MaybeFault("fs.read", s);
      } catch (const FaultInjected&) {
        hit.push_back(s);
      }
    }
    return hit;
  };
  std::vector<std::string> subjects;
  for (int i = 0; i < 64; ++i) {
    subjects.push_back("dir/file" + std::to_string(i) + ".c");
  }
  ScopedFaultArm arm(std::string_view("seed=1,fs.read:every=3"));
  const std::vector<std::string> forward = selected(subjects);
  std::vector<std::string> reversed_input(subjects.rbegin(), subjects.rend());
  std::vector<std::string> backward = selected(reversed_input);
  std::sort(backward.begin(), backward.end());
  std::vector<std::string> forward_sorted = forward;
  std::sort(forward_sorted.begin(), forward_sorted.end());
  EXPECT_EQ(forward_sorted, backward);
  EXPECT_FALSE(forward.empty());                  // ~1/3 of 64 subjects
  EXPECT_LT(forward.size(), subjects.size());     // but never all of them
}

// ---- per-file sandboxes & quarantine ----

TEST(FaultIsolationTest, ParseFaultQuarantinesExactlyThatFile) {
  ScanOptions options;
  options.fault_spec = "parser.parse:file=*broken.c";
  const ScanResult degraded = ScanTree(ThreeFileTree(), options);
  const ScanResult healthy = ScanTree(HealthySubset(), ScanOptions{});

  EXPECT_FALSE(degraded.aborted);
  ASSERT_EQ(degraded.failures.size(), 1u);
  EXPECT_EQ(degraded.failures[0].path, "drivers/b/broken.c");
  EXPECT_EQ(degraded.failures[0].stage, FailureStage::kParse);
  EXPECT_EQ(degraded.failures[0].kind, FailureKind::kParse);
  EXPECT_EQ(degraded.stats.files_quarantined, 1u);

  // The surviving reports are byte-identical to scanning the healthy subset
  // alone: the quarantined file contributed nothing, not even KB facts.
  EXPECT_EQ(ReportsToJson(degraded.reports), ReportsToJson(healthy.reports));
  EXPECT_EQ(degraded.reports.size(), 2u);
}

TEST(FaultIsolationTest, QuarantineDeterministicAcrossJobs) {
  SourceTree tree;
  for (int i = 0; i < 12; ++i) {
    const std::string name = "drivers/x/file" + std::to_string(i) + ".c";
    tree.Add(name, LeakyFile("f" + std::to_string(i)));
  }
  ScanOptions serial;
  serial.jobs = 1;
  serial.fault_spec = "seed=9,parser.parse:every=3";
  ScanOptions wide = serial;
  wide.jobs = 4;
  const ScanResult a = ScanTree(tree, serial);
  const ScanResult b = ScanTree(tree, wide);

  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].path, b.failures[i].path);
    EXPECT_EQ(a.failures[i].stage, b.failures[i].stage);
  }
  EXPECT_EQ(ReportsToJson(a.reports), ReportsToJson(b.reports));
  EXPECT_FALSE(a.failures.empty());
  EXPECT_FALSE(a.reports.empty());
}

TEST(FaultIsolationTest, TransientIoIsRetriedAndSucceeds) {
  // `once:io`: the first parse attempt per file throws a transient failure,
  // the sandbox retries, the retry succeeds — nothing is quarantined and
  // the output matches a clean scan.
  ScanOptions options;
  options.fault_spec = "parser.parse:once:io";
  const ScanResult retried = ScanTree(ThreeFileTree(), options);
  const ScanResult clean = ScanTree(ThreeFileTree(), ScanOptions{});

  EXPECT_TRUE(retried.failures.empty());
  EXPECT_EQ(retried.stats.files_quarantined, 0u);
  EXPECT_EQ(retried.stats.files_retried, 3u);
  EXPECT_EQ(ReportsToJson(retried.reports), ReportsToJson(clean.reports));
}

TEST(FaultIsolationTest, CheckStageFaultQuarantinesAfterDiscovery) {
  // A stage-3 failure quarantines the file but its stage-1 facts already fed
  // the KB, so the healthy files' reports match the *full* clean scan with
  // the broken file's own reports removed.
  ScanOptions options;
  options.fault_spec = "checker.run:file=*broken.c";
  const ScanResult degraded = ScanTree(ThreeFileTree(), options);
  ScanResult clean = ScanTree(ThreeFileTree(), ScanOptions{});

  ASSERT_EQ(degraded.failures.size(), 1u);
  EXPECT_EQ(degraded.failures[0].path, "drivers/b/broken.c");
  EXPECT_EQ(degraded.failures[0].stage, FailureStage::kCheck);

  std::erase_if(clean.reports,
                [](const BugReport& r) { return r.file == "drivers/b/broken.c"; });
  EXPECT_EQ(ReportsToJson(degraded.reports), ReportsToJson(clean.reports));
}

TEST(FaultIsolationTest, BadFaultSpecAbortsLoudly) {
  ScanOptions options;
  options.fault_spec = "parser.parse:whenever";
  const ScanResult result = ScanTree(ThreeFileTree(), options);
  EXPECT_TRUE(result.aborted);
  EXPECT_NE(result.abort_reason.find("invalid fault spec"), std::string::npos);
  EXPECT_TRUE(result.reports.empty());
}

TEST(FaultIsolationTest, CircuitBreakerAbortsMostlyBrokenTree) {
  ScanOptions options;
  options.fault_spec = "parser.parse:always";
  options.max_failure_ratio = 0.5;
  const ScanResult result = ScanTree(ThreeFileTree(), options);
  EXPECT_TRUE(result.aborted);
  EXPECT_NE(result.abort_reason.find("max_failure_ratio"), std::string::npos);
  EXPECT_EQ(result.failures.size(), 3u);

  // Off by default: the same scan without the breaker completes (degraded).
  ScanOptions no_breaker;
  no_breaker.fault_spec = "parser.parse:always";
  const ScanResult completed = ScanTree(ThreeFileTree(), no_breaker);
  EXPECT_FALSE(completed.aborted);
  EXPECT_EQ(completed.failures.size(), 3u);
  EXPECT_TRUE(completed.reports.empty());
}

TEST(FaultIsolationTest, ScanResultJsonCarriesDegradedEntries) {
  ScanOptions options;
  options.fault_spec = "parser.parse:file=*broken.c";
  const ScanResult result = ScanTree(ThreeFileTree(), options);
  const std::string json = ScanResultToJson(result, /*include_stats=*/true);
  EXPECT_NE(json.find("\"degraded\": ["), std::string::npos);
  EXPECT_NE(json.find("\"path\": \"drivers/b/broken.c\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"stats\": {"), std::string::npos);
  EXPECT_NE(json.find("\"quarantined\": 1"), std::string::npos);
  EXPECT_EQ(json.find("\"aborted\""), std::string::npos);

  const std::string no_stats = ScanResultToJson(result);
  EXPECT_EQ(no_stats.find("\"stats\""), std::string::npos);
}

// ---- cache hardening ----

class FaultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cache_dir_ = (stdfs::temp_directory_path() /
                  (std::string("refscan_fault_cache_") +
                   ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                     .string();
    stdfs::remove_all(cache_dir_);
  }
  void TearDown() override { stdfs::remove_all(cache_dir_); }

  std::string cache_dir_;
};

TEST_F(FaultCacheTest, ArmedRescanQuarantinesColdAndWarm) {
  // A faulted file never stores cache artifacts, so a warm armed rescan
  // re-parses (and re-faults) it deterministically while the healthy files
  // replay from the cache.
  ScanOptions options;
  options.cache_dir = cache_dir_;
  options.fault_spec = "parser.parse:file=*broken.c";
  const ScanResult cold = ScanTree(ThreeFileTree(), options);
  const ScanResult warm = ScanTree(ThreeFileTree(), options);

  ASSERT_EQ(cold.failures.size(), 1u);
  ASSERT_EQ(warm.failures.size(), 1u);
  EXPECT_EQ(warm.failures[0].path, "drivers/b/broken.c");
  EXPECT_EQ(ReportsToJson(cold.reports), ReportsToJson(warm.reports));
  EXPECT_GT(warm.stats.cache_hits, 0u);

  const ScanResult healthy = ScanTree(HealthySubset(), ScanOptions{});
  EXPECT_EQ(ReportsToJson(warm.reports), ReportsToJson(healthy.reports));
}

TEST_F(FaultCacheTest, CorruptCacheLoadsDegradeToMisses) {
  ScanOptions clean_options;
  clean_options.cache_dir = cache_dir_;
  const ScanResult cold = ScanTree(ThreeFileTree(), clean_options);

  ScanOptions faulty = clean_options;
  faulty.fault_spec = "cache.load:always:truncate";
  const ScanResult warm = ScanTree(ThreeFileTree(), faulty);

  // Every load "corrupted": the scan silently falls back to a cold scan —
  // same reports, no quarantine, and the corruption is visible in stats.
  EXPECT_TRUE(warm.failures.empty());
  EXPECT_EQ(ReportsToJson(cold.reports), ReportsToJson(warm.reports));
  EXPECT_EQ(warm.stats.cache_hits, 0u);
  EXPECT_GT(warm.stats.cache_corrupt, 0u);
}

TEST_F(FaultCacheTest, FailedStoresLeaveNextScanCold) {
  ScanOptions faulty;
  faulty.cache_dir = cache_dir_;
  faulty.fault_spec = "cache.store:always";
  const ScanResult first = ScanTree(ThreeFileTree(), faulty);
  EXPECT_TRUE(first.failures.empty());  // store failures never quarantine

  ScanOptions clean_options;
  clean_options.cache_dir = cache_dir_;
  const ScanResult second = ScanTree(ThreeFileTree(), clean_options);
  EXPECT_EQ(second.stats.cache_hits, 0u);  // nothing was ever stored
  EXPECT_EQ(ReportsToJson(first.reports), ReportsToJson(second.reports));
}

// ---- stage 2.5 degradation ----

TEST(FaultIsolationTest, SummaryStageFaultDegradesToIntraprocedural) {
  ScanOptions ipa_options;
  ipa_options.interprocedural = true;
  ipa_options.fault_spec = "ipa.summarize:always";
  const ScanResult degraded = ScanTree(ThreeFileTree(), ipa_options);

  ASSERT_EQ(degraded.failures.size(), 1u);
  EXPECT_EQ(degraded.failures[0].path, "<tree>");
  EXPECT_EQ(degraded.failures[0].stage, FailureStage::kSummarize);
  EXPECT_EQ(degraded.stats.summarized_functions, 0u);

  const ScanResult intra = ScanTree(ThreeFileTree(), ScanOptions{});
  EXPECT_EQ(ReportsToJson(degraded.reports), ReportsToJson(intra.reports));
}

// ---- resource governors ----

TEST(ResourceGovernorTest, DeepNestingTripsDepthCapNotTheStack) {
  std::string body = "static void deep(struct device_node *np)\n{\n";
  for (int i = 0; i < 64; ++i) {
    body += "  if (np) {\n";
  }
  body += "    of_node_get(np);\n";
  for (int i = 0; i < 64; ++i) {
    body += "  }\n";
  }
  body += "}\n";
  SourceTree tree;
  tree.Add("drivers/d/deep.c", body);

  // 64 levels sit inside the parser's nesting cap of 200: nothing is
  // quarantined.
  const ScanResult result = ScanTree(tree, ScanOptions{});
  EXPECT_TRUE(result.failures.empty());
}

TEST(ResourceGovernorTest, InjectedDelayTripsFileDeadline) {
  // The delay fires at the parser.parse site, burning the whole budget
  // before parsing starts; the cooperative poll in the statement loop then
  // trips. The file needs enough statements for the amortised (1-in-8)
  // clock check to run.
  std::string body = "static void slow(struct device_node *np)\n{\n";
  for (int i = 0; i < 64; ++i) {
    body += "  of_node_get(np);\n";
  }
  body += "}\n";
  SourceTree tree;
  tree.Add("drivers/s/slow.c", body);
  tree.Add("drivers/a/alpha.c", LeakyFile("alpha"));

  ScanOptions options;
  options.fault_spec = "parser.parse:file=*slow.c:delay=200";
  options.file_timeout_ms = 50;
  const ScanResult result = ScanTree(tree, options);

  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].path, "drivers/s/slow.c");
  EXPECT_EQ(result.failures[0].kind, FailureKind::kResourceLimit);
  EXPECT_NE(result.failures[0].what.find("deadline"), std::string::npos);

  // The healthy file still reports.
  ASSERT_EQ(result.reports.size(), 1u);
  EXPECT_EQ(result.reports[0].file, "drivers/a/alpha.c");
}

TEST(ResourceGovernorTest, DeadlineIsPerFileNotPerScan) {
  // A generous budget with no injected delay: nothing trips even across
  // many files whose total wall time could exceed a single budget.
  SourceTree tree;
  for (int i = 0; i < 8; ++i) {
    tree.Add("drivers/x/f" + std::to_string(i) + ".c", LeakyFile("f" + std::to_string(i)));
  }
  ScanOptions options;
  options.file_timeout_ms = 10'000;
  const ScanResult result = ScanTree(tree, options);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(result.reports.size(), 8u);
}

}  // namespace
}  // namespace refscan
