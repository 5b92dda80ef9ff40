// Cross-process determinism tests for the sharded scan (src/checkers/
// sharded): `ShardedScan` must produce byte-identical reports, stats and
// failures to `CheckerEngine::Scan` at any --jobs × --workers combination,
// cold and warm, and a killed worker must degrade into exactly "the
// surviving subset's scan plus a quarantined dead shard".
//
// The worker subprocesses exec the real CLI binary (REFSCAN_CLI_PATH, a
// compile definition pointing at the built `refscan`), so these tests cover
// the whole wire protocol, not a mock.

#include "src/checkers/sharded.h"

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/checkers/engine.h"
#include "src/checkers/report.h"
#include "src/corpus/generator.h"
#include "src/support/telemetry.h"

namespace refscan {
namespace {

namespace stdfs = std::filesystem;

// A corpus slice: enough files for 4 shards to be non-trivial, small
// enough that the suite's handful of full scans stays fast.
SourceTree TestTree(size_t max_files = 48) {
  static const Corpus* corpus = new Corpus(GenerateKernelCorpus());
  SourceTree tree;
  size_t n = 0;
  for (const auto& [path, file] : corpus->tree.files()) {
    if (n++ == max_files) {
      break;
    }
    tree.Add(path, std::string(file.text()));
  }
  return tree;
}

ShardedScanConfig Config(size_t workers) {
  ShardedScanConfig config;
  config.workers = workers;
  config.worker_cmd = REFSCAN_CLI_PATH;
  return config;
}

std::string TempDir(const char* tag) {
  const std::string dir =
      "/tmp/refscan-sharded-test-" + std::to_string(::getpid()) + "-" + tag;
  stdfs::remove_all(dir);
  return dir;
}

// Full-result equality, field by field, with ReportsToJson as the
// byte-level report comparison (it renders every report field).
void ExpectSameResult(const ScanResult& want, const ScanResult& got) {
  EXPECT_EQ(ReportsToJson(want.reports), ReportsToJson(got.reports));
  EXPECT_EQ(want.aborted, got.aborted);
  EXPECT_EQ(want.abort_reason, got.abort_reason);
  for (const ScanStatsField& f : ScanStatsFields()) {
    EXPECT_EQ(want.stats.*f.member, got.stats.*f.member) << f.json_key;
  }
  ASSERT_EQ(want.failures.size(), got.failures.size());
  for (size_t i = 0; i < want.failures.size(); ++i) {
    EXPECT_EQ(want.failures[i].path, got.failures[i].path);
    EXPECT_EQ(want.failures[i].stage, got.failures[i].stage) << want.failures[i].path;
    EXPECT_EQ(want.failures[i].kind, got.failures[i].kind) << want.failures[i].path;
    EXPECT_EQ(want.failures[i].what, got.failures[i].what) << want.failures[i].path;
  }
}

std::vector<const SourceFile*> FilePointers(const SourceTree& tree) {
  std::vector<const SourceFile*> files;
  for (const auto& [path, file] : tree.files()) {
    files.push_back(&file);
  }
  return files;
}

TEST(ShardFilesTest, CoversEveryFileExactlyOnceAndIsDeterministic) {
  const SourceTree tree = TestTree();
  const std::vector<const SourceFile*> files = FilePointers(tree);
  const auto shards = ShardFiles(files, 4);
  ASSERT_EQ(shards.size(), 4u);
  std::vector<int> seen(files.size(), 0);
  for (const auto& shard : shards) {
    EXPECT_FALSE(shard.empty());
    EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
    for (const size_t idx : shard) {
      ASSERT_LT(idx, files.size());
      ++seen[idx];
    }
  }
  for (const int count : seen) {
    EXPECT_EQ(count, 1);
  }
  EXPECT_EQ(shards, ShardFiles(files, 4));  // pure function of its inputs
}

TEST(ShardFilesTest, BalancesContentBytesNotFileCounts) {
  SourceTree tree;
  // One huge file and many tiny ones: byte-balanced sharding must put the
  // huge file alone and spread the tiny ones over the other shards.
  tree.Add("huge.c", std::string(100000, '\n'));
  for (int i = 0; i < 9; ++i) {
    tree.Add("tiny" + std::to_string(i) + ".c", "int x;\n");
  }
  const std::vector<const SourceFile*> files = FilePointers(tree);
  const auto shards = ShardFiles(files, 2);
  ASSERT_EQ(shards.size(), 2u);
  size_t huge_idx = 0;
  for (size_t i = 0; i < files.size(); ++i) {
    if (files[i]->path() == "huge.c") {
      huge_idx = i;
    }
  }
  for (const auto& shard : shards) {
    if (std::find(shard.begin(), shard.end(), huge_idx) != shard.end()) {
      EXPECT_EQ(shard.size(), 1u) << "the huge file should get a shard to itself";
    } else {
      EXPECT_EQ(shard.size(), 9u);
    }
  }
}

TEST(ShardedScanTest, ByteIdenticalToInProcessCold) {
  const SourceTree tree = TestTree();
  ScanOptions options;
  options.jobs = 2;
  CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
  const ScanResult want = engine.Scan(tree);
  EXPECT_FALSE(want.reports.empty());

  for (const size_t workers : {1u, 4u}) {
    const ScanResult got = ShardedScan(tree, options, Config(workers));
    ExpectSameResult(want, got);
  }
}

TEST(ShardedScanTest, ByteIdenticalWarmAndColdWithSharedLocalCache) {
  const SourceTree tree = TestTree();
  const std::string cache_dir = TempDir("localcache");
  ScanOptions options;
  options.jobs = 2;
  options.cache_dir = cache_dir;

  // In-process cold populates the cache; the sharded warm rescans must
  // replay it identically — including the cache accounting in the stats.
  CheckerEngine cold_engine(KnowledgeBase::BuiltIn(), options);
  const ScanResult cold = cold_engine.Scan(tree);
  CheckerEngine warm_engine(KnowledgeBase::BuiltIn(), options);
  const ScanResult warm = warm_engine.Scan(tree);
  EXPECT_EQ(warm.stats.cache_hits, warm.stats.files);
  EXPECT_EQ(ReportsToJson(cold.reports), ReportsToJson(warm.reports));

  const ScanResult sharded_warm = ShardedScan(tree, options, Config(4));
  ExpectSameResult(warm, sharded_warm);

  // And a sharded scan against a cold cache must both match the cold scan
  // and leave a cache a later in-process scan can fully hit.
  const std::string cache_dir2 = TempDir("localcache2");
  options.cache_dir = cache_dir2;
  const ScanResult sharded_cold = ShardedScan(tree, options, Config(4));
  ExpectSameResult(cold, sharded_cold);
  CheckerEngine warm_engine2(KnowledgeBase::BuiltIn(), options);
  const ScanResult warm2 = warm_engine2.Scan(tree);
  ExpectSameResult(warm, warm2);

  stdfs::remove_all(cache_dir);
  stdfs::remove_all(cache_dir2);
}

size_t KbObjects(const std::string& dir) {
  size_t count = 0;
  for (const auto& entry : stdfs::recursive_directory_iterator(dir)) {
    count += entry.is_regular_file() && entry.path().extension() == ".kb" ? 1 : 0;
  }
  return count;
}

TEST(ShardedScanTest, KbSnapshotStoreRuleMatchesInProcess) {
  const SourceTree tree = TestTree();
  // One function body gains a call, so that file's discovery facts change.
  SourceTree edited;
  bool done = false;
  for (const auto& [path, file] : tree.files()) {
    std::string text(file.text());
    const size_t body = text.find("\n{\n");
    if (!done && body != std::string::npos) {
      text.insert(body + 3, "\tbarrier();\n");
      done = true;
    }
    edited.Add(path, std::move(text));
  }
  ASSERT_TRUE(done);

  const std::string local_dir = TempDir("kbrule-local");
  const std::string sharded_dir = TempDir("kbrule-sharded");
  ScanOptions local;
  local.jobs = 2;
  local.cache_dir = local_dir;
  ScanOptions sharded = local;
  sharded.cache_dir = sharded_dir;
  // Cold, one body edited, unchanged, unchanged again: the coordinator
  // stores and hits KB snapshots exactly where the engine does (the stage-1
  // `parsed` bits it reads travel in kFacts).
  const std::vector<const SourceTree*> steps = {&tree, &edited, &edited, &edited};
  const std::vector<size_t> kb_objects = {1, 1, 2, 2};
  for (size_t i = 0; i < steps.size(); ++i) {
    CheckerEngine engine(KnowledgeBase::BuiltIn(), local);
    const ScanResult want = engine.Scan(*steps[i]);
    const ScanResult got = ShardedScan(*steps[i], sharded, Config(2));
    ExpectSameResult(want, got);
    EXPECT_EQ(KbObjects(local_dir), kb_objects[i]) << "step " << i;
    EXPECT_EQ(KbObjects(sharded_dir), kb_objects[i]) << "step " << i;
    EXPECT_EQ(got.stats.kb_snapshot_hits, i == 3 ? 1u : 0u) << "step " << i;
  }
  stdfs::remove_all(local_dir);
  stdfs::remove_all(sharded_dir);
}

TEST(ShardedScanTest, WorkerFleetSharesOneCacheDir) {
  const SourceTree tree = TestTree();
  const std::string cache_dir = TempDir("fleetcache");
  ScanOptions options;
  options.jobs = 2;
  options.cache_dir = cache_dir;

  ScanOptions plain;
  plain.jobs = 2;
  CheckerEngine engine(KnowledgeBase::BuiltIn(), plain);
  const ScanResult want = engine.Scan(tree);

  // A cold fleet fills the shared directory: every file misses.
  const ScanResult cold = ShardedScan(tree, options, Config(4));
  EXPECT_EQ(ReportsToJson(want.reports), ReportsToJson(cold.reports));
  EXPECT_EQ(cold.stats.cache_misses, cold.stats.files);

  // The warm fleet: every worker hits the directory the cold fleet filled,
  // and no file is parsed.
  const ScanResult fleet_warm = ShardedScan(tree, options, Config(4));
  EXPECT_EQ(ReportsToJson(want.reports), ReportsToJson(fleet_warm.reports));
  EXPECT_EQ(fleet_warm.stats.cache_hits, fleet_warm.stats.files);
  EXPECT_EQ(fleet_warm.stats.cache_parse_skips, fleet_warm.stats.files);

  stdfs::remove_all(cache_dir);
}

TEST(ShardedScanTest, KilledWorkerDegradesToSurvivingSubsetScan) {
  const SourceTree tree = TestTree();
  const std::vector<const SourceFile*> files = FilePointers(tree);
  const auto shards = ShardFiles(files, 4);
  ASSERT_EQ(shards.size(), 4u);

  ScanOptions options;
  options.jobs = 2;
  // Deterministically crash worker 1 at the facts barrier: the injected
  // fault throws out of RunShardWorker, killing the process like any other
  // unhandled worker crash would.
  options.fault_spec = "worker.facts:file=1";
  const ScanResult degraded = ShardedScan(tree, options, Config(4));
  EXPECT_FALSE(degraded.aborted);

  // The dead shard's files are quarantined (stage check, kind internal)...
  ASSERT_EQ(degraded.failures.size(), shards[1].size());
  for (const FileFailure& f : degraded.failures) {
    EXPECT_EQ(f.stage, FailureStage::kCheck) << f.path;
    EXPECT_EQ(f.kind, FailureKind::kInternal) << f.path;
    EXPECT_NE(f.what.find("shard worker 1"), std::string::npos) << f.what;
  }

  // ...and the reports are byte-identical to scanning the survivors alone.
  SourceTree survivors;
  std::vector<bool> dead(files.size(), false);
  for (const size_t idx : shards[1]) {
    dead[idx] = true;
  }
  for (size_t i = 0; i < files.size(); ++i) {
    if (!dead[i]) {
      survivors.Add(files[i]->path(), std::string(files[i]->text()));
    }
  }
  ScanOptions plain;
  plain.jobs = 2;
  CheckerEngine engine(KnowledgeBase::BuiltIn(), plain);
  const ScanResult want = engine.Scan(survivors);
  EXPECT_EQ(ReportsToJson(want.reports), ReportsToJson(degraded.reports));
  EXPECT_EQ(degraded.stats.files, files.size());
  EXPECT_EQ(degraded.stats.files_quarantined, shards[1].size());
}

TEST(ShardedScanTest, TraceAndMetricsIdenticalAcrossWorkerCounts) {
  const SourceTree tree = TestTree();
  ScanOptions options;
  options.jobs = 2;

  // Coordinator-side spans and the scan.* counters must not depend on the
  // worker count (timings excepted — only names/args/values compare).
  const auto run = [&](size_t workers, std::vector<std::string>& span_names,
                       std::vector<uint64_t>& counters) {
    Telemetry session;
    {
      ScopedTelemetry arm(session);
      ShardedScan(tree, options, Config(workers));
    }
    for (const TraceEvent& e : session.SortedEvents()) {
      span_names.push_back(std::string(e.name) + "|" + e.arg);
    }
    for (const ScanStatsField& f : ScanStatsFields()) {
      counters.push_back(session.metrics().CounterValue(f.metric));
    }
    counters.push_back(session.metrics().CounterValue("scan.raw_reports"));
    counters.push_back(session.metrics().CounterValue("scan.reports"));
  };
  std::vector<std::string> spans1, spans4;
  std::vector<uint64_t> counters1, counters4;
  run(1, spans1, counters1);
  run(4, spans4, counters4);
  EXPECT_EQ(spans1, spans4);
  EXPECT_EQ(counters1, counters4);
  EXPECT_FALSE(spans1.empty());
}

TEST(ShardedScanTest, BreakerAbortMatchesInProcess) {
  // An injected parser fault: every file fails in the parse stage, so the
  // breaker must trip with the engine's exact abort string.
  SourceTree tree;
  for (int i = 0; i < 4; ++i) {
    tree.Add("big" + std::to_string(i) + ".c", std::string(4096, '\n'));
  }
  ScanOptions options;
  options.jobs = 2;
  options.fault_spec = "parser.parse:always";
  options.max_failure_ratio = 0.5;
  CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
  const ScanResult want = engine.Scan(tree);
  ASSERT_TRUE(want.aborted);
  const ScanResult got = ShardedScan(tree, options, Config(2));
  ExpectSameResult(want, got);
}

TEST(ShardedScanTest, InterproceduralFallsBackInProcess) {
  // Stage 2.5 walks every unit at once, so it cannot shard: the scan must
  // run in-process and equal it, summaries included, instead of silently
  // dropping the summaries.
  CorpusOptions corpus_options;
  corpus_options.wrapper_chain_depths = {2};
  const Corpus corpus = GenerateKernelCorpus(corpus_options);
  ScanOptions options;
  options.jobs = 2;
  options.interprocedural = true;
  CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
  const ScanResult want = engine.Scan(corpus.tree);
  EXPECT_GT(want.stats.summarized_functions, 0u);
  ExpectSameResult(want, ShardedScan(corpus.tree, options, Config(2)));
}

TEST(ShardedScanTest, MoreWorkersThanFilesClampsAndStaysIdentical) {
  SourceTree tree;
  tree.Add("a.c", "void f(void) { }\n");
  tree.Add("b.c", "void g(void) { }\n");
  ScanOptions options;
  options.jobs = 1;
  CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
  const ScanResult want = engine.Scan(tree);
  const ScanResult got = ShardedScan(tree, options, Config(16));
  ExpectSameResult(want, got);
}

}  // namespace
}  // namespace refscan
