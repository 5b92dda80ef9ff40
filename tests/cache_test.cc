// Incremental scan cache tests (src/cache, DESIGN.md §5.8).
//
// The contract under test: enabling `ScanOptions::cache_dir` can change how
// much work a scan does, but never what it outputs. Warm rescans must be
// byte-identical to cold scans at every thread count; corrupted, truncated
// or stale cache entries must degrade to a cold scan, never to a crash or a
// wrong report.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/ast/parser.h"
#include "src/cache/cache.h"
#include "src/cache/serial.h"
#include "src/cache/store.h"
#include "src/checkers/engine.h"
#include "src/corpus/generator.h"
#include "src/cpg/dump.h"
#include "src/kb/kb.h"

namespace refscan {
namespace {

namespace stdfs = std::filesystem;

// Fresh cache directory per test, removed on teardown.
class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cache_dir_ = (stdfs::temp_directory_path() /
                  (std::string("refscan_cache_test_") +
                   ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                     .string();
    stdfs::remove_all(cache_dir_);
  }
  void TearDown() override { stdfs::remove_all(cache_dir_); }

  std::string cache_dir_;
};

// A small tree with cross-file discovery (a wrapper in one file classifies
// from an API used in another) and real reports.
SourceTree SmallTree() {
  SourceTree tree;
  tree.Add("drivers/a/leak.c",
           "static int probe(struct device_node *np)\n"
           "{\n"
           "  struct device_node *child = of_get_parent(np);\n"
           "  return 0;\n"
           "}\n");
  tree.Add("drivers/b/wrapper.c",
           "static void my_grab(struct device_node *np)\n"
           "{\n"
           "  of_node_get(np);\n"
           "}\n");
  tree.Add("drivers/c/user.c",
           "static int attach(struct device_node *np)\n"
           "{\n"
           "  my_grab(np);\n"
           "  if (np == NULL)\n"
           "    return -EINVAL;\n"
           "  return 0;\n"
           "}\n");
  tree.Add("include/foo.h",
           "struct foo { int refcount; struct list_head list; };\n");
  return tree;
}

ScanResult ScanTree(const SourceTree& tree, const std::string& cache_dir, size_t jobs = 1,
                    bool interprocedural = false) {
  ScanOptions options;
  options.jobs = jobs;
  options.cache_dir = cache_dir;
  options.interprocedural = interprocedural;
  CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
  return engine.Scan(tree);
}

void ExpectSameReports(const ScanResult& a, const ScanResult& b) {
  EXPECT_EQ(a.stats.files, b.stats.files);
  EXPECT_EQ(a.stats.functions, b.stats.functions);
  EXPECT_EQ(a.stats.discovered_apis, b.stats.discovered_apis);
  EXPECT_EQ(a.stats.refcounted_structs, b.stats.refcounted_structs);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  EXPECT_EQ(ReportsToJson(a.reports), ReportsToJson(b.reports));
}

TEST_F(CacheTest, WarmRescanIsByteIdenticalAndSkipsAllWork) {
  const SourceTree tree = SmallTree();
  const ScanResult uncached = ScanTree(tree, /*cache_dir=*/"");
  EXPECT_GT(uncached.reports.size(), 0u);
  EXPECT_EQ(uncached.stats.cache_hits + uncached.stats.cache_misses, 0u);

  const ScanResult cold = ScanTree(tree, cache_dir_);
  ExpectSameReports(uncached, cold);
  EXPECT_EQ(cold.stats.cache_hits, 0u);
  EXPECT_EQ(cold.stats.cache_misses, tree.size());

  for (const size_t jobs : {size_t{1}, size_t{4}}) {
    const ScanResult warm = ScanTree(tree, cache_dir_, jobs);
    ExpectSameReports(uncached, warm);
    // Acceptance criterion: a 0-changed-files rescan skips parse+check for
    // every file.
    EXPECT_EQ(warm.stats.cache_hits, tree.size()) << "jobs=" << jobs;
    EXPECT_EQ(warm.stats.cache_misses, 0u) << "jobs=" << jobs;
    EXPECT_EQ(warm.stats.cache_parse_skips, tree.size()) << "jobs=" << jobs;
  }
}

TEST_F(CacheTest, CommentOnlyChangeInvalidatesOnlyThatFile) {
  SourceTree tree = SmallTree();
  ScanTree(tree, cache_dir_);  // prime

  // A comment changes the file's content hash but not its facts, so the KB
  // fingerprint is stable and every *other* file's reports stay hot.
  SourceTree edited = SmallTree();
  std::string text(tree.Find("drivers/a/leak.c")->text());
  edited.Add("drivers/a/leak.c", text + "// reviewed\n");

  const ScanResult uncached = ScanTree(edited, /*cache_dir=*/"");
  const ScanResult warm = ScanTree(edited, cache_dir_);
  ExpectSameReports(uncached, warm);
  EXPECT_EQ(warm.stats.cache_hits, edited.size() - 1);
  EXPECT_EQ(warm.stats.cache_misses, 1u);
  EXPECT_EQ(warm.stats.cache_parse_skips, edited.size() - 1);
}

TEST_F(CacheTest, DiscoveryChangeInvalidatesEveryReportShard) {
  ScanTree(SmallTree(), cache_dir_);  // prime

  // A new increase-API wrapper changes what discovery finds, so the KB
  // fingerprint moves and every stored report shard must be recomputed —
  // correctness over reuse.
  SourceTree edited = SmallTree();
  std::string text(edited.Find("drivers/b/wrapper.c")->text());
  edited.Add("drivers/b/wrapper.c",
             text +
                 "static void my_grab2(struct device_node *np)\n"
                 "{\n"
                 "  of_node_get(np);\n"
                 "}\n");

  const ScanResult uncached = ScanTree(edited, /*cache_dir=*/"");
  const ScanResult warm = ScanTree(edited, cache_dir_);
  ExpectSameReports(uncached, warm);
  EXPECT_EQ(warm.stats.cache_hits, 0u);
  EXPECT_EQ(warm.stats.cache_misses, edited.size());
}

TEST_F(CacheTest, CorruptedAndTruncatedObjectsActAsCold) {
  const SourceTree tree = SmallTree();
  const ScanResult cold = ScanTree(tree, cache_dir_);

  // Mangle every stored object: truncate the first, garbage the rest.
  size_t mangled = 0;
  for (const auto& entry : stdfs::recursive_directory_iterator(
           stdfs::path(cache_dir_) / "objects")) {
    if (!entry.is_regular_file()) {
      continue;
    }
    if (mangled == 0) {
      stdfs::resize_file(entry.path(), 5);
    } else {
      std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
      out << "not a cache object at all — just noise " << mangled;
    }
    ++mangled;
  }
  ASSERT_GT(mangled, 0u);

  const ScanResult warm = ScanTree(tree, cache_dir_);
  ExpectSameReports(cold, warm);
  EXPECT_EQ(warm.stats.cache_hits, 0u);
  EXPECT_EQ(warm.stats.cache_misses, tree.size());

  // And the re-stored objects serve the next scan again.
  const ScanResult rewarmed = ScanTree(tree, cache_dir_);
  EXPECT_EQ(rewarmed.stats.cache_hits, tree.size());
}

TEST_F(CacheTest, DifferentOptionsMissTheCache) {
  const SourceTree tree = SmallTree();
  ScanTree(tree, cache_dir_);  // prime with all patterns

  ScanOptions narrow;
  narrow.jobs = 1;
  narrow.cache_dir = cache_dir_;
  narrow.enabled_patterns = {2};
  CheckerEngine engine(KnowledgeBase::BuiltIn(), narrow);
  const ScanResult scoped = engine.Scan(tree);
  // Different enabled patterns → different options fingerprint → the primed
  // entries are invisible, not wrongly reused.
  EXPECT_EQ(scoped.stats.cache_hits, 0u);

  ScanOptions narrow_uncached = narrow;
  narrow_uncached.cache_dir.clear();
  CheckerEngine plain(KnowledgeBase::BuiltIn(), narrow_uncached);
  ExpectSameReports(plain.Scan(tree), scoped);
}

TEST_F(CacheTest, JobsDoNotChangeTheFingerprint) {
  ScanOptions a;
  a.jobs = 1;
  ScanOptions b;
  b.jobs = 8;
  EXPECT_EQ(ScanOptionsFingerprint(a), ScanOptionsFingerprint(b));
  // --ipa reuses plain-scan parses: same fingerprint by design.
  b.interprocedural = true;
  EXPECT_EQ(ScanOptionsFingerprint(a), ScanOptionsFingerprint(b));
  b.enabled_patterns = {1, 2};
  EXPECT_NE(ScanOptionsFingerprint(a), ScanOptionsFingerprint(b));
}

TEST_F(CacheTest, DialectAndNewFamilyOptionsChangeTheFingerprint) {
  ScanOptions base;
  ScanOptions with_dialect = base;
  with_dialect.dialects = {"uacpi"};
  EXPECT_NE(ScanOptionsFingerprint(base), ScanOptionsFingerprint(with_dialect));

  ScanOptions both = with_dialect;
  both.dialects = {"glib", "uacpi"};
  EXPECT_NE(ScanOptionsFingerprint(with_dialect), ScanOptionsFingerprint(both));

  ScanOptions extended = base;
  extended.enabled_patterns = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_NE(ScanOptionsFingerprint(base), ScanOptionsFingerprint(extended));
}

TEST_F(CacheTest, DialectScanMissesTheDialectlessCache) {
  const SourceTree tree = SmallTree();
  ScanTree(tree, cache_dir_);  // prime without any dialect

  ScanOptions with_dialect;
  with_dialect.jobs = 1;
  with_dialect.cache_dir = cache_dir_;
  with_dialect.dialects = {"glib"};
  CheckerEngine engine(KnowledgeBase::BuiltIn(), with_dialect);
  const ScanResult dialect_scan = engine.Scan(tree);
  // The dialect seeds the KB before discovery, so reusing dialect-less
  // entries would be wrong; the options fingerprint must keep them apart.
  EXPECT_EQ(dialect_scan.stats.cache_hits, 0u);

  ScanOptions uncached = with_dialect;
  uncached.cache_dir.clear();
  CheckerEngine plain(KnowledgeBase::BuiltIn(), uncached);
  ExpectSameReports(plain.Scan(tree), dialect_scan);
}

TEST_F(CacheTest, KbSnapshotRoundTripsDialectRegistries) {
  // tests_zero flags, refcount-field names and extra free functions all
  // live in the KB snapshot; losing any of them on a warm scan would
  // silently disable P10-P12.
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  ASSERT_TRUE(ApplyDialect(kb, "uacpi"));
  ASSERT_TRUE(ApplyDialect(kb, "glib"));
  const std::optional<KnowledgeBase> back = DeserializeKb(SerializeKb(kb));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(FingerprintKnowledgeBase(*back), FingerprintKnowledgeBase(kb));
  EXPECT_TRUE(back->IsRefcountField(Intern("reference_count")));
  EXPECT_TRUE(back->IsRefcountField(Intern("ref_count")));
  EXPECT_TRUE(back->IsFreeApi(Intern("uacpi_free")));
  EXPECT_TRUE(back->IsFreeApi(Intern("g_free")));
  const RefApiInfo* unref = back->FindApi("uacpi_shareable_unref");
  ASSERT_NE(unref, nullptr);
  EXPECT_TRUE(unref->tests_zero);

  // A KB without the dialects fingerprints differently — the registries
  // are part of the identity, not cosmetic.
  EXPECT_NE(FingerprintKnowledgeBase(KnowledgeBase::BuiltIn()), FingerprintKnowledgeBase(kb));
}

TEST_F(CacheTest, InterproceduralScanSharesTheCacheCorrectly) {
  const SourceTree tree = SmallTree();
  const ScanResult uncached = ScanTree(tree, /*cache_dir=*/"", 1, /*interprocedural=*/true);

  const ScanResult cold = ScanTree(tree, cache_dir_, 1, true);
  ExpectSameReports(uncached, cold);
  EXPECT_EQ(cold.stats.summarized_functions, uncached.stats.summarized_functions);

  // Warm --ipa rescan: summaries recompute (they are whole-tree) but every
  // parse comes from the cache and every report shard splices.
  const ScanResult warm = ScanTree(tree, cache_dir_, 1, true);
  ExpectSameReports(uncached, warm);
  EXPECT_EQ(warm.stats.cache_hits, tree.size());
  EXPECT_EQ(warm.stats.cache_parse_skips, tree.size());
  EXPECT_EQ(warm.stats.summarized_functions, uncached.stats.summarized_functions);

  // A plain scan after an --ipa scan still hits the parse cache (shared
  // options fingerprint) and computes its own (different-KB) reports.
  const ScanResult plain = ScanTree(tree, cache_dir_, 1, false);
  ExpectSameReports(ScanTree(tree, /*cache_dir=*/"", 1, false), plain);
}

TEST_F(CacheTest, IndexSkipsMalformedLines) {
  const SourceTree tree = SmallTree();
  ScanTree(tree, cache_dir_);
  ScanCache cache(std::make_shared<LocalStore>(cache_dir_));
  const size_t stored = cache.ReadIndex().size();
  ASSERT_GT(stored, 0u);

  std::ofstream index(stdfs::path(cache_dir_) / "index.tsv", std::ios::app);
  index << "garbage line without tabs\n\tstarts\twith\ttab\nkind\tonly-two-fields\n";
  index.close();
  EXPECT_EQ(cache.ReadIndex().size(), stored);
}

TEST_F(CacheTest, DisabledCacheNeverTouchesDisk) {
  ScanCache cache(nullptr);
  EXPECT_FALSE(cache.enabled());
  const CacheKey key = MakeFileKey("a.c", "int x;", 0);
  EXPECT_FALSE(cache.LoadFacts(key).has_value());
  cache.StoreFacts(key, DiscoveryFacts{}, "a.c");
  EXPECT_TRUE(cache.ReadIndex().empty());
}

TEST_F(CacheTest, FileKeySeparatesPathContentAndOptions) {
  const CacheKey base = MakeFileKey("a.c", "int x;", 1);
  EXPECT_NE(base, MakeFileKey("b.c", "int x;", 1));  // same content, new path
  EXPECT_NE(base, MakeFileKey("a.c", "int y;", 1));
  EXPECT_NE(base, MakeFileKey("a.c", "int x;", 2));
  EXPECT_EQ(base, MakeFileKey("a.c", "int x;", 1));
  EXPECT_EQ(base.Hex().size(), 32u);
}

TEST_F(CacheTest, UnitSerializationRoundTripsTheAst) {
  // A nontrivial file: control flow, loops, calls, structs, macros, globals.
  const SourceFile file("drivers/x/x.c",
                        "struct widget { int refcount; struct widget *next; };\n"
                        "#define for_each_w(w) for (w = head; w; w = w->next)\n"
                        "static struct widget *head;\n"
                        "static int scan(struct widget *start)\n"
                        "{\n"
                        "  struct widget *w = start;\n"
                        "  int n = 0;\n"
                        "  for_each_w(w) {\n"
                        "    if (!try_get(w))\n"
                        "      break;\n"
                        "    n += w->refcount;\n"
                        "    put_widget(w);\n"
                        "  }\n"
                        "  while (n > 10) {\n"
                        "    n = n - 1;\n"
                        "  }\n"
                        "  return n ? n : -EINVAL;\n"
                        "}\n");
  const TranslationUnit unit = ParseFile(file);
  const std::string bytes = SerializeUnit(unit);
  const std::optional<TranslationUnit> restored = DeserializeUnit(bytes);
  ASSERT_TRUE(restored.has_value());
  // DumpAst renders every node recursively, so equal dumps mean the tree
  // survived the round trip.
  EXPECT_EQ(DumpAst(unit), DumpAst(*restored));
  EXPECT_EQ(unit.path, restored->path);
}

TEST_F(CacheTest, TruncatedUnitBytesNeverParseAsAUnit) {
  const SourceFile file("a.c", "static void f(struct device_node *np) { of_node_get(np); }\n");
  const std::string bytes = SerializeUnit(ParseFile(file));
  // Every proper prefix must be rejected cleanly (bounds-checked reader).
  for (size_t len = 0; len < bytes.size(); len += 7) {
    EXPECT_FALSE(DeserializeUnit(std::string_view(bytes).substr(0, len)).has_value())
        << "prefix length " << len;
  }
  // Trailing junk is rejected too (AtEnd check).
  EXPECT_FALSE(DeserializeUnit(bytes + "x").has_value());
  EXPECT_TRUE(DeserializeUnit(bytes).has_value());
}

// SerializeUnit of `- - ... - x;` with `levels` unary minuses.
std::string UnitWithNegations(int levels) {
  std::string body;
  for (int i = 0; i < levels; ++i) {
    body += "- ";
  }
  return SerializeUnit(ParseFile(SourceFile("n.c", "void f(int x)\n{\n  " + body + "x;\n}\n")));
}

TEST_F(CacheTest, OverDeepUnitPayloadFailsToDecodeInsteadOfCrashing) {
  // Each extra negation inserts one identical run of bytes (a present
  // unary node with one child); find where, then splice in ~100,000 of
  // them — a chain of presence bytes far deeper than any parse.
  const std::string one = UnitWithNegations(1);
  const std::string two = UnitWithNegations(2);
  const size_t node = two.size() - one.size();
  size_t at = std::string::npos;
  for (size_t a = 0; a + node <= one.size() && at == std::string::npos; ++a) {
    if (one.substr(0, a) + one.substr(a, node) + one.substr(a) == two) {
      at = a;
    }
  }
  ASSERT_NE(at, std::string::npos);
  const auto spliced = [&](int levels) {
    std::string bytes = one.substr(0, at);
    for (int i = 1; i < levels; ++i) {
      bytes += one.substr(at, node);
    }
    return bytes + one.substr(at);
  };
  ASSERT_EQ(spliced(3), UnitWithNegations(3));
  EXPECT_TRUE(DeserializeUnit(spliced(1000)).has_value());
  EXPECT_FALSE(DeserializeUnit(spliced(100000)).has_value());
}

TEST_F(CacheTest, UnitParsedAtTheDepthCapsRoundTrips) {
  // 199 nested blocks put the statement at the parser's nesting cap (200)
  // and 199 negations put `x` at the expression cap: the deepest unit the
  // default parser builds without flattening.
  std::string negations_text;
  for (int i = 0; i < 199; ++i) {
    negations_text += "- ";
  }
  const std::string text = "void f(int x)\n{\n" + std::string(199, '{') + negations_text +
                           "x;" + std::string(199, '}') + "\n}\n";
  const TranslationUnit unit = ParseFile(SourceFile("deep.c", text));
  ASSERT_EQ(unit.functions.size(), 1u);
  const Stmt* s = unit.functions[0].body;
  int blocks = 0;
  while (s->kind == Stmt::Kind::kCompound && s->stmts.size() == 1) {
    s = s->stmts[0];
    ++blocks;
  }
  EXPECT_EQ(blocks, 200);  // the body and the 199 blocks
  int negations = 0;
  for (const Expr* e = s->expr; e->kind == Expr::Kind::kUnary; e = e->args[0]) {
    ++negations;
  }
  EXPECT_EQ(negations, 199);

  const std::string bytes = SerializeUnit(unit);
  const std::optional<TranslationUnit> back = DeserializeUnit(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(SerializeUnit(*back), bytes);
}

TEST_F(CacheTest, FactsRoundTripRebuildsAnIdenticalKb) {
  const SourceTree tree = SmallTree();
  KnowledgeBase fresh = KnowledgeBase::BuiltIn();
  KnowledgeBase replayed = KnowledgeBase::BuiltIn();
  std::vector<DiscoveryFacts> restored;
  for (const auto& [path, file] : tree.files()) {
    const DiscoveryFacts facts = ExtractDiscoveryFacts(ParseFile(file));
    const std::optional<DiscoveryFacts> back = DeserializeFacts(SerializeFacts(facts));
    ASSERT_TRUE(back.has_value()) << path;
    restored.push_back(*back);
  }
  for (int round = 0; round < 2; ++round) {
    size_t i = 0;
    for (const auto& [path, file] : tree.files()) {
      fresh.DiscoverFromUnit(ParseFile(file));
      replayed.DiscoverFromFacts(restored[i++]);
    }
  }
  EXPECT_EQ(FingerprintKnowledgeBase(fresh), FingerprintKnowledgeBase(replayed));
  EXPECT_EQ(fresh.apis().size(), replayed.apis().size());
  EXPECT_EQ(fresh.refcounted_structs().size(), replayed.refcounted_structs().size());
}

TEST_F(CacheTest, KbSnapshotRoundTripsTheWholeKb) {
  // The tree-level snapshot must fingerprint identically to the replayed
  // KB it was stored from — that equality is what lets a snapshot hit
  // replace both discovery rounds without perturbing stage 3's kb_fp keys.
  const SourceTree tree = SmallTree();
  KnowledgeBase replayed = KnowledgeBase::BuiltIn();
  for (int round = 0; round < 2; ++round) {
    for (const auto& [path, file] : tree.files()) {
      replayed.DiscoverFromUnit(ParseFile(file));
    }
  }
  const std::string bytes = SerializeKb(replayed);
  const std::optional<KnowledgeBase> back = DeserializeKb(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(FingerprintKnowledgeBase(*back), FingerprintKnowledgeBase(replayed));
  EXPECT_EQ(back->apis().size(), replayed.apis().size());
  EXPECT_EQ(back->smart_loops().size(), replayed.smart_loops().size());
  EXPECT_EQ(back->refcounted_structs().size(), replayed.refcounted_structs().size());
  const RefApiInfo* wrapper = back->FindApi("my_grab");
  ASSERT_NE(wrapper, nullptr);
  EXPECT_TRUE(wrapper->discovered);

  // Truncations must never deserialize into a partial KB.
  for (size_t len = 0; len < bytes.size(); len += 9) {
    EXPECT_FALSE(DeserializeKb(bytes.substr(0, len)).has_value()) << "prefix " << len;
  }
  EXPECT_FALSE(DeserializeKb(bytes + "x").has_value());
}

TEST_F(CacheTest, CorruptedKbSnapshotFallsBackToReplay) {
  const SourceTree tree = SmallTree();
  const ScanResult uncached = ScanTree(tree, /*cache_dir=*/"");
  ScanTree(tree, cache_dir_);  // prime

  // Garble every stored snapshot object: the warm scan must silently fall
  // back to the two replay rounds and still be byte-identical — and the
  // per-file artifacts keep hitting.
  size_t garbled = 0;
  for (const auto& entry : stdfs::recursive_directory_iterator(cache_dir_)) {
    if (entry.is_regular_file() && entry.path().extension() == ".kb") {
      std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
      out << "not a snapshot";
      ++garbled;
    }
  }
  EXPECT_EQ(garbled, 1u);

  const ScanResult warm = ScanTree(tree, cache_dir_);
  ExpectSameReports(uncached, warm);
  EXPECT_EQ(warm.stats.cache_hits, tree.size());
  EXPECT_EQ(warm.stats.cache_parse_skips, tree.size());
}

size_t KbObjects(const std::string& dir) {
  size_t count = 0;
  for (const auto& entry : stdfs::recursive_directory_iterator(dir)) {
    count += entry.is_regular_file() && entry.path().extension() == ".kb" ? 1 : 0;
  }
  return count;
}

TEST_F(CacheTest, KbSnapshotIsStoredOnlyByColdAndUnchangedScans) {
  const SourceTree tree = SmallTree();
  ScanTree(tree, cache_dir_);  // cold: every file parsed
  EXPECT_EQ(KbObjects(cache_dir_), 1u);

  // One function body gains a call, so that file's facts change. The scan
  // parses one file of four: it looks the snapshot up, misses, and stores
  // none — nothing would ever read it back.
  SourceTree edited = SmallTree();
  std::string text(edited.Find("drivers/a/leak.c")->text());
  text.insert(text.find("{\n") + 2, "  barrier();\n");
  edited.Add("drivers/a/leak.c", text);
  const ScanResult changed = ScanTree(edited, cache_dir_);
  ExpectSameReports(ScanTree(edited, /*cache_dir=*/""), changed);
  EXPECT_EQ(changed.stats.kb_snapshot_hits, 0u);
  EXPECT_EQ(KbObjects(cache_dir_), 1u);

  // The unchanged tree parses nothing: it misses the lookup, replays, and
  // stores the snapshot for these facts, which the next rescan hits.
  const ScanResult unchanged = ScanTree(edited, cache_dir_);
  EXPECT_EQ(unchanged.stats.cache_parse_skips, edited.size());
  EXPECT_EQ(unchanged.stats.kb_snapshot_hits, 0u);
  EXPECT_EQ(KbObjects(cache_dir_), 2u);
  const ScanResult again = ScanTree(edited, cache_dir_);
  EXPECT_EQ(again.stats.kb_snapshot_hits, 1u);
  ExpectSameReports(changed, again);
}

TEST_F(CacheTest, ReportsRoundTrip) {
  CachedFileReports entry;
  BugReport r;
  r.file = "drivers/a/leak.c";
  r.line = 3;
  r.anti_pattern = 2;
  r.function = "probe";
  r.object = "child";
  r.message = "acquired reference leaks on the NULL-check path";
  r.template_path = "F_start -> S_P(p0) -> F_end";
  entry.reports.push_back(r);
  entry.functions = 7;

  const std::optional<CachedFileReports> back = DeserializeReports(SerializeReports(entry));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->functions, 7u);
  ASSERT_EQ(back->reports.size(), 1u);
  EXPECT_EQ(ReportsToJson(back->reports), ReportsToJson(entry.reports));
}

TEST_F(CacheTest, DegradedFunctionsRoundTripThroughTheCache) {
  // v4 artifacts carry the quarantined-function list, so a warm hit must
  // reproduce the degraded section (and the exit-2) without re-parsing.
  CachedFileReports entry;
  entry.functions = 12;
  entry.degraded.push_back({"hopeless", 42, "9 unparseable statements in body"});
  entry.degraded.push_back({"also_bad", 99, "parse derailed inside body"});
  const std::optional<CachedFileReports> back = DeserializeReports(SerializeReports(entry));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->degraded.size(), 2u);
  EXPECT_EQ(back->degraded[0].name, "hopeless");
  EXPECT_EQ(back->degraded[0].line, 42u);
  EXPECT_EQ(back->degraded[0].what, "9 unparseable statements in body");
  EXPECT_EQ(back->degraded[1].name, "also_bad");

  // Cold/warm scans of a tree with a quarantined function agree end-to-end.
  SourceTree tree;
  tree.Add("drivers/q/q.c",
           "int fine(void) { return 1; }\n"
           "int hopeless(void) {\n"
           "  @@ 1$ !! 2?? ;\n"
           "  @@ 3$ !! 4?? ;\n"
           "  @@ 5$ !! 6?? ;\n"
           "  @@ 7$ !! 8?? ;\n"
           "}\n");
  const ScanResult cold = ScanTree(tree, cache_dir_);
  const ScanResult warm = ScanTree(tree, cache_dir_);
  EXPECT_EQ(warm.stats.cache_hits, tree.size());
  EXPECT_EQ(warm.stats.cache_parse_skips, tree.size());
  ASSERT_EQ(cold.degraded_functions.size(), 1u);
  ASSERT_EQ(warm.degraded_functions.size(), 1u);
  EXPECT_EQ(warm.degraded_functions[0].function, cold.degraded_functions[0].function);
  EXPECT_EQ(warm.degraded_functions[0].line, cold.degraded_functions[0].line);
  EXPECT_EQ(warm.degraded_functions[0].what, cold.degraded_functions[0].what);
  EXPECT_EQ(warm.stats.functions_degraded, 1u);
  EXPECT_EQ(ScanExitCodeFor(cold), kExitDegraded);
  EXPECT_EQ(ScanExitCodeFor(warm), kExitDegraded);
}

TEST_F(CacheTest, FullCorpusColdWarmIdentical) {
  // The integration-scale check: the whole synthetic kernel corpus, cold
  // then warm, byte-identical with a full cache hit.
  const Corpus corpus = GenerateKernelCorpus();
  const ScanResult cold = ScanTree(corpus.tree, cache_dir_, /*jobs=*/0);
  EXPECT_GT(cold.reports.size(), 0u);
  const ScanResult warm = ScanTree(corpus.tree, cache_dir_, /*jobs=*/0);
  ExpectSameReports(cold, warm);
  EXPECT_EQ(warm.stats.cache_hits, corpus.tree.size());
  EXPECT_EQ(warm.stats.cache_parse_skips, corpus.tree.size());
}

// ---- object-store backends (src/cache/store, DESIGN.md §5.13) ----------

TEST_F(CacheTest, LocalStoreSurvivesConcurrentWritersFromManyProcesses) {
  // N processes append to one index.tsv concurrently. Every line must land
  // intact (single O_APPEND write under PIPE_BUF — no torn or interleaved
  // lines) and every object must load back byte-exact.
  constexpr int kWriters = 8;
  constexpr int kObjectsPerWriter = 40;
  {
    LocalStore warmup(cache_dir_);  // create the directory before forking
    ASSERT_TRUE(warmup.ok());
  }
  std::vector<pid_t> children;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      LocalStore store(cache_dir_);
      if (!store.ok()) {
        _exit(2);
      }
      for (int i = 0; i < kObjectsPerWriter; ++i) {
        const std::string name =
            "deadbeef" + std::to_string(w) + "f" + std::to_string(i) + ".facts";
        store.Put(name, "blob-" + std::to_string(w) + "-" + std::to_string(i), "facts",
                  "writer" + std::to_string(w));
      }
      _exit(0);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  LocalStore store(cache_dir_);
  const std::vector<CacheIndexEntry> index = store.Index();
  EXPECT_EQ(index.size(), static_cast<size_t>(kWriters * kObjectsPerWriter));
  for (const CacheIndexEntry& e : index) {
    EXPECT_EQ(e.kind, "facts");
    EXPECT_NE(e.source.find("writer"), std::string::npos) << e.source;
  }
  std::string blob;
  ASSERT_TRUE(store.Get("deadbeef3f7.facts", blob));
  EXPECT_EQ(blob, "blob-3-7");
}

TEST_F(CacheTest, CacheGcEvictsLruObjectsDownToTheByteBudget) {
  LocalStore store(cache_dir_);
  ASSERT_TRUE(store.ok());
  // Object names carry the `objects/` fan-out prefix, exactly like the
  // names ScanCache generates — RunCacheGc only walks that subtree.
  for (int i = 0; i < 10; ++i) {
    store.Put("objects/ca/fe" + std::to_string(i) + ".unit", std::string(100, 'a' + i), "unit",
              "f" + std::to_string(i) + ".c");
  }
  // Pin a deterministic LRU order: object i's mtime = epoch + i seconds
  // (Put order is too fast for mtime granularity to separate).
  const std::vector<CacheIndexEntry> before = store.Index();
  ASSERT_EQ(before.size(), 10u);
  for (size_t i = 0; i < before.size(); ++i) {
    const stdfs::path obj = stdfs::path(cache_dir_) / before[i].object;
    ASSERT_TRUE(stdfs::exists(obj)) << obj;
    stdfs::last_write_time(obj,
                           stdfs::file_time_type(std::chrono::seconds(1000000 + i)));
  }

  const std::optional<CacheGcStats> gc = RunCacheGc(cache_dir_, 450);
  ASSERT_TRUE(gc.has_value());
  EXPECT_EQ(gc->kept_objects, 4u);  // 4 * 100 <= 450 < 5 * 100
  EXPECT_EQ(gc->kept_bytes, 400u);
  EXPECT_EQ(gc->evicted_objects, 6u);
  EXPECT_EQ(gc->evicted_bytes, 600u);

  // The oldest six are gone, the newest four still load; the index was
  // compacted to exactly the survivors.
  LocalStore after(cache_dir_);
  std::string blob;
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(after.Get("objects/ca/fe" + std::to_string(i) + ".unit", blob)) << i;
  }
  for (int i = 6; i < 10; ++i) {
    EXPECT_TRUE(after.Get("objects/ca/fe" + std::to_string(i) + ".unit", blob)) << i;
    EXPECT_EQ(blob, std::string(100, 'a' + i));
  }
  EXPECT_EQ(after.Index().size(), 4u);
}

TEST_F(CacheTest, GetRefreshesMtimeSoGcEvictsARecentlyReadObjectLast) {
  LocalStore store(cache_dir_);
  ASSERT_TRUE(store.ok());
  const auto name = [](int i) { return "objects/ab/cd" + std::to_string(i) + ".unit"; };
  const stdfs::file_time_type yesterday =
      stdfs::file_time_type::clock::now() - std::chrono::hours(24);
  for (int i = 0; i < 3; ++i) {
    store.Put(name(i), std::string(100, 'a' + i), "unit", "f.c");
    // Written a day ago, in order: object 0 is the oldest.
    stdfs::last_write_time(stdfs::path(cache_dir_) / name(i), yesterday + std::chrono::seconds(i));
  }
  // Reading the oldest object makes it the most recently used one.
  std::string blob;
  ASSERT_TRUE(store.Get(name(0), blob));

  const std::optional<CacheGcStats> gc = RunCacheGc(cache_dir_, 100);
  ASSERT_TRUE(gc.has_value());
  EXPECT_EQ(gc->kept_objects, 1u);
  LocalStore after(cache_dir_);
  EXPECT_TRUE(after.Get(name(0), blob));
  EXPECT_EQ(blob, std::string(100, 'a'));
  EXPECT_FALSE(after.Get(name(1), blob));
  EXPECT_FALSE(after.Get(name(2), blob));
}

// `cache gc` on a directory that holds no objects/ (a source tree, a typo)
// or on a missing one is refused and writes nothing: no index.tsv appears.
TEST_F(CacheTest, CacheGcRefusesADirectoryThatIsNotACache) {
  stdfs::create_directories(cache_dir_);
  {
    std::ofstream out(stdfs::path(cache_dir_) / "a.c");
    out << "int x;\n";
  }
  EXPECT_FALSE(RunCacheGc(cache_dir_, 0).has_value());
  EXPECT_FALSE(RunCacheGc(cache_dir_ + "/missing", 0).has_value());
  EXPECT_EQ(std::distance(stdfs::directory_iterator(cache_dir_), stdfs::directory_iterator()), 1);
  EXPECT_TRUE(stdfs::exists(stdfs::path(cache_dir_) / "a.c"));
}

TEST(CacheHashTest, BitFlipsAndZeroRunsGiveDistinctHashes) {
  // Zero-filled and patterned inputs of every length 0-64 plus every
  // single-bit flip of each. The zero runs differ only in length.
  std::set<std::string> inputs;
  for (size_t len = 0; len <= 64; ++len) {
    std::string pattern(len, '\0');
    for (size_t i = 0; i < len; ++i) {
      pattern[i] = static_cast<char>(i * 37 + len);
    }
    for (const std::string& base : {std::string(len, '\0'), pattern}) {
      inputs.insert(base);
      for (size_t bit = 0; bit < 8 * len; ++bit) {
        std::string flipped = base;
        flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
        inputs.insert(std::move(flipped));
      }
    }
  }
  std::set<uint64_t> single;
  std::set<uint64_t> hi;
  std::set<uint64_t> lo;
  for (const std::string& input : inputs) {
    single.insert(HashBytes(input));
    const Hash128 dual = HashBytesDual(input);
    hi.insert(dual.hi);
    lo.insert(dual.lo);
  }
  EXPECT_EQ(single.size(), inputs.size());
  EXPECT_EQ(hi.size(), inputs.size());
  EXPECT_EQ(lo.size(), inputs.size());
}

TEST_F(CacheTest, LocalStoreRefusesObjectNamesOutsideItsDirectory) {
  LocalStore store(cache_dir_);
  ASSERT_TRUE(store.ok());
  // A file beside the cache directory, and one a put must never create.
  const stdfs::path outside = cache_dir_ + "_outside.txt";
  const stdfs::path probe = cache_dir_ + "_escape_probe.txt";
  {
    std::ofstream out(outside, std::ios::binary);
    out << "secret";
  }
  // An object the unnormalised spellings below would reach.
  store.Put("objects/x.facts", "planted", "facts", "a.c");
  const std::string up = "../" + stdfs::path(cache_dir_).filename().string();

  const std::vector<std::string> hostile_gets = {
      up + "_outside.txt", outside.string(), "objects/../" + up + "_outside.txt",
      "objects//x.facts",  "objects/./x.facts", "./x.facts", "objects/x.facts/", ""};
  std::string blob;
  for (const std::string& name : hostile_gets) {
    EXPECT_FALSE(store.Get(name, blob)) << "get " << name;  // a miss, not the file
  }
  const std::vector<std::string> hostile_puts = {
      up + "_escape_probe.txt", probe.string(), "objects/../" + up + "_escape_probe.txt"};
  for (const std::string& name : hostile_puts) {
    store.Put(name, "planted", "facts", "a.c");  // dropped
  }
  EXPECT_FALSE(stdfs::exists(probe));
  std::ifstream in(outside, std::ios::binary);
  std::stringstream outside_text;
  outside_text << in.rdbuf();
  EXPECT_EQ(outside_text.str(), "secret");

  // The same store still serves well-formed names.
  store.Put("objects/fe/ed.facts", "kept", "facts", "a.c");
  ASSERT_TRUE(store.Get("objects/fe/ed.facts", blob));
  EXPECT_EQ(blob, "kept");
  stdfs::remove(outside);
  stdfs::remove(probe);
}

TEST_F(CacheTest, CorruptStoredObjectDegradesToMissNotWrongFacts) {
  ScanCache cache(std::make_shared<LocalStore>(cache_dir_));
  ASSERT_TRUE(cache.enabled());
  const CacheKey key = MakeFileKey("a.c", "int x;\n", 1);
  DiscoveryFacts facts;
  cache.StoreFacts(key, facts, "a.c");
  ASSERT_TRUE(cache.LoadFacts(key).has_value());

  // Overwrite the stored object on disk, behind the store's back.
  bool corrupted = false;
  for (const auto& entry : stdfs::recursive_directory_iterator(cache_dir_)) {
    if (entry.is_regular_file() && entry.path().extension() == ".facts") {
      std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
      out << "garbage bytes, definitely not a cache artifact";
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);

  ScanCache fresh(std::make_shared<LocalStore>(cache_dir_));
  EXPECT_FALSE(fresh.LoadFacts(key).has_value());
  EXPECT_EQ(fresh.corrupt_loads(), 1u);
}

}  // namespace
}  // namespace refscan
