// Tests for the transfer layer (src/cache/serial.h) and every format built
// on it.
//
// Persisted formats must not move: the digests below were captured from the
// field-by-field writers that preceded the transfer layer, at cache format
// version 5, and a mismatch means existing caches would go cold (or worse,
// decode into wrong facts). Every decoder must reject every strict prefix of
// a valid encoding and survive any single flipped byte. The ScanOptions
// field list must carry every field on the wire and exactly the
// artifact-changing ones into the fingerprint.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/cache/cache.h"
#include "src/cache/serial.h"
#include "src/cache/store.h"
#include "src/checkers/engine.h"
#include "src/checkers/scan_stages.h"
#include "src/kb/kb.h"
#include "src/support/arena.h"
#include "src/support/interner.h"
#include "src/support/source.h"

namespace refscan {
namespace {

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

DiscoveryFacts SampleFacts() {
  DiscoveryFacts facts;
  facts.structs.push_back({"widget", {{true, "", "refcount"}, {false, "kobject", "kobj"}}});
  DiscoveryFacts::Function fn;
  fn.name = "widget_get";
  fn.returns_pointer = true;
  fn.has_return_null = true;
  fn.sink_param = 1;
  fn.events = {{true, "kref_get", 0, false}, {false, "", -1, true}};
  facts.functions.push_back(fn);
  facts.macros.push_back(
      {"for_each_widget", {"w", "list"}, "for (w = first(list); w; w = next(w))"});
  return facts;
}

Expr* NewExpr(Arena& arena, Expr::Kind kind, uint32_t line, std::string_view value,
              std::initializer_list<Expr*> args, bool arrow = false) {
  Expr* e = arena.New<Expr>();
  e->kind = kind;
  e->line = line;
  e->value = Intern(value);
  e->arrow = arrow;
  for (Expr* arg : args) {
    e->args.push_back(arg, arena);
  }
  return e;
}

Stmt* NewStmt(Arena& arena, Stmt::Kind kind, uint32_t line) {
  Stmt* s = arena.New<Stmt>();
  s->kind = kind;
  s->line = line;
  return s;
}

// A unit that sets every serialized field at least once, null node pointers included.
TranslationUnit SampleUnit() {
  TranslationUnit unit;
  unit.arena = std::make_shared<Arena>();
  Arena& arena = *unit.arena;
  unit.path = "drivers/w/widget.c";
  unit.macros.push_back({Intern("WIDGET_MAX"), {Intern("a"), Intern("b")}, "((a) > (b))", 3});
  unit.structs.push_back({Intern("widget"), {{Intern("struct kref"), Intern("ref")}}, 5});
  unit.globals.push_back({Intern("struct platform_driver"), Intern("widget_driver"),
                          {{Intern("probe"), Intern("widget_probe")}}, 40});

  Stmt* decl = NewStmt(arena, Stmt::Kind::kDecl, 11);
  decl->name = Intern("w");
  decl->type = Intern("struct widget *");
  decl->expr = NewExpr(arena, Expr::Kind::kCall, 11, "",
                       {NewExpr(arena, Expr::Kind::kIdent, 11, "widget_get", {}),
                        NewExpr(arena, Expr::Kind::kIdent, 11, "np", {})});
  Stmt* ret = NewStmt(arena, Stmt::Kind::kReturn, 13);
  ret->expr = NewExpr(arena, Expr::Kind::kLiteral, 13, "-ENODEV", {});
  Stmt* check = NewStmt(arena, Stmt::Kind::kIf, 12);
  check->expr = NewExpr(arena, Expr::Kind::kUnary, 12, "!",
                        {NewExpr(arena, Expr::Kind::kIdent, 12, "w", {})});
  check->body = ret;
  check->else_body = NewStmt(arena, Stmt::Kind::kEmpty, 14);
  Stmt* loop = NewStmt(arena, Stmt::Kind::kFor, 15);
  Expr* i = NewExpr(arena, Expr::Kind::kIdent, 15, "i", {});
  loop->init = NewExpr(arena, Expr::Kind::kAssign, 15, "=",
                       {i, NewExpr(arena, Expr::Kind::kLiteral, 15, "0", {})});
  loop->expr = NewExpr(arena, Expr::Kind::kBinary, 15, "<",
                       {i, NewExpr(arena, Expr::Kind::kIdent, 15, "n", {})});
  loop->incr = NewExpr(arena, Expr::Kind::kUnary, 15, "++", {i});
  loop->body = NewStmt(arena, Stmt::Kind::kExpr, 16);
  loop->body->expr = NewExpr(arena, Expr::Kind::kMember, 16, "count",
                             {NewExpr(arena, Expr::Kind::kIdent, 16, "w", {})}, true);
  Stmt* body = NewStmt(arena, Stmt::Kind::kCompound, 10);
  for (Stmt* s : {decl, check, loop}) {
    body->stmts.push_back(s, arena);
  }
  unit.functions.push_back(
      {Intern("int"), Intern("widget_probe"), {{Intern("struct device_node *"), Intern("np")}},
       body, 10, true});
  unit.functions.push_back({Intern("void"), Intern("widget_stub"), {}, nullptr, 20, false});
  unit.degraded.push_back({"widget_broken", 30, "2 unparseable statements"});
  return unit;
}

CachedFileReports SampleReports() {
  CachedFileReports shard;
  shard.functions = 7;
  BugReport leak;
  leak.anti_pattern = 5;
  leak.impact = Impact::kLeak;
  leak.file = "drivers/w/widget.c";
  leak.function = "widget_probe";
  leak.line = 11;
  leak.exit_line = 14;
  leak.api = "widget_get";
  leak.object = "w";
  leak.template_path = "F_start -> S_P(w) -> F_end";
  leak.message = "missing \"widget_put\"\n";
  BugReport uaf = leak;
  uaf.anti_pattern = 8;
  uaf.impact = Impact::kUaf;
  uaf.exit_line = 0;
  shard.reports = {leak, uaf};
  shard.degraded = {{"widget_broken", 30, "2 unparseable statements"}};
  return shard;
}

KnowledgeBase SampleKb() {
  KnowledgeBase kb;
  RefApiInfo get;
  get.name = "widget_get";
  get.direction = RefDirection::kIncrease;
  get.category = ApiCategory::kSpecific;
  get.returns_error = true;
  get.may_return_null = true;
  get.returns_object = true;
  get.object_param = -1;
  get.consumed_param = 0;
  get.hidden = true;
  get.discovered = true;
  kb.AddApi(get);
  RefApiInfo put;
  put.name = "widget_put";
  put.direction = RefDirection::kDecrease;
  put.category = ApiCategory::kEmbedded;
  put.tests_zero = true;
  kb.AddApi(put);
  kb.AddSmartLoop({"for_each_widget", 1, "widget_next"});
  kb.AddRefcountedStruct("widget");
  kb.AddOwnershipSink("widget_register", 2);
  kb.AddParamDerefs("widget_show", {0, 2});
  kb.AddRefcountField("ref");
  kb.AddFreeFunction("widget_free");
  return kb;
}

// Every ScanOptions field that travels on the wire, set away from its default.
ScanOptions AllNonDefaultOptions() {
  ScanOptions o;
  o.nesting_threshold = 5;
  o.discover_from_source = false;
  o.enabled_patterns = {2, 10, 12};
  o.dialects = {"glib", "uacpi"};
  o.jobs = 3;
  o.cache_dir = "/var/cache/refscan";
  o.cache_server = "/run/refscan-cached.sock";
  o.prune_null_branches = false;
  o.model_ownership_transfer = false;
  o.interprocedural = true;
  o.fault_spec = "parser.file:file=a.c";
  o.file_timeout_ms = 2500;
  o.max_failure_ratio = 0.25;
  o.streaming = true;
  return o;
}

SourceTree SampleTree() {
  SourceTree tree;
  tree.Add("drivers/w/widget.c", "int widget_probe(struct device_node *np)\n{\n  return 0;\n}\n");
  tree.Add("lib/empty.c", "");
  return tree;
}

ScanResult SampleResult() {
  ScanResult result;
  result.reports = SampleReports().reports;
  result.stats.files = 2;
  result.stats.cache_hits = 1;
  result.failures.push_back({"lib/empty.c", FailureStage::kParse, FailureKind::kIo, "EIO", 1});
  result.degraded_functions.push_back({"drivers/w/widget.c", "widget_broken", 30, "derailed"});
  result.aborted = true;
  result.abort_reason = "1 of 2 files failed";
  return result;
}

FileScanState SampleState() {
  FileScanState st;
  st.failure = FileFailure{"drivers/w/widget.c", FailureStage::kCheck, FailureKind::kResourceLimit,
                           "deadline", 0};
  st.retried = true;
  st.parsed = true;
  st.report_hit = true;
  return st;
}

TEST(SerialDigestTest, PersistedBytesKeepTheirVersion5Digests) {
  EXPECT_EQ(Hex(HashBytes(SerializeFacts(SampleFacts()))), "30d1c9600e2060ff");
  EXPECT_EQ(Hex(HashBytes(SerializeUnit(SampleUnit()))), "5883dc4d1ab3a330");
  EXPECT_EQ(Hex(HashBytes(SerializeReports(SampleReports()))), "dd82c1c2594d7880");
  EXPECT_EQ(Hex(HashBytes(SerializeKb(SampleKb()))), "685ae4990caaaf78");
  EXPECT_EQ(MakeFileKey("drivers/w/widget.c", "int x;\n", 0x0123456789abcdefull).Hex(),
            "a40dcf3d99f4668879d68ba99df5f8d1");
  const DiscoveryFacts facts = SampleFacts();
  EXPECT_EQ(MakeKbSnapshotKey(0xfeedull, 3, {&facts, &facts}, 0x42ull).Hex(),
            "7da935411d062c540f3bce5fe574f15d");
  EXPECT_EQ(Hex(ScanOptionsFingerprint(ScanOptions{})), "e3baaed4e47d47e2");
  EXPECT_EQ(Hex(ScanOptionsFingerprint(AllNonDefaultOptions())), "8509cdcf397337bd");
  KnowledgeBase builtin = KnowledgeBase::BuiltIn();
  ASSERT_TRUE(ApplyDialect(builtin, "glib"));
  ASSERT_TRUE(ApplyDialect(builtin, "uacpi"));
  EXPECT_EQ(Hex(FingerprintKnowledgeBase(builtin)), "42dde56e1d0527d6");
  EXPECT_EQ(Hex(FingerprintKnowledgeBase(SampleKb())), "2f4a45c7003a0000");
}

// Whole stored objects: the header (magic, version, kind, checksum, size)
// in front of each payload, under its object name.
TEST(SerialDigestTest, StoredObjectsKeepTheirVersion5Digests) {
  auto store = std::make_shared<MemoryStore>();
  ScanCache cache(store);
  const CacheKey key = MakeFileKey("drivers/w/widget.c", "int x;\n", 7);
  cache.StoreFacts(key, SampleFacts(), "a");
  cache.StoreUnit(key, SampleUnit(), "a");
  cache.StoreReports(key, 0x1234, SampleReports(), "a");
  cache.StoreKb(key, SampleKb(), "a");
  std::vector<std::string> got;
  for (const CacheIndexEntry& e : store->Index()) {
    std::string blob;
    ASSERT_TRUE(store->Get(e.object, blob));
    got.push_back(e.object + " " + Hex(HashBytes(blob)));
  }
  const std::string prefix = "objects/62/323b414e5cc85a387202e9ae51c415";
  EXPECT_EQ(got, (std::vector<std::string>{
                     prefix + "-0000000000001234.reports 4dd5dda64371257b",
                     prefix + ".facts d53069547da86b32",
                     prefix + ".kb 4af30193e827eddb",
                     prefix + ".unit b28755c5885f5922",
                 }));
  EXPECT_TRUE(cache.LoadFacts(key).has_value());
  EXPECT_TRUE(cache.LoadUnit(key).has_value());
  EXPECT_TRUE(cache.LoadReports(key, 0x1234).has_value());
  EXPECT_TRUE(cache.LoadKb(key).has_value());
  EXPECT_EQ(cache.corrupt_loads(), 0u);
}

TEST(SerialTest, UnitRoundTripsNodeForNode) {
  const TranslationUnit unit = SampleUnit();
  const std::optional<TranslationUnit> back = DeserializeUnit(SerializeUnit(unit));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(SerializeUnit(*back), SerializeUnit(unit));
  ASSERT_EQ(back->functions.size(), 2u);
  const Stmt* body = back->functions[0].body;
  ASSERT_NE(body, nullptr);
  ASSERT_EQ(body->stmts.size(), 3u);
  EXPECT_EQ(body->stmts[1]->else_body->kind, Stmt::Kind::kEmpty);
  EXPECT_EQ(body->stmts[2]->body->expr->value, Intern("count"));
  EXPECT_TRUE(body->stmts[2]->body->expr->arrow);
  EXPECT_EQ(back->functions[1].body, nullptr);
  EXPECT_EQ(back->globals[0].inits[0].value, Intern("widget_probe"));
}

TEST(SerialTest, PinnedValuesRejectAMismatch) {
  const std::string bytes = Encode(Pinned{uint32_t{7}});
  uint32_t seven = 0;
  EXPECT_TRUE(Decode(bytes, seven));
  EXPECT_EQ(seven, 7u);
  ByteReader r(bytes);
  Transfer(r, Pinned{uint32_t{8}});
  EXPECT_FALSE(r.ok());
}

// ---- ScanOptions: one field list for the wire and the fingerprint ---------

TEST(ScanOptionsWireTest, EveryWireFieldRoundTrips) {
  const ScanOptions sent = AllNonDefaultOptions();
  SourceTree tree;
  ScanOptions got;
  ASSERT_TRUE(DecodeScanRequest(EncodeScanRequest(SampleTree(), sent), tree, got));
  EXPECT_EQ(got.nesting_threshold, sent.nesting_threshold);
  EXPECT_EQ(got.discover_from_source, sent.discover_from_source);
  EXPECT_EQ(got.enabled_patterns, sent.enabled_patterns);
  EXPECT_EQ(got.dialects, sent.dialects);
  EXPECT_EQ(got.jobs, sent.jobs);
  EXPECT_EQ(got.cache_dir, sent.cache_dir);
  EXPECT_EQ(got.cache_server, sent.cache_server);
  EXPECT_EQ(got.prune_null_branches, sent.prune_null_branches);
  EXPECT_EQ(got.model_ownership_transfer, sent.model_ownership_transfer);
  EXPECT_EQ(got.interprocedural, sent.interprocedural);
  EXPECT_EQ(got.fault_spec, sent.fault_spec);
  EXPECT_EQ(got.file_timeout_ms, sent.file_timeout_ms);
  EXPECT_EQ(got.max_failure_ratio, sent.max_failure_ratio);
  EXPECT_EQ(got.streaming, sent.streaming);
  EXPECT_EQ(got.object_store, nullptr);  // a live pointer never travels
  ASSERT_EQ(tree.size(), 2u);
  ASSERT_NE(tree.Find("lib/empty.c"), nullptr);
  EXPECT_EQ(tree.Find("drivers/w/widget.c")->text(),
            SampleTree().Find("drivers/w/widget.c")->text());
}

// The split engine.h documents on the fields and at ScanOptionsFingerprint:
// a field is fingerprinted exactly when it can change a cache artifact.
TEST(ScanOptionsWireTest, FingerprintCoversExactlyTheArtifactFields) {
  struct Case {
    const char* field;
    std::function<void(ScanOptions&)> change;
    bool fingerprinted;
  };
  const std::vector<Case> cases = {
      {"nesting_threshold", [](ScanOptions& o) { o.nesting_threshold = 5; }, true},
      {"discover_from_source", [](ScanOptions& o) { o.discover_from_source = false; }, true},
      {"enabled_patterns", [](ScanOptions& o) { o.enabled_patterns = {1, 10}; }, true},
      {"dialects", [](ScanOptions& o) { o.dialects = {"glib"}; }, true},
      {"prune_null_branches", [](ScanOptions& o) { o.prune_null_branches = false; }, true},
      {"model_ownership_transfer", [](ScanOptions& o) { o.model_ownership_transfer = false; },
       true},
      {"jobs", [](ScanOptions& o) { o.jobs = 8; }, false},
      {"cache_dir", [](ScanOptions& o) { o.cache_dir = "/tmp/c"; }, false},
      {"cache_server", [](ScanOptions& o) { o.cache_server = "/tmp/s.sock"; }, false},
      {"object_store", [](ScanOptions& o) { o.object_store = std::make_shared<MemoryStore>(); },
       false},
      {"interprocedural", [](ScanOptions& o) { o.interprocedural = true; }, false},
      {"fault_spec", [](ScanOptions& o) { o.fault_spec = "parser.file"; }, false},
      {"file_timeout_ms", [](ScanOptions& o) { o.file_timeout_ms = 100; }, false},
      {"max_failure_ratio", [](ScanOptions& o) { o.max_failure_ratio = 0.5; }, false},
      {"streaming", [](ScanOptions& o) { o.streaming = true; }, false},
  };
  const uint64_t base = ScanOptionsFingerprint(ScanOptions{});
  for (const Case& c : cases) {
    ScanOptions changed;
    c.change(changed);
    EXPECT_EQ(ScanOptionsFingerprint(changed) != base, c.fingerprinted) << c.field;
  }
}

// ---- Every decoder against malformed input --------------------------------

struct Format {
  const char* name;
  std::function<std::string()> encode;
  std::function<bool(std::string_view)> decode;
};

void PrintTo(const Format& f, std::ostream* os) { *os << f.name; }

class DecoderTest : public ::testing::TestWithParam<Format> {};

TEST_P(DecoderTest, ValidEncodingDecodes) {
  EXPECT_TRUE(GetParam().decode(GetParam().encode()));
}

TEST_P(DecoderTest, EveryStrictPrefixFails) {
  const std::string bytes = GetParam().encode();
  for (size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(GetParam().decode(std::string_view(bytes).substr(0, n))) << "prefix " << n;
  }
}

// Any result is fine as long as decoding neither crashes nor trips a
// sanitizer: a flipped count or length must fail a bounds check, a flipped
// presence byte or enum must decode to some value.
TEST_P(DecoderTest, SingleByteFlipsNeverCrash) {
  const std::string bytes = GetParam().encode();
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80, 0xff}) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(static_cast<unsigned char>(flipped[i]) ^ mask);
      GetParam().decode(flipped);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, DecoderTest,
    ::testing::Values(
        Format{"facts", [] { return SerializeFacts(SampleFacts()); },
               [](std::string_view b) { return DeserializeFacts(b).has_value(); }},
        Format{"unit", [] { return SerializeUnit(SampleUnit()); },
               [](std::string_view b) { return DeserializeUnit(b).has_value(); }},
        Format{"reports", [] { return SerializeReports(SampleReports()); },
               [](std::string_view b) { return DeserializeReports(b).has_value(); }},
        Format{"kb", [] { return SerializeKb(SampleKb()); },
               [](std::string_view b) { return DeserializeKb(b).has_value(); }},
        Format{"scan_request",
               [] { return EncodeScanRequest(SampleTree(), AllNonDefaultOptions()); },
               [](std::string_view b) {
                 SourceTree tree;
                 ScanOptions options;
                 return DecodeScanRequest(b, tree, options);
               }},
        Format{"scan_reply", [] { return EncodeScanResult(SampleResult()); },
               [](std::string_view b) {
                 ScanResult result;
                 return DecodeScanResult(b, result);
               }},
        Format{"shard_facts_record", [] { return Encode(SampleState(), SampleFacts()); },
               [](std::string_view b) {
                 FileScanState st;
                 return Decode(b, st, st.facts);
               }},
        Format{"shard_results_record", [] { return Encode(SampleState(), SampleReports()); },
               [](std::string_view b) {
                 FileScanState st;
                 CachedFileReports shard;
                 return Decode(b, st, shard);
               }}),
    [](const ::testing::TestParamInfo<Format>& p) { return std::string(p.param.name); });

}  // namespace
}  // namespace refscan
