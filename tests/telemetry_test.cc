// Telemetry tests (DESIGN.md §5.10): the metrics registry, the Prometheus
// text exposition, the Chrome trace export, and the determinism contract —
// event (name, arg) multisets and non-sched counters identical at every
// `jobs` value. Also locks the ScanStats field-table shape (stats JSON
// completeness) and the disjoint exit-code mapping.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/checkers/engine.h"
#include "src/support/fs.h"
#include "src/support/telemetry.h"

namespace refscan {
namespace {

namespace stdfs = std::filesystem;

// ---- a minimal JSON validator -------------------------------------------
//
// Enough of RFC 8259 to prove an export is well-formed (objects, arrays,
// strings with escapes, numbers, literals); deliberately not a full reader.

struct JsonCursor {
  const std::string& text;
  size_t pos = 0;

  void SkipWs() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
};

bool ParseJsonValue(JsonCursor& c);

bool ParseJsonString(JsonCursor& c) {
  if (!c.Eat('"')) {
    return false;
  }
  while (c.pos < c.text.size()) {
    const char ch = c.text[c.pos++];
    if (ch == '"') {
      return true;
    }
    if (ch == '\\') {
      if (c.pos >= c.text.size()) {
        return false;
      }
      const char esc = c.text[c.pos++];
      if (esc == 'u') {
        for (int i = 0; i < 4; ++i) {
          if (c.pos >= c.text.size() ||
              !std::isxdigit(static_cast<unsigned char>(c.text[c.pos++]))) {
            return false;
          }
        }
      } else if (std::string_view("\"\\/bfnrt").find(esc) == std::string_view::npos) {
        return false;
      }
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      return false;  // raw control character inside a string
    }
  }
  return false;  // unterminated
}

bool ParseJsonNumber(JsonCursor& c) {
  const size_t start = c.pos;
  if (c.pos < c.text.size() && c.text[c.pos] == '-') {
    ++c.pos;
  }
  while (c.pos < c.text.size() &&
         (std::isdigit(static_cast<unsigned char>(c.text[c.pos])) || c.text[c.pos] == '.' ||
          c.text[c.pos] == 'e' || c.text[c.pos] == 'E' || c.text[c.pos] == '+' ||
          c.text[c.pos] == '-')) {
    ++c.pos;
  }
  return c.pos > start;
}

bool ParseJsonValue(JsonCursor& c) {
  c.SkipWs();
  if (c.pos >= c.text.size()) {
    return false;
  }
  const char ch = c.text[c.pos];
  if (ch == '{') {
    ++c.pos;
    if (c.Eat('}')) {
      return true;
    }
    do {
      c.SkipWs();
      if (!ParseJsonString(c) || !c.Eat(':') || !ParseJsonValue(c)) {
        return false;
      }
    } while (c.Eat(','));
    return c.Eat('}');
  }
  if (ch == '[') {
    ++c.pos;
    if (c.Eat(']')) {
      return true;
    }
    do {
      if (!ParseJsonValue(c)) {
        return false;
      }
    } while (c.Eat(','));
    return c.Eat(']');
  }
  if (ch == '"') {
    return ParseJsonString(c);
  }
  for (const std::string_view lit : {"true", "false", "null"}) {
    if (c.text.compare(c.pos, lit.size(), lit) == 0) {
      c.pos += lit.size();
      return true;
    }
  }
  return ParseJsonNumber(c);
}

bool IsValidJson(const std::string& text) {
  JsonCursor c{text};
  if (!ParseJsonValue(c)) {
    return false;
  }
  c.SkipWs();
  return c.pos == text.size();
}

// ---- shared scan fixtures ------------------------------------------------

std::string LeakyFile(const std::string& fn) {
  return "static int " + fn +
         "_probe(struct device_node *np)\n"
         "{\n"
         "  struct device_node *child = of_get_parent(np);\n"
         "  return 0;\n"
         "}\n";
}

SourceTree SmallTree() {
  SourceTree tree;
  tree.Add("drivers/a/alpha.c", LeakyFile("alpha"));
  tree.Add("drivers/b/beta.c", LeakyFile("beta"));
  tree.Add("drivers/c/gamma.c", LeakyFile("gamma"));
  return tree;
}

ScanResult ScanTree(const SourceTree& tree, ScanOptions options) {
  CheckerEngine engine(KnowledgeBase::BuiltIn(), std::move(options));
  return engine.Scan(tree);
}

// Drops the nondeterministic lines from a Prometheus exposition: anything
// under sched./governor. and every timing series (histograms export as
// *_seconds*). This is the comparison rule from the determinism contract.
std::string StableMetricLines(const std::string& exposition) {
  std::string out;
  size_t pos = 0;
  while (pos < exposition.size()) {
    const size_t eol = exposition.find('\n', pos);
    const std::string_view line(exposition.data() + pos,
                                (eol == std::string::npos ? exposition.size() : eol) - pos);
    pos = eol == std::string::npos ? exposition.size() : eol + 1;
    if (line.find("refscan_sched_") != std::string_view::npos ||
        line.find("refscan_governor_") != std::string_view::npos ||
        line.find("_seconds") != std::string_view::npos) {
      continue;
    }
    out.append(line);
    out.push_back('\n');
  }
  return out;
}

// ---- metrics registry ----------------------------------------------------

TEST(MetricsRegistryTest, CountersGaugesAndLookups) {
  MetricsRegistry reg;
  reg.Counter("a.count").Add(3);
  reg.Counter("a.count").Add(2);
  reg.Gauge("a.depth").Set(7);
  EXPECT_EQ(reg.CounterValue("a.count"), 5u);
  EXPECT_EQ(reg.GaugeValue("a.depth"), 7);
  EXPECT_EQ(reg.CounterValue("never.touched"), 0u);  // absent-safe
  EXPECT_EQ(reg.GaugeValue("never.touched"), 0);
}

TEST(MetricsRegistryTest, HandleStaysValidAcrossInserts) {
  MetricsRegistry reg;
  MetricCounter& c = reg.Counter("first");
  for (int i = 0; i < 100; ++i) {
    reg.Counter("other." + std::to_string(i));
  }
  c.Add(1);  // node-based storage: the early handle must not have moved
  EXPECT_EQ(reg.CounterValue("first"), 1u);
}

TEST(MetricsRegistryTest, HistogramBucketsAreCumulativeLog2) {
  MetricHistogram h;
  h.Record(1);        // below the first bound (1µs): bucket 0
  h.Record(1 << 20);  // ~1ms
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(MetricHistogram::BucketBoundNs(0), 1024u);
  EXPECT_GE(h.bucket(0), 1u);
}

TEST(MetricsRegistryTest, PrometheusExpositionShape) {
  MetricsRegistry reg;
  reg.Counter("scan.files").Add(4);
  reg.Gauge("sched.queue_depth_max").Set(3);
  reg.Histogram("span.stage.parse").Record(5000);
  const std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE refscan_scan_files counter"), std::string::npos);
  EXPECT_NE(text.find("refscan_scan_files 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE refscan_sched_queue_depth_max gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE refscan_span_stage_parse_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("refscan_span_stage_parse_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("refscan_span_stage_parse_seconds_count 1"), std::string::npos);
  EXPECT_NE(text.find("refscan_span_stage_parse_seconds_sum"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusNameMangling) {
  EXPECT_EQ(PrometheusMetricName("scan.files"), "refscan_scan_files");
  EXPECT_EQ(PrometheusMetricName("fault.fired.fs.read"), "refscan_fault_fired_fs_read");
  EXPECT_EQ(PrometheusMetricName("a-b c"), "refscan_a_b_c");
}

// ---- spans and arming ----------------------------------------------------

TEST(TelemetrySpanTest, DisarmedSpansRecordNothing) {
  ASSERT_EQ(CurrentTelemetry(), nullptr);  // nothing armed by other tests
  {
    TelemetrySpan span("stage.parse");
    TelemetrySpan file_span("file.parse", "a.c");
  }
  Telemetry session;
  EXPECT_EQ(session.event_count(), 0u);
}

TEST(TelemetrySpanTest, ArmedSpansLandInTheSessionSortedByNameAndArg) {
  Telemetry session;
  {
    ScopedTelemetry arm(session);
    TelemetrySpan outer("stage.parse");
    { TelemetrySpan b("file.parse", "b.c"); }
    { TelemetrySpan a("file.parse", "a.c"); }
  }
  ASSERT_EQ(session.event_count(), 3u);
  const std::vector<TraceEvent> events = session.SortedEvents();
  EXPECT_STREQ(events[0].name, "file.parse");
  EXPECT_EQ(events[0].arg, "a.c");
  EXPECT_STREQ(events[1].name, "file.parse");
  EXPECT_EQ(events[1].arg, "b.c");
  EXPECT_STREQ(events[2].name, "stage.parse");
  // The session's span histograms saw both names.
  EXPECT_EQ(session.metrics().Histogram("span.file.parse").count(), 2u);
  EXPECT_EQ(session.metrics().Histogram("span.stage.parse").count(), 1u);
}

TEST(TelemetrySpanTest, ScopedArmRestoresThePreviousSession) {
  Telemetry outer_session;
  {
    ScopedTelemetry outer(outer_session);
    {
      Telemetry inner_session;
      ScopedTelemetry inner(inner_session);
      EXPECT_EQ(CurrentTelemetry(), &inner_session);
    }
    EXPECT_EQ(CurrentTelemetry(), &outer_session);
  }
  EXPECT_EQ(CurrentTelemetry(), nullptr);
}

TEST(TelemetrySpanTest, ChromeTraceExportIsValidJson) {
  Telemetry session;
  {
    ScopedTelemetry arm(session);
    TelemetrySpan span("file.parse", "dir/we\"ird\\name\n.c");  // escapes
    TelemetrySpan plain("stage.parse");
  }
  const std::string json = session.TraceToChromeJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

// ---- the scan pipeline under telemetry ----------------------------------

TEST(ScanTelemetryTest, TraceCoversEveryStageAndEveryFile) {
  Telemetry session;
  ScanOptions options;
  options.jobs = 2;
  options.interprocedural = true;  // cover stage.summarize too
  {
    ScopedTelemetry arm(session);
    const ScanResult result = ScanTree(SmallTree(), options);
    EXPECT_FALSE(result.aborted);
  }
  std::map<std::string, std::vector<std::string>> by_name;
  for (const TraceEvent& e : session.SortedEvents()) {
    by_name[e.name].push_back(e.arg);
  }
  for (const char* stage : {"stage.parse", "stage.discover", "stage.summarize", "stage.check",
                            "stage.merge"}) {
    EXPECT_EQ(by_name[stage].size(), 1u) << stage;
  }
  const std::vector<std::string> files = {"drivers/a/alpha.c", "drivers/b/beta.c",
                                          "drivers/c/gamma.c"};
  EXPECT_EQ(by_name["file.parse"], files);
  EXPECT_EQ(by_name["file.check"], files);
  EXPECT_TRUE(IsValidJson(session.TraceToChromeJson()));
}

TEST(ScanTelemetryTest, DiskLoadEmitsLoadSpans) {
  // Named for this test and process, so no concurrently running test
  // process can remove it mid-load.
  const stdfs::path root =
      stdfs::temp_directory_path() /
      (std::string("refscan_telemetry_test_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
       std::to_string(::getpid()));
  stdfs::remove_all(root);
  stdfs::create_directories(root);
  std::ofstream(root / "one.c") << "int one;\n";
  std::ofstream(root / "two.c") << "int two;\n";

  Telemetry session;
  {
    ScopedTelemetry arm(session);
    const SourceTree tree = LoadSourceTreeFromDisk(root.string());
    EXPECT_EQ(tree.size(), 2u);
  }
  stdfs::remove_all(root);

  size_t stage_load = 0;
  size_t file_load = 0;
  for (const TraceEvent& e : session.SortedEvents()) {
    stage_load += std::string_view(e.name) == "stage.load" ? 1 : 0;
    file_load += std::string_view(e.name) == "file.load" ? 1 : 0;
  }
  EXPECT_EQ(stage_load, 1u);
  EXPECT_EQ(file_load, 2u);
  EXPECT_EQ(session.metrics().CounterValue("load.files"), 2u);
}

// The tentpole contract: events (names and args) and every non-sched
// counter are identical at --jobs 1 and --jobs 4; only timings may differ.
TEST(ScanTelemetryTest, EventsAndStableMetricsAreIdenticalAcrossJobs) {
  auto run = [](size_t jobs) {
    Telemetry session;
    ScanOptions options;
    options.jobs = jobs;
    {
      ScopedTelemetry arm(session);
      const ScanResult result = ScanTree(SmallTree(), options);
      EXPECT_FALSE(result.aborted);
    }
    std::vector<std::pair<std::string, std::string>> events;
    for (const TraceEvent& e : session.SortedEvents()) {
      events.emplace_back(e.name, e.arg);
    }
    return std::make_pair(std::move(events), StableMetricLines(session.MetricsToPrometheusText()));
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  EXPECT_EQ(serial.first, parallel.first);    // (name, arg) multiset
  EXPECT_EQ(serial.second, parallel.second);  // stable Prometheus lines
  EXPECT_FALSE(serial.first.empty());
  EXPECT_NE(serial.second.find("refscan_scan_files 3"), std::string::npos);
}

TEST(ScanTelemetryTest, ScanReportsAreByteIdenticalWithTelemetryOnAndOff) {
  ScanOptions options;
  options.jobs = 2;
  const ScanResult off = ScanTree(SmallTree(), options);
  Telemetry session;
  ScanResult on;
  {
    ScopedTelemetry arm(session);
    on = ScanTree(SmallTree(), options);
  }
  EXPECT_EQ(ScanResultToJson(off, /*include_stats=*/true),
            ScanResultToJson(on, /*include_stats=*/true));
  EXPECT_GT(session.event_count(), 0u);
}

TEST(ScanTelemetryTest, ScanStatsLandInTheArmedSessionRegistry) {
  Telemetry session;
  ScanOptions options;
  options.jobs = 1;
  ScanResult result;
  {
    ScopedTelemetry arm(session);
    result = ScanTree(SmallTree(), options);
  }
  // The façade and the registry must agree on every field in the table.
  for (const ScanStatsField& f : ScanStatsFields()) {
    EXPECT_EQ(session.metrics().CounterValue(f.metric), result.stats.*f.member) << f.metric;
  }
  EXPECT_EQ(session.metrics().CounterValue("scan.files"), 3u);
  EXPECT_EQ(session.metrics().CounterValue("scan.reports"), result.reports.size());
}

// ---- stats JSON completeness (bugfix regression) -------------------------

TEST(ScanStatsJsonTest, FieldTableCoversTheWholeStruct) {
  // Shape lock: ScanStats is exactly the fields the table lists — adding a
  // member without extending ScanStatsFields() (and thus the JSON, the
  // --stats text and the metrics) trips this.
  EXPECT_EQ(ScanStatsFields().size() * sizeof(size_t), sizeof(ScanStats));
  std::set<std::string> keys;
  std::set<std::string> metrics;
  const auto& fields = ScanStatsFields();
  for (const ScanStatsField& f : fields) {
    keys.insert(f.json_key);
    metrics.insert(f.metric);
  }
  EXPECT_EQ(keys.size(), fields.size());     // no duplicate keys
  EXPECT_EQ(metrics.size(), fields.size());  // no duplicate metrics
  for (size_t i = 0; i < fields.size(); ++i) {  // no member bound twice
    for (size_t j = i + 1; j < fields.size(); ++j) {
      EXPECT_NE(fields[i].member, fields[j].member) << fields[i].json_key;
    }
  }
}

TEST(ScanStatsJsonTest, JsonEmitsEveryField) {
  // Give every field a distinct value through the table itself, then check
  // each key/value pair round-trips into the JSON (the seed bug dropped
  // discovered_apis, discovered_smart_loops, refcounted_structs and
  // summarized_functions).
  ScanResult result;
  size_t v = 10;
  for (const ScanStatsField& f : ScanStatsFields()) {
    result.stats.*f.member = v++;
  }
  const std::string json = ScanResultToJson(result, /*include_stats=*/true);
  EXPECT_TRUE(IsValidJson(json)) << json;
  v = 10;
  for (const ScanStatsField& f : ScanStatsFields()) {
    const std::string needle = "\"" + std::string(f.json_key) + "\": " + std::to_string(v++);
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  for (const char* key :
       {"discovered_apis", "discovered_smart_loops", "refcounted_structs",
        "summarized_functions"}) {
    EXPECT_NE(json.find("\"" + std::string(key) + "\":"), std::string::npos) << key;
  }
}

TEST(ScanStatsJsonTest, RealScanEmitsDiscoveryCounts) {
  ScanOptions options;
  options.jobs = 1;
  const ScanResult result = ScanTree(SmallTree(), options);
  EXPECT_GT(result.stats.discovered_apis, 0u);
  const std::string json = ScanResultToJson(result, /*include_stats=*/true);
  EXPECT_NE(json.find("\"discovered_apis\": " + std::to_string(result.stats.discovered_apis)),
            std::string::npos);
}

// ---- exit codes (bugfix regression) --------------------------------------

TEST(ScanExitCodeTest, CodesAreDisjointAndOrdered) {
  ScanResult clean;
  EXPECT_EQ(ScanExitCodeFor(clean), kExitClean);

  ScanResult with_reports;
  with_reports.reports.emplace_back();
  EXPECT_EQ(ScanExitCodeFor(with_reports), kExitReports);

  ScanResult degraded = std::move(with_reports);
  degraded.failures.emplace_back();  // degraded takes precedence over reports
  EXPECT_EQ(ScanExitCodeFor(degraded), kExitDegraded);

  ScanResult aborted = std::move(degraded);
  aborted.aborted = true;  // hard failure beats everything
  EXPECT_EQ(ScanExitCodeFor(aborted), kExitHardFailure);

  // One report can no longer alias the hard-failure code, nor two reports
  // the degraded one (the seed bug: exit = min(#reports, 125)).
  ScanResult one;
  one.reports.emplace_back();
  ScanResult two;
  two.reports.emplace_back();
  two.reports.emplace_back();
  EXPECT_EQ(ScanExitCodeFor(one), ScanExitCodeFor(two));
  EXPECT_NE(ScanExitCodeFor(one), kExitHardFailure);
  EXPECT_NE(ScanExitCodeFor(two), kExitDegraded);

  const std::set<int> codes = {kExitClean, kExitHardFailure, kExitDegraded, kExitReports,
                               kExitUsage};
  EXPECT_EQ(codes.size(), 5u);  // pairwise distinct
}

}  // namespace
}  // namespace refscan
