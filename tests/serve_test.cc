// Tests for the resident scan service (src/serve): byte-identity of remote
// vs local scans, the warm resident store, request isolation under injected
// faults, the request deadline, kServeBusy backpressure, graceful drain,
// hostile-peer handling on the serve path, and the watch-mode delta.

#include "src/serve/serve.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/checkers/engine.h"
#include "src/checkers/report.h"
#include "src/checkers/scan_stages.h"
#include "src/corpus/generator.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/watch.h"
#include "src/support/faultinject.h"
#include "src/support/ipc.h"
#include "src/support/source.h"
#include "src/support/strings.h"
#include "src/support/threadpool.h"

namespace refscan {
namespace {

std::string TestSocketPath(const char* tag) {
  return "/tmp/refscan-serve-test-" + std::to_string(::getpid()) + "-" + tag + ".sock";
}

// A corpus slice: big enough to exercise discovery + every checker, small
// enough that the suite's several scans stay fast.
SourceTree TestTree(size_t max_files = 32) {
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

// Fast-retry policy so transient-failure paths don't sleep for real.
BackoffPolicy FastBackoff(int attempts = 3) {
  BackoffPolicy policy;
  policy.attempts = attempts;
  policy.base_delay_ms = 1;
  policy.max_delay_ms = 4;
  return policy;
}

ScanResult LocalScan(const SourceTree& tree, const ScanOptions& options) {
  CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
  return engine.Scan(tree);
}

void ExpectSameOutput(const ScanResult& a, const ScanResult& b) {
  EXPECT_EQ(ReportsToJson(a.reports), ReportsToJson(b.reports));
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].path, b.failures[i].path);
    EXPECT_EQ(a.failures[i].what, b.failures[i].what);
  }
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(ScanExitCodeFor(a), ScanExitCodeFor(b));
}

TEST(ServeProtocolTest, ScanRequestRoundTrip) {
  SourceTree tree;
  tree.Add("a.c", "int main(void) { return 0; }\n");
  tree.Add("dir/b.c", "void f(void) {}\n");
  ScanOptions options;
  options.jobs = 4;
  options.dialects = {"glib"};
  options.file_timeout_ms = 1234;
  const std::string wire = EncodeScanRequest(tree, options);

  SourceTree decoded_tree;
  ScanOptions decoded;
  ASSERT_TRUE(DecodeScanRequest(wire, decoded_tree, decoded));
  EXPECT_EQ(decoded_tree.size(), 2u);
  ASSERT_NE(decoded_tree.Find("dir/b.c"), nullptr);
  EXPECT_EQ(decoded_tree.Find("dir/b.c")->text(), "void f(void) {}\n");
  EXPECT_EQ(decoded.jobs, 4u);
  EXPECT_EQ(decoded.dialects, options.dialects);
  EXPECT_EQ(decoded.file_timeout_ms, 1234u);

  // Truncated payloads must fail loudly, not decode partially.
  SourceTree t2;
  ScanOptions o2;
  EXPECT_FALSE(DecodeScanRequest(std::string_view(wire).substr(0, wire.size() / 2), t2, o2));
}

TEST(ServeProtocolTest, ScanResultRoundTripIncludingFailures) {
  const SourceTree tree = TestTree(8);
  ScanResult result = LocalScan(tree, ScanOptions{});
  FileFailure f;
  f.path = "broken.c";
  f.stage = FailureStage::kCheck;
  f.kind = FailureKind::kResourceLimit;
  f.what = "deadline";
  result.failures.push_back(f);
  result.stats.files_quarantined = 1;
  result.degraded_functions.push_back(
      DegradedFunctionReport{"drivers/q/q.c", "hopeless", 42, "parse derailed inside body"});
  result.stats.functions_degraded = 1;

  ScanResult decoded;
  ASSERT_TRUE(DecodeScanResult(EncodeScanResult(result), decoded));
  ExpectSameOutput(result, decoded);
  EXPECT_EQ(decoded.stats.files, result.stats.files);
  EXPECT_EQ(decoded.stats.files_quarantined, 1u);
  ASSERT_EQ(decoded.failures.size(), 1u);
  EXPECT_EQ(decoded.failures[0].kind, FailureKind::kResourceLimit);
  // The degraded-functions section travels over the wire too (exit-2
  // parity between a remote and a local scan depends on it).
  EXPECT_EQ(decoded.stats.functions_degraded, 1u);
  ASSERT_EQ(decoded.degraded_functions.size(), 1u);
  EXPECT_EQ(decoded.degraded_functions[0].file, "drivers/q/q.c");
  EXPECT_EQ(decoded.degraded_functions[0].function, "hopeless");
  EXPECT_EQ(decoded.degraded_functions[0].line, 42u);
  EXPECT_EQ(decoded.degraded_functions[0].what, "parse derailed inside body");
}

TEST(ServeTest, HealthAndStatsAnswer) {
  ServeConfig config;
  config.socket_path = TestSocketPath("health");
  ScanServer server(config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::string reply;
  ASSERT_TRUE(RemoteRequestText(config.socket_path, kServeHealthReq, "", reply, &error)) << error;
  EXPECT_EQ(reply, "ok");
  ASSERT_TRUE(RemoteRequestText(config.socket_path, kServeStatsReq, "", reply, &error)) << error;
  EXPECT_NE(reply.find("\"requests\":"), std::string::npos) << reply;
  server.Drain();
}

TEST(ServeTest, StatsReplyRendersTheCountersInAFixedShape) {
  // `refscan health --stats` prints this reply verbatim: the counters come
  // from the server's metrics registry, in a fixed order, then the store
  // size and the last scan's ScanStatsFields.
  const SourceTree tree = TestTree(6);
  ServeConfig config;
  config.socket_path = TestSocketPath("statsshape");
  ScanServer server(config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  std::string reply;
  ASSERT_TRUE(RemoteRequestText(config.socket_path, kServeHealthReq, "", reply, &error)) << error;
  std::optional<ScanResult> scanned =
      RemoteScan(tree, ScanOptions{}, config.socket_path, FastBackoff(), nullptr);
  ASSERT_TRUE(scanned.has_value());
  ASSERT_TRUE(RemoteRequestText(config.socket_path, kServeStatsReq, "", reply, &error)) << error;

  std::string want = StrFormat(
      "{\"requests\":3,\"scans\":1,\"shed\":0,\"faulted\":0,\"timed_out\":0,"
      "\"store_objects\":%zu,\"store_bytes\":%llu,\"last_scan\":{",
      server.store()->objects(), static_cast<unsigned long long>(server.store()->bytes()));
  for (const ScanStatsField& f : ScanStatsFields()) {
    want += StrFormat("%s\"%s\":%zu", &f == &ScanStatsFields().front() ? "" : ",", f.json_key,
                      scanned->stats.*f.member);
  }
  want += "}}\n";
  EXPECT_EQ(reply, want);
  EXPECT_EQ(server.metrics().CounterValue("serve.requests"), 3u);
  server.Drain();
}

TEST(ServeTest, FinishedConnectionsGiveBackTheirThreads) {
  // Every connection gets a thread, and the accept loop joins it once the
  // connection ends: a long-lived daemon holds one thread (and its stack)
  // per live connection, not one per connection it ever served.
  ServeConfig config;
  config.socket_path = TestSocketPath("reap");
  ScanServer server(config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::string reply;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(RemoteRequestText(config.socket_path, kServeHealthReq, "", reply, &error))
        << error;
  }
  // A connection's thread finishes once it reads the client's EOF, and the
  // accept loop joins finished threads whenever it wakes (at least every
  // 200 ms): give it a few wake-ups to catch up under load.
  int64_t held = server.metrics().GaugeValue("server.connection_threads");
  for (int wait = 0; wait < 50 && held > 0; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    held = server.metrics().GaugeValue("server.connection_threads");
  }
  EXPECT_EQ(held, 0) << "finished connection threads are still held";
  server.Drain();
}

TEST(ServeTest, RemoteMatchesLocalColdAndWarmAtEveryJobs) {
  const SourceTree tree = TestTree();
  ServeConfig config;
  config.socket_path = TestSocketPath("identity");
  ScanServer server(config);
  ASSERT_TRUE(server.Start());

  for (const size_t jobs : {size_t{1}, size_t{4}}) {
    ScanOptions options;
    options.jobs = jobs;
    const ScanResult local = LocalScan(tree, options);
    // Cold and warm: the resident store may only change the stats counters,
    // never the output.
    std::string note;
    std::optional<ScanResult> cold = RemoteScan(tree, options, config.socket_path,
                                                FastBackoff(), &note);
    ASSERT_TRUE(cold.has_value()) << note;
    ExpectSameOutput(local, *cold);
    std::optional<ScanResult> warm = RemoteScan(tree, options, config.socket_path,
                                                FastBackoff(), &note);
    ASSERT_TRUE(warm.has_value()) << note;
    ExpectSameOutput(local, *warm);
    // The resident store is what makes "warm": every file skips its parse
    // and the KB snapshot replaces discovery.
    EXPECT_EQ(warm->stats.cache_parse_skips, warm->stats.files);
    EXPECT_EQ(warm->stats.cache_hits, warm->stats.files);
    EXPECT_GE(warm->stats.kb_snapshot_hits, 1u);
  }
  EXPECT_TRUE(server.Drain());
  EXPECT_EQ(server.metrics().CounterValue("serve.scans"), 4u);
  EXPECT_EQ(server.metrics().CounterValue("serve.faulted"), 0u);
}

TEST(ServeTest, InjectedRequestFaultDegradesOnlyThatRequest) {
  const SourceTree tree = TestTree(12);
  ServeConfig config;
  config.socket_path = TestSocketPath("isolation");
  ScanServer server(config);
  ASSERT_TRUE(server.Start());

  const ScanOptions options;
  const ScanResult local = LocalScan(tree, options);
  ScopedFaultArm arm("serve.request:once");
  std::optional<ScanResult> faulted =
      RemoteScan(tree, options, config.socket_path, FastBackoff(), nullptr);
  ASSERT_TRUE(faulted.has_value());
  EXPECT_EQ(ScanExitCodeFor(*faulted), kExitDegraded);
  ASSERT_EQ(faulted->failures.size(), 1u);
  EXPECT_NE(faulted->failures[0].what.find("injected fault"), std::string::npos)
      << faulted->failures[0].what;

  // The faulted request poisoned nothing: the next request on the same
  // server is clean and byte-identical to a local scan.
  std::optional<ScanResult> clean =
      RemoteScan(tree, options, config.socket_path, FastBackoff(), nullptr);
  ASSERT_TRUE(clean.has_value());
  ExpectSameOutput(local, *clean);
  EXPECT_TRUE(server.Drain());
  EXPECT_EQ(server.metrics().CounterValue("serve.faulted"), 1u);
}

// RequestOptions cleans a request's locations but passes its dialects
// through: a remote scan folds them into the KB like a local one.
TEST(ServeTest, ScansHonourRequestDialects) {
  CorpusOptions corpus_options;
  corpus_options.new_family_modules = true;
  const Corpus corpus = GenerateKernelCorpus(corpus_options);
  ScanOptions options;
  options.jobs = 2;
  options.enabled_patterns = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  options.dialects = {"glib", "uacpi"};
  const ScanResult want = LocalScan(corpus.tree, options);
  ScanOptions plain = options;
  plain.dialects.clear();
  ASSERT_NE(ReportsToJson(want.reports), ReportsToJson(LocalScan(corpus.tree, plain).reports))
      << "the dialects must matter on this corpus";

  ServeConfig config;
  config.socket_path = TestSocketPath("dialects");
  ScanServer server(config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  EXPECT_EQ(server.RequestOptions(options).dialects, options.dialects);
  for (int pass = 0; pass < 2; ++pass) {  // cold, then warm from the resident store
    std::string note;
    std::optional<ScanResult> got =
        RemoteScan(corpus.tree, options, config.socket_path, FastBackoff(), &note);
    ASSERT_TRUE(got.has_value()) << note;
    ExpectSameOutput(want, *got);
  }
  server.Drain();
}

// The cleaning step alone, on a server that is never started: no request is
// sent, so no huge `jobs` value ever reaches a thread pool.
TEST(ServeTest, RequestOptionsCapJobsAtTheHardwareThreadCount) {
  ServeConfig config;
  config.socket_path = TestSocketPath("jobscap");
  config.request_timeout_ms = 500;
  const ScanServer server(config);
  const size_t hardware = ThreadPool::ResolveJobs(0);

  ScanOptions huge;
  huge.jobs = size_t{1} << 40;
  huge.cache_dir = "/tmp/client-cache";
  huge.file_timeout_ms = 60000;
  const ScanOptions cleaned = server.RequestOptions(huge);
  EXPECT_EQ(cleaned.jobs, hardware);
  EXPECT_EQ(cleaned.object_store, server.store());
  EXPECT_TRUE(cleaned.cache_dir.empty());
  // The request deadline bounds the request as a whole (ServeFrame); the
  // client's per-file budget passes through.
  EXPECT_EQ(cleaned.file_timeout_ms, 60000u);

  // Within the cap a request keeps its own value; 0 already means one
  // thread per hardware thread.
  for (const size_t jobs : {size_t{0}, size_t{1}, hardware}) {
    ScanOptions options;
    options.jobs = jobs;
    EXPECT_EQ(server.RequestOptions(options).jobs, jobs);
  }
}

TEST(ServeTest, AdmissionQueueShedsWithBusy) {
  ServeConfig config;
  config.socket_path = TestSocketPath("busy");
  config.sessions = 1;
  config.max_pending = 0;
  ScanServer server(config);
  ASSERT_TRUE(server.Start());

  // One parked connection fills the whole admission budget (sessions=1,
  // pending=0). The health round-trip proves the server has admitted it —
  // connect() alone only means the kernel queued us in the backlog.
  OwnedFd parked = UnixConnect(config.socket_path);
  ASSERT_TRUE(parked.valid());
  ASSERT_TRUE(SendFrame(parked.get(), kServeHealthReq, ""));
  uint8_t type = 0;
  std::string payload;
  ASSERT_EQ(RecvFrame(parked.get(), type, payload), RecvOutcome::kFrame);
  ASSERT_EQ(type, kServeText);

  // Now the next connection must be shed with kServeBusy, immediately and
  // without us sending a byte.
  OwnedFd extra = UnixConnect(config.socket_path);
  ASSERT_TRUE(extra.valid());
  ASSERT_EQ(RecvFrame(extra.get(), type, payload), RecvOutcome::kFrame);
  EXPECT_EQ(type, kServeBusy);
  EXPECT_GE(server.metrics().CounterValue("serve.shed"), 1u);

  // RemoteScan treats kServeBusy as a transient: it retries with backoff
  // and, once the parked connection is gone, succeeds.
  parked.Reset();
  extra.Reset();
  const SourceTree tree = TestTree(4);
  std::optional<ScanResult> result =
      RemoteScan(tree, ScanOptions{}, config.socket_path, FastBackoff(50), nullptr);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->failures.empty());
  server.Drain();
}

// One cooperative deadline bounds a request, from before its session wait
// on. 20 files, each parse delayed 100 ms, at 2 jobs cannot finish in 300
// ms: files whose sandbox opens after the deadline are quarantined without
// running, so the reply comes back soon after it, degraded and naming
// files. With one session, the clean request that follows proves the
// overdue one gave its session back.
TEST(ServeTest, OverdueRequestComesBackDegradedAndFreesItsSession) {
  const SourceTree tree = TestTree(20);
  ServeConfig config;
  config.socket_path = TestSocketPath("deadline");
  config.sessions = 1;
  // The clean follow-up scan of 4 files must fit in the deadline even
  // under ThreadSanitizer.
  config.request_timeout_ms = 300;
  ScanServer server(config);
  ASSERT_TRUE(server.Start());

  {
    ScopedFaultArm arm("parser.parse:always:delay=100");
    ScanOptions options;
    options.jobs = 2;
    const auto start = std::chrono::steady_clock::now();
    std::optional<ScanResult> result =
        RemoteScan(tree, options, config.socket_path, FastBackoff(1), nullptr);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(ScanExitCodeFor(*result), kExitDegraded);
    EXPECT_EQ(result->failures.size(), tree.size());
    for (const FileFailure& f : result->failures) {
      EXPECT_NE(tree.Find(f.path), nullptr) << f.path;
      EXPECT_EQ(f.kind, FailureKind::kResourceLimit) << f.path << ": " << f.what;
    }
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 1000);
  }
  EXPECT_EQ(server.metrics().CounterValue("serve.timed_out"), 1u);

  const SourceTree small = TestTree(4);
  std::optional<ScanResult> clean =
      RemoteScan(small, ScanOptions{}, config.socket_path, FastBackoff(1), nullptr);
  ASSERT_TRUE(clean.has_value());
  EXPECT_TRUE(clean->failures.empty());
  ExpectSameOutput(LocalScan(small, ScanOptions{}), *clean);
  EXPECT_EQ(server.metrics().CounterValue("serve.timed_out"), 1u);
  EXPECT_TRUE(server.Drain());
}

TEST(ServeTest, DrainFinishesInFlightAndRefusesNew) {
  const SourceTree tree = TestTree(12);
  ServeConfig config;
  config.socket_path = TestSocketPath("drain");
  ScanServer server(config);
  ASSERT_TRUE(server.Start());

  // Slow the request enough that Drain provably overlaps it.
  ScopedFaultArm arm("serve.request:once:delay=300");
  OwnedFd conn = UnixConnect(config.socket_path);
  ASSERT_TRUE(conn.valid());
  ASSERT_TRUE(SendFrame(conn.get(), kServeScanReq, EncodeScanRequest(tree, ScanOptions{})));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    EXPECT_TRUE(server.Drain());
    drained.store(true);
  });
  uint8_t type = 0;
  std::string payload;
  ASSERT_EQ(RecvFrame(conn.get(), type, payload), RecvOutcome::kFrame)
      << "in-flight request must complete and flush during drain";
  EXPECT_EQ(type, kServeScanResp);
  ScanResult result;
  ASSERT_TRUE(DecodeScanResult(payload, result));
  ExpectSameOutput(LocalScan(tree, ScanOptions{}), result);
  drainer.join();
  EXPECT_TRUE(drained.load());
  // The listener is gone: new connections fail outright.
  OwnedFd refused = UnixConnect(config.socket_path);
  EXPECT_FALSE(refused.valid());
}

TEST(ServeTest, DrainWakesParkedReadersAndRefusesNew) {
  ServeConfig config;
  config.socket_path = TestSocketPath("parked");
  config.drain_timeout_ms = 5000;
  ScanServer server(config);
  ASSERT_TRUE(server.Start());

  // One client idle after a health reply (its connection thread is blocked
  // in a frame read server-side); one hostile client stopped mid-frame.
  // Drain must wake both without hanging and finish in budget.
  OwnedFd idle = UnixConnect(config.socket_path);
  ASSERT_TRUE(idle.valid());
  ASSERT_TRUE(SendFrame(idle.get(), kServeHealthReq, ""));
  uint8_t type = 0;
  std::string payload;
  ASSERT_EQ(RecvFrame(idle.get(), type, payload), RecvOutcome::kFrame);
  ASSERT_EQ(type, kServeText);
  OwnedFd midframe = UnixConnect(config.socket_path);
  ASSERT_TRUE(midframe.valid());
  const char partial[] = {50, 0, 0, 0, kServeScanReq};  // promises 50 bytes, sends none
  ASSERT_EQ(::write(midframe.get(), partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  // Both connections hold a thread before the drain starts.
  for (int wait = 0;
       wait < 100 && server.metrics().GaugeValue("server.connection_threads") < 2; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.metrics().GaugeValue("server.connection_threads"), 2);

  EXPECT_TRUE(server.Drain());
  // The listener is gone: new connections fail outright.
  EXPECT_FALSE(UnixConnect(config.socket_path).valid());
}

TEST(ServeTest, HostilePeersDoNotWedgeTheServer) {
  const SourceTree tree = TestTree(4);
  ServeConfig config;
  config.socket_path = TestSocketPath("hostile");
  ScanServer server(config);
  ASSERT_TRUE(server.Start());

  {
    // Oversized length prefix: the serve path must reject the frame and
    // drop the connection without allocating the claimed 4 GiB.
    OwnedFd conn = UnixConnect(config.socket_path);
    ASSERT_TRUE(conn.valid());
    const unsigned char huge[] = {0xff, 0xff, 0xff, 0xff, kServeScanReq};
    ASSERT_EQ(::write(conn.get(), huge, sizeof(huge)), static_cast<ssize_t>(sizeof(huge)));
    uint8_t type = 0;
    std::string payload;
    EXPECT_NE(RecvFrame(conn.get(), type, payload), RecvOutcome::kFrame);
  }
  {
    // Disconnect mid-frame: a length prefix promising bytes that never come.
    OwnedFd conn = UnixConnect(config.socket_path);
    ASSERT_TRUE(conn.valid());
    const char partial[] = {100, 0, 0, 0, kServeScanReq, 'x'};
    ASSERT_EQ(::write(conn.get(), partial, sizeof(partial)),
              static_cast<ssize_t>(sizeof(partial)));
  }
  {
    // Disconnect mid-request: full request sent, peer gone before the
    // reply. The server's reply write fails quietly; nothing leaks.
    OwnedFd conn = UnixConnect(config.socket_path);
    ASSERT_TRUE(conn.valid());
    ASSERT_TRUE(SendFrame(conn.get(), kServeScanReq, EncodeScanRequest(tree, ScanOptions{})));
  }
  {
    // Malformed scan payload: one kServeErr reply, the session lives on.
    OwnedFd conn = UnixConnect(config.socket_path);
    ASSERT_TRUE(conn.valid());
    ASSERT_TRUE(SendFrame(conn.get(), kServeScanReq, "not a scan request"));
    uint8_t type = 0;
    std::string payload;
    ASSERT_EQ(RecvFrame(conn.get(), type, payload), RecvOutcome::kFrame);
    EXPECT_EQ(type, kServeErr);
    ASSERT_TRUE(SendFrame(conn.get(), kServeHealthReq, ""));
    ASSERT_EQ(RecvFrame(conn.get(), type, payload), RecvOutcome::kFrame);
    EXPECT_EQ(type, kServeText);
    // A request type the daemon does not serve, 3 included: one kServeErr
    // naming it, and the session still lives on.
    for (const uint8_t unknown : {uint8_t{3}, uint8_t{99}}) {
      ASSERT_TRUE(SendFrame(conn.get(), unknown, EncodeScanRequest(tree, ScanOptions{})));
      ASSERT_EQ(RecvFrame(conn.get(), type, payload), RecvOutcome::kFrame);
      EXPECT_EQ(type, kServeErr);
      EXPECT_EQ(payload, StrFormat("unknown request type %u", unknown));
    }
    ASSERT_TRUE(SendFrame(conn.get(), kServeHealthReq, ""));
    ASSERT_EQ(RecvFrame(conn.get(), type, payload), RecvOutcome::kFrame);
    EXPECT_EQ(type, kServeText);
  }
  // After all of that, a normal request still round-trips byte-identically.
  std::optional<ScanResult> result =
      RemoteScan(tree, ScanOptions{}, config.socket_path, FastBackoff(), nullptr);
  ASSERT_TRUE(result.has_value());
  ExpectSameOutput(LocalScan(tree, ScanOptions{}), *result);
  server.Drain();
}

TEST(ServeTest, UnreachableServerYieldsNulloptAfterBudget) {
  const SourceTree tree = TestTree(2);
  std::string note;
  std::optional<ScanResult> result = RemoteScan(
      tree, ScanOptions{}, "/tmp/refscan-serve-test-no-such-daemon.sock", FastBackoff(2), &note);
  EXPECT_FALSE(result.has_value());
  EXPECT_FALSE(note.empty());
}

// A client that starts before its daemon: RemoteScan's retry loop backs off
// until the socket appears ~60 ms later, and the scan it then gets equals
// the local one.
TEST(ServeTest, RemoteScanOutlastsALateServer) {
  const SourceTree tree = TestTree(8);
  ServeConfig config;
  config.socket_path = TestSocketPath("lateserver");
  ::unlink(config.socket_path.c_str());
  ScanServer server(config);
  bool started = false;
  std::thread late_server([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    started = server.Start();
  });
  BackoffPolicy policy;
  policy.attempts = 40;
  policy.base_delay_ms = 20;
  policy.max_delay_ms = 50;
  std::string note;
  const std::optional<ScanResult> remote =
      RemoteScan(tree, ScanOptions{}, config.socket_path, policy, &note);
  late_server.join();
  ASSERT_TRUE(started);
  ASSERT_TRUE(remote.has_value()) << note;
  ExpectSameOutput(LocalScan(tree, ScanOptions{}), *remote);
  EXPECT_TRUE(server.Drain());
  EXPECT_EQ(server.metrics().CounterValue("serve.scans"), 1u);
}

TEST(WatchTest, ReportDeltaTracksFreshAndFixed) {
  BugReport a;
  a.anti_pattern = 1;
  a.file = "a.c";
  a.function = "f";
  a.line = 10;
  a.message = "leak";
  BugReport b = a;
  b.file = "b.c";
  b.line = 20;
  BugReport c = a;
  c.file = "c.c";
  c.line = 30;

  const ReportDelta delta = ComputeReportDelta({a, b}, {b, c});
  ASSERT_EQ(delta.fresh.size(), 1u);
  EXPECT_EQ(delta.fresh[0].file, "c.c");
  ASSERT_EQ(delta.fixed.size(), 1u);
  EXPECT_EQ(delta.fixed[0].file, "a.c");

  const std::string text = FormatWatchDelta(2, delta, 2, {});
  EXPECT_NE(text.find("generation 2: 2 report(s), +1 fresh, -1 fixed"), std::string::npos)
      << text;
  EXPECT_NE(text.find("+ P1 c.c:30 [f] leak"), std::string::npos) << text;
  EXPECT_NE(text.find("- P1 a.c:10 [f] leak"), std::string::npos) << text;

  // No churn: an identical rescan is an empty delta.
  const ReportDelta none = ComputeReportDelta({a, b}, {a, b});
  EXPECT_TRUE(none.fresh.empty());
  EXPECT_TRUE(none.fixed.empty());
}

// The watch loop names every file the loader could not read in the
// generation block, and a failure that appears or clears starts a
// generation of its own.
TEST(WatchTest, LoopListsLoadFailuresAndRescansWhenTheyChange) {
  namespace stdfs = std::filesystem;
  const std::string dir = "/tmp/refscan-watch-test-" + std::to_string(::getpid());
  const std::string tree = dir + "/tree";
  stdfs::remove_all(dir);
  stdfs::create_directories(tree + "/d");
  std::ofstream(tree + "/d/probe.c")
      << "static int probe(void)\n{\n\tstruct device_node *np = of_find_node_by_path(\"/x\");\n"
         "\tif (bad())\n\t\treturn -EIO;\n\tof_node_put(np);\n\treturn 0;\n}\n";
  const std::string out_path = dir + "/watch.out";
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  ASSERT_NE(out, nullptr);

  WatchConfig watch;
  watch.tree_dir = tree;
  watch.poll_ms = 10;
  std::atomic<bool> stop{false};
  uint64_t generations = 0;
  std::thread loop([&] {
    generations = RunWatchLoop(watch, ScanOptions{}, std::make_shared<MemoryStore>(), stop, out);
  });
  const auto read_output = [&] {
    std::ifstream in(out_path);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  // Waits until generation `n`'s block is out, and returns the whole output.
  const auto await = [&](int n) {
    const std::string header = StrFormat("generation %d:", n);
    std::string text = read_output();
    for (int i = 0; i < 1000 && text.find(header) == std::string::npos; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      text = read_output();
    }
    return text;
  };

  const std::string first = await(1);
  // A file one byte over the loader's cap appears: moved in whole, so no
  // poll sees it half-written.
  std::ofstream(dir + "/big.tmp") << std::string(4 * 1024 * 1024 + 1, 'x');
  stdfs::rename(dir + "/big.tmp", tree + "/d/big.c");
  const std::string second = await(2);
  stdfs::remove(tree + "/d/big.c");
  const std::string third = await(3);
  stop.store(true);
  loop.join();
  std::fclose(out);
  stdfs::remove_all(dir);

  EXPECT_EQ(generations, 3u);
  const std::string failure_line =
      "! d/big.c: size 4194305 exceeds the loader's 4194304-byte cap\n";
  ASSERT_NE(first.find("generation 1: 1 report(s), +1 fresh, -0 fixed\n+ P"), std::string::npos)
      << first;
  EXPECT_EQ(first.find('!'), std::string::npos) << first;
  const std::string block2 = second.substr(second.find("generation 2:"));
  EXPECT_EQ(block2.rfind("generation 2: 1 report(s), +0 fresh, -0 fixed\n" + failure_line, 0),
            0u)
      << second;
  const std::string block3 = third.substr(third.find("generation 3:"));
  EXPECT_EQ(block3, "generation 3: 1 report(s), +0 fresh, -0 fixed\n") << third;
}

}  // namespace
}  // namespace refscan
