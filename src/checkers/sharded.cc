#include "src/checkers/sharded.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>

#include "src/cache/cache.h"
#include "src/cache/serial.h"
#include "src/checkers/scan_stages.h"
#include "src/support/faultinject.h"
#include "src/support/ipc.h"
#include "src/support/strings.h"
#include "src/support/telemetry.h"
#include "src/support/threadpool.h"

namespace refscan {

namespace {

// Worker protocol frame types (sharded.h documents the exchange).
constexpr uint8_t kHello = 1;
constexpr uint8_t kJob = 2;
constexpr uint8_t kFacts = 3;
constexpr uint8_t kKb = 4;
constexpr uint8_t kResults = 5;

// How long the coordinator waits for each worker to connect. Generous:
// worker startup is exec + connect, not a scan.
constexpr int kAcceptTimeoutMs = 30000;

// Per-file failure, retried flag and `parsed` bit, shared by the kFacts and
// kResults payloads. kFacts carries the stage-1 values the discovery
// stage's snapshot store rule reads; kResults carries the final ones (a
// stage-3 quarantine or re-parse overwrites them). The path never travels:
// the coordinator knows which global index each entry is, and fills paths
// from its own file list.
void WriteFileMeta(ByteWriter& w, const FileScanState& st) {
  w.Bool(st.failure.has_value());
  if (st.failure) {
    w.U8(static_cast<uint8_t>(st.failure->stage));
    w.U8(static_cast<uint8_t>(st.failure->kind));
    w.Str(st.failure->what);
    w.I32(st.failure->retries);
  }
  w.Bool(st.retried);
  w.Bool(st.parsed);
}

void ReadFileMeta(ByteReader& r, const std::string& path, FileScanState& st) {
  st.failure.reset();
  if (r.Bool()) {
    FileFailure f;
    f.path = path;
    f.stage = static_cast<FailureStage>(r.U8());
    f.kind = static_cast<FailureKind>(r.U8());
    f.what = r.Str();
    f.retries = r.I32();
    st.failure = std::move(f);
  }
  st.retried = r.Bool();
  st.parsed = r.Bool();
}

// ---- coordinator-side worker bookkeeping ------------------------------

struct WorkerHandle {
  pid_t pid = -1;
  OwnedFd conn;
  bool dead = false;
  std::string why;  // first transport/protocol error, quoted in quarantine
};

void MarkDead(WorkerHandle& w, std::string why) {
  if (!w.dead) {
    w.dead = true;
    w.why = std::move(why);
  }
  w.conn.Reset();
}

// Closes every connection (workers parked on RecvFrame see a clean EOF and
// exit 0) and reaps every child. Destructor-driven so no return path leaks
// zombies or the socket file.
struct FleetGuard {
  std::vector<WorkerHandle>* workers = nullptr;
  std::string socket_path;
  ~FleetGuard() {
    if (workers != nullptr) {
      for (WorkerHandle& w : *workers) {
        w.conn.Reset();
      }
      for (WorkerHandle& w : *workers) {
        if (w.pid > 0) {
          int status = 0;
          ::waitpid(w.pid, &status, 0);
        }
      }
    }
    if (!socket_path.empty()) {
      ::unlink(socket_path.c_str());
    }
  }
};

bool SpawnWorker(const std::string& worker_cmd, const std::string& socket_path, size_t id,
                 pid_t& pid) {
  const std::string id_str = std::to_string(id);
  pid = ::fork();
  if (pid < 0) {
    return false;
  }
  if (pid == 0) {
    ::execl(worker_cmd.c_str(), worker_cmd.c_str(), "worker", "--socket", socket_path.c_str(),
            "--id", id_str.c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed; the coordinator sees a dead worker
  }
  return true;
}

// The whole-tree scan the coordinator falls back to when sharding cannot
// run (empty tree, socket failure) and when a worker dies (rescue of the
// surviving subset). Engine construction mirrors the CLI's.
ScanResult InProcessScan(const SourceTree& tree, const ScanOptions& options) {
  CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
  return engine.Scan(tree);
}

// A dead worker costs its shard, not the scan: discard every worker result,
// rescan the surviving files in-process — which makes "the degraded scan's
// reports are byte-identical to scanning the surviving subset" true by
// construction — and quarantine the dead shards' files.
ScanResult RescueScan(const std::vector<const SourceFile*>& files,
                      const std::vector<std::vector<size_t>>& shards,
                      const std::vector<WorkerHandle>& workers, const ScanOptions& options) {
  std::vector<const char*> dead_why(files.size(), nullptr);
  std::vector<size_t> dead_worker(files.size(), 0);
  SourceTree subset;
  for (size_t i = 0; i < workers.size(); ++i) {
    if (!workers[i].dead) {
      continue;
    }
    for (const size_t idx : shards[i]) {
      dead_why[idx] = workers[i].why.c_str();
      dead_worker[idx] = i;
    }
  }
  size_t dead_count = 0;
  for (size_t i = 0; i < files.size(); ++i) {
    if (dead_why[i] == nullptr) {
      subset.Add(files[i]->path(), std::string(files[i]->text()));
    } else {
      ++dead_count;
    }
  }

  ScanResult result = InProcessScan(subset, options);

  // Splice the dead files into the quarantine list, keeping the §5.9
  // contract: file failures in tree (path) order. The engine's are already
  // sorted and all paths are distinct, so a plain sort restores the order.
  for (size_t i = 0; i < files.size(); ++i) {
    if (dead_why[i] == nullptr) {
      continue;
    }
    FileFailure f;
    f.path = files[i]->path();
    f.stage = FailureStage::kCheck;
    f.kind = FailureKind::kInternal;
    f.what = StrFormat("shard worker %zu died: %s", dead_worker[i], dead_why[i]);
    result.failures.push_back(std::move(f));
  }
  std::sort(result.failures.begin(), result.failures.end(),
            [](const FileFailure& a, const FileFailure& b) { return a.path < b.path; });
  result.stats.files += dead_count;
  result.stats.files_quarantined += dead_count;
  return result;
}

}  // namespace

std::vector<std::vector<size_t>> ShardFiles(const std::vector<const SourceFile*>& files,
                                            size_t shards) {
  const size_t n = std::max<size_t>(1, std::min(shards, std::max<size_t>(files.size(), 1)));
  // Largest first (path breaks size ties), each onto the currently lightest
  // shard (index breaks load ties): classic LPT, fully deterministic.
  std::vector<size_t> order(files.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const size_t sa = files[a]->text().size();
    const size_t sb = files[b]->text().size();
    if (sa != sb) {
      return sa > sb;
    }
    return files[a]->path() < files[b]->path();
  });
  std::vector<std::vector<size_t>> out(n);
  std::vector<uint64_t> load(n, 0);
  for (const size_t idx : order) {
    size_t lightest = 0;
    for (size_t s = 1; s < n; ++s) {
      if (load[s] < load[lightest]) {
        lightest = s;
      }
    }
    out[lightest].push_back(idx);
    load[lightest] += files[idx]->text().size();
  }
  for (std::vector<size_t>& shard : out) {
    std::sort(shard.begin(), shard.end());
  }
  return out;
}

ScanResult ShardedScan(const SourceTree& tree, const ScanOptions& options,
                       const ShardedScanConfig& config) {
  ScanResult result;

  // Same contract as the engine: a malformed fault spec aborts loudly. The
  // plan also arms here so coordinator-side sites (the KB snapshot's
  // cache.load/cache.store) fire exactly as they would in-process; workers
  // arm their own copy from the spec the kJob frame carries.
  std::optional<ScopedFaultArm> fault_arm;
  if (!options.fault_spec.empty()) {
    FaultPlan plan;
    std::string spec_error;
    if (!ParseFaultSpec(options.fault_spec, plan, &spec_error)) {
      result.aborted = true;
      result.abort_reason = "invalid fault spec: " + spec_error;
      return result;
    }
    fault_arm.emplace(std::move(plan));
  }

  std::vector<const SourceFile*> files;
  files.reserve(tree.size());
  for (const auto& [path, file] : tree.files()) {
    files.push_back(&file);
  }
  if (files.empty() || config.workers == 0 || config.worker_cmd.empty()) {
    return InProcessScan(tree, options);
  }

  const std::string socket_dir = config.socket_dir.empty() ? "/tmp" : config.socket_dir;
  const std::string socket_path =
      StrFormat("%s/refscan-shard-%d.sock", socket_dir.c_str(), static_cast<int>(::getpid()));
  std::string ipc_error;
  OwnedFd listener = UnixListen(socket_path, &ipc_error);
  if (!listener.valid()) {
    // Sharding is an execution strategy, not a result: infra trouble falls
    // back to the in-process pipeline rather than failing the scan.
    std::fprintf(stderr, "refscan: sharded scan unavailable (%s); running in-process\n",
                 ipc_error.c_str());
    return InProcessScan(tree, options);
  }

  const std::vector<std::vector<size_t>> shards = ShardFiles(files, config.workers);
  const size_t nworkers = shards.size();
  std::vector<WorkerHandle> workers(nworkers);
  FleetGuard guard{&workers, socket_path};

  for (size_t i = 0; i < nworkers; ++i) {
    if (!SpawnWorker(config.worker_cmd, socket_path, i, workers[i].pid)) {
      MarkDead(workers[i], StrFormat("fork failed: %s", std::strerror(errno)));
    }
  }

  // Accept until every spawned worker has said kHello (they connect in any
  // order; the hello id routes each connection to its shard).
  size_t expected = 0;
  for (const WorkerHandle& w : workers) {
    expected += w.dead ? 0 : 1;
  }
  for (size_t accepted = 0; accepted < expected; ++accepted) {
    OwnedFd conn = UnixAccept(listener.get(), kAcceptTimeoutMs, &ipc_error);
    if (!conn.valid()) {
      break;  // timeout/error: the workers that never arrived read as dead
    }
    uint8_t type = 0;
    std::string payload;
    if (RecvFrame(conn.get(), type, payload, &ipc_error) != RecvOutcome::kFrame ||
        type != kHello) {
      continue;  // not a worker of ours; drop the connection
    }
    ByteReader r(payload);
    const uint32_t id = r.U32();
    if (!r.ok() || id >= nworkers || workers[id].conn.valid() || workers[id].dead) {
      continue;
    }
    workers[id].conn = std::move(conn);
  }
  for (size_t i = 0; i < nworkers; ++i) {
    if (!workers[i].dead && !workers[i].conn.valid()) {
      MarkDead(workers[i], "never connected");
    }
  }

  // kJob: options + the shard's files, in global order within the shard.
  for (size_t i = 0; i < nworkers; ++i) {
    if (workers[i].dead) {
      continue;
    }
    ByteWriter w;
    WriteScanOptionsWire(w, options);
    w.U32(static_cast<uint32_t>(shards[i].size()));
    for (const size_t idx : shards[i]) {
      w.Str(files[idx]->path());
      w.Str(files[idx]->text());
    }
    if (!SendFrame(workers[i].conn.get(), kJob, w.bytes(), &ipc_error)) {
      MarkDead(workers[i], "send job: " + ipc_error);
    }
  }

  // Phase 1 of the KB exchange: collect per-file facts (stage-1 output)
  // from every worker. Span-named like the engine's stage so traces line up
  // across --workers values. `states` is indexed by global file order — the
  // order of the engine's own `states` — so the discovery replay and the
  // merge are order-identical by construction.
  std::vector<FileScanState> states(files.size());
  {
    TelemetrySpan stage_span("stage.parse");
    for (size_t i = 0; i < nworkers; ++i) {
      if (workers[i].dead) {
        continue;
      }
      uint8_t type = 0;
      std::string payload;
      if (RecvFrame(workers[i].conn.get(), type, payload, &ipc_error) != RecvOutcome::kFrame ||
          type != kFacts) {
        MarkDead(workers[i], type == kFacts ? "recv facts: " + ipc_error : "crashed in parse stage");
        continue;
      }
      ByteReader r(payload);
      const uint32_t count = r.Count();
      if (count != shards[i].size()) {
        MarkDead(workers[i], "facts frame: wrong file count");
        continue;
      }
      bool ok = true;
      for (size_t j = 0; j < shards[i].size() && ok; ++j) {
        FileScanState& st = states[shards[i][j]];
        ReadFileMeta(r, files[shards[i][j]]->path(), st);
        const std::string facts_bytes = r.Str();
        if (!r.ok()) {
          ok = false;
          break;
        }
        if (!facts_bytes.empty()) {
          std::optional<DiscoveryFacts> facts = DeserializeFacts(facts_bytes);
          if (!facts) {
            ok = false;
            break;
          }
          st.facts = std::move(*facts);
        }
      }
      if (!ok || !r.ok()) {
        MarkDead(workers[i], "facts frame: malformed payload");
      }
    }
  }
  for (const WorkerHandle& w : workers) {
    if (w.dead) {
      return RescueScan(files, shards, workers, options);
    }
  }

  // From here on the coordinator mirrors the engine's serial spine —
  // breaker, discovery replay, KB freeze — over the collected facts.
  const auto breaker_trips = [&](size_t failed) {
    return options.max_failure_ratio > 0 && !files.empty() &&
           static_cast<double>(failed) / static_cast<double>(files.size()) >
               options.max_failure_ratio;
  };
  const auto count_failed = [&] {
    size_t failed = 0;
    for (const FileScanState& st : states) {
      failed += st.failure.has_value() ? 1 : 0;
    }
    return failed;
  };
  const auto collect_failures = [&] {
    for (FileScanState& st : states) {
      if (st.retried) {
        ++result.stats.files_retried;
      }
      if (st.failure) {
        ++result.stats.files_quarantined;
        result.failures.push_back(std::move(*st.failure));
      }
    }
  };
  // Mirror of the engine's finalize: the stats table (plus the two
  // registry-only report counters) folds into the armed telemetry session,
  // so --metrics-out reads the same at every --workers value.
  size_t raw_report_count = 0;
  const auto publish_metrics = [&] {
    if (Telemetry* t = CurrentTelemetry()) {
      MetricsRegistry reg;
      for (const ScanStatsField& f : ScanStatsFields()) {
        reg.Counter(f.metric).Add(result.stats.*f.member);
      }
      reg.Counter("scan.raw_reports").Add(raw_report_count);
      reg.Counter("scan.reports").Add(result.reports.size());
      t->metrics().MergeFrom(reg);
    }
  };

  if (const size_t failed = count_failed(); breaker_trips(failed)) {
    result.aborted = true;
    result.abort_reason =
        StrFormat("%zu of %zu files failed in the parse stage (max_failure_ratio %.2f)", failed,
                  files.size(), options.max_failure_ratio);
    result.stats.files = files.size();
    collect_failures();
    publish_metrics();
    return result;
  }

  // Stage 2 runs here, in one process, in global file order: discovery is
  // the order-sensitive serial barrier, which is exactly why it never
  // moved into the workers. It is the engine's own stage-2 function, KB
  // snapshot lookup and store rule included.
  KnowledgeBase kb = KnowledgeBase::BuiltIn();
  for (const std::string& dialect : options.dialects) {
    ApplyDialect(kb, dialect);
  }
  ScanCache cache(MakeScanStore(options));
  const ScanStageContext ctx = MakeScanStageContext(options, cache);
  result.stats.kb_snapshot_hits = RunDiscoverStage(states, kb, ctx) ? 1 : 0;
  result.stats.discovered_apis = kb.apis().size();
  result.stats.discovered_smart_loops = kb.smart_loops().size();
  result.stats.refcounted_structs = kb.refcounted_structs().size();

  // Phase 2 of the exchange: broadcast the frozen KB, then collect each
  // worker's stage-3 results. kResults carries the file's FINAL state —
  // a stage-3 quarantine overwrites what kFacts reported.
  const std::string kb_bytes = SerializeKb(kb);
  for (size_t i = 0; i < nworkers; ++i) {
    if (!workers[i].dead && !SendFrame(workers[i].conn.get(), kKb, kb_bytes, &ipc_error)) {
      MarkDead(workers[i], "send kb: " + ipc_error);
    }
  }

  std::vector<FileShard> shard_results(files.size());
  uint64_t worker_corrupt = 0;
  {
    TelemetrySpan stage_span("stage.check");
    for (size_t i = 0; i < nworkers; ++i) {
      if (workers[i].dead) {
        continue;
      }
      uint8_t type = 0;
      std::string payload;
      if (RecvFrame(workers[i].conn.get(), type, payload, &ipc_error) != RecvOutcome::kFrame ||
          type != kResults) {
        MarkDead(workers[i], "crashed in check stage");
        continue;
      }
      ByteReader r(payload);
      const uint32_t count = r.Count();
      if (count != shards[i].size()) {
        MarkDead(workers[i], "results frame: wrong file count");
        continue;
      }
      bool ok = true;
      for (size_t j = 0; j < shards[i].size() && ok; ++j) {
        FileScanState& st = states[shards[i][j]];
        ReadFileMeta(r, files[shards[i][j]]->path(), st);
        st.report_hit = r.Bool();
        const std::string reports_bytes = r.Str();
        if (!r.ok()) {
          ok = false;
          break;
        }
        if (!reports_bytes.empty()) {
          std::optional<CachedFileReports> reports = DeserializeReports(reports_bytes);
          if (!reports) {
            ok = false;
            break;
          }
          shard_results[shards[i][j]].raw = std::move(reports->reports);
          shard_results[shards[i][j]].functions = static_cast<size_t>(reports->functions);
          shard_results[shards[i][j]].degraded = std::move(reports->degraded);
        }
      }
      worker_corrupt += r.U64();
      if (!ok || !r.ok()) {
        MarkDead(workers[i], "results frame: malformed payload");
      }
    }
  }
  for (const WorkerHandle& w : workers) {
    if (w.dead) {
      return RescueScan(files, shards, workers, options);
    }
  }

  if (const size_t failed = count_failed(); breaker_trips(failed)) {
    result.aborted = true;
    result.abort_reason = StrFormat("%zu of %zu files failed (max_failure_ratio %.2f)", failed,
                                    files.size(), options.max_failure_ratio);
    result.stats.files = files.size();
    collect_failures();
    publish_metrics();
    return result;
  }

  if (ctx.use_cache) {
    for (const FileScanState& st : states) {
      if (st.failure) {
        continue;  // quarantined files are neither hits nor misses
      }
      ++(st.report_hit ? result.stats.cache_hits : result.stats.cache_misses);
      if (!st.parsed) {
        ++result.stats.cache_parse_skips;
      }
    }
    // Workers count their facts/unit/report loads; the coordinator's own
    // cache only ever loads the KB snapshot. The sum is what one process
    // doing all of it would have counted.
    result.stats.cache_corrupt =
        static_cast<size_t>(worker_corrupt) + static_cast<size_t>(cache.corrupt_loads());
  }

  // The merge is the engine's, verbatim: file order, first-seen-wins dedup,
  // suppression comments against the full tree.
  TelemetrySpan merge_span("stage.merge");
  std::vector<BugReport> raw;
  result.stats.files = files.size();
  for (size_t i = 0; i < shard_results.size(); ++i) {
    FileShard& shard = shard_results[i];
    result.stats.functions += shard.functions;
    raw.insert(raw.end(), std::make_move_iterator(shard.raw.begin()),
               std::make_move_iterator(shard.raw.end()));
    result.stats.functions_degraded += shard.degraded.size();
    for (DegradedFunction& d : shard.degraded) {
      result.degraded_functions.push_back(
          DegradedFunctionReport{files[i]->path(), std::move(d.name), d.line, std::move(d.what)});
    }
  }
  raw_report_count = raw.size();
  result.reports = DeduplicateReports(std::move(raw));
  collect_failures();
  std::erase_if(result.reports, [&tree](const BugReport& r) {
    const SourceFile* file = tree.Find(r.file);
    if (file == nullptr) {
      return false;
    }
    std::vector<uint32_t> probe_lines = {r.line};
    if (r.line > 1) {
      probe_lines.push_back(r.line - 1);
    }
    for (uint32_t line : probe_lines) {
      if (file->Line(line).find("refscan: ignore") != std::string_view::npos ||
          file->Line(line).find("refscan:ignore") != std::string_view::npos) {
        return true;
      }
    }
    return false;
  });
  publish_metrics();
  return result;
}

int RunShardWorker(const std::string& socket_path, int worker_id) {
  std::string error;
  OwnedFd conn = UnixConnect(socket_path, &error);
  if (!conn.valid()) {
    std::fprintf(stderr, "refscan worker %d: %s\n", worker_id, error.c_str());
    return 1;
  }
  {
    ByteWriter hello;
    hello.U32(static_cast<uint32_t>(worker_id));
    if (!SendFrame(conn.get(), kHello, hello.bytes(), &error)) {
      std::fprintf(stderr, "refscan worker %d: %s\n", worker_id, error.c_str());
      return 1;
    }
  }

  uint8_t type = 0;
  std::string payload;
  switch (RecvFrame(conn.get(), type, payload, &error)) {
    case RecvOutcome::kFrame:
      break;
    case RecvOutcome::kClosed:
      return 0;  // coordinator gave up before assigning work — clean exit
    case RecvOutcome::kError:
      std::fprintf(stderr, "refscan worker %d: %s\n", worker_id, error.c_str());
      return 1;
  }
  if (type != kJob) {
    std::fprintf(stderr, "refscan worker %d: unexpected frame %u\n", worker_id, type);
    return 1;
  }
  ScanOptions options;
  SourceTree tree;
  {
    ByteReader r(payload);
    if (!ReadScanOptionsWire(r, options)) {
      std::fprintf(stderr, "refscan worker %d: malformed job options\n", worker_id);
      return 1;
    }
    const uint32_t nfiles = r.Count();
    for (uint32_t i = 0; r.ok() && i < nfiles; ++i) {
      std::string path = r.Str();
      std::string text = r.Str();
      tree.Add(std::move(path), std::move(text));
    }
    if (!r.ok()) {
      std::fprintf(stderr, "refscan worker %d: malformed job payload\n", worker_id);
      return 1;
    }
  }

  // Arm the coordinator's fault plan so worker-side sites (parser.*,
  // cache.*, checker.run, and the worker.facts / worker.results crash
  // points) fire in this process too. An injected worker.* fault throws out
  // of here to the CLI's fatal handler — indistinguishable from a crash,
  // which is the point.
  std::optional<ScopedFaultArm> fault_arm;
  if (!options.fault_spec.empty()) {
    FaultPlan plan;
    std::string spec_error;
    if (!ParseFaultSpec(options.fault_spec, plan, &spec_error)) {
      std::fprintf(stderr, "refscan worker %d: invalid fault spec: %s\n", worker_id,
                   spec_error.c_str());
      return 1;
    }
    fault_arm.emplace(std::move(plan));
  }

  std::vector<const SourceFile*> files;
  files.reserve(tree.size());
  for (const auto& [path, file] : tree.files()) {
    files.push_back(&file);
  }

  ThreadPool pool(options.jobs);
  ScanCache cache(MakeScanStore(options));
  const ScanStageContext ctx = MakeScanStageContext(options, cache);
  const std::string id_str = std::to_string(worker_id);

  // Stage 1 over the shard: the exact same per-file body the in-process
  // engine runs (scan_stages.cc).
  std::vector<FileScanState> states =
      ParallelMap(pool, files.size(), [&](size_t i) { return RunParseStage(*files[i], ctx); });
  MaybeFault("worker.facts", id_str);
  {
    ByteWriter w;
    w.U32(static_cast<uint32_t>(states.size()));
    for (const FileScanState& st : states) {
      WriteFileMeta(w, st);
      w.Str(st.failure || !ctx.want_facts ? std::string() : SerializeFacts(st.facts));
    }
    if (!SendFrame(conn.get(), kFacts, w.bytes(), &error)) {
      std::fprintf(stderr, "refscan worker %d: %s\n", worker_id, error.c_str());
      return 1;
    }
  }

  switch (RecvFrame(conn.get(), type, payload, &error)) {
    case RecvOutcome::kFrame:
      break;
    case RecvOutcome::kClosed:
      return 0;  // coordinator aborted (breaker / sibling crash) — clean exit
    case RecvOutcome::kError:
      std::fprintf(stderr, "refscan worker %d: %s\n", worker_id, error.c_str());
      return 1;
  }
  if (type != kKb) {
    std::fprintf(stderr, "refscan worker %d: unexpected frame %u\n", worker_id, type);
    return 1;
  }
  std::optional<KnowledgeBase> kb = DeserializeKb(payload);
  if (!kb) {
    std::fprintf(stderr, "refscan worker %d: malformed kb frame\n", worker_id);
    return 1;
  }
  const uint64_t kb_fp = ctx.use_cache ? FingerprintKnowledgeBase(*kb) : 0;

  // Stage 3 over the shard, against the coordinator's frozen KB.
  const KnowledgeBase& kb_ref = *kb;
  std::vector<FileShard> shards = ParallelMap(pool, files.size(), [&](size_t i) {
    return RunCheckStage(*files[i], states[i], kb_ref, kb_fp, ctx);
  });
  MaybeFault("worker.results", id_str);
  {
    ByteWriter w;
    w.U32(static_cast<uint32_t>(states.size()));
    for (size_t i = 0; i < states.size(); ++i) {
      const FileScanState& st = states[i];
      WriteFileMeta(w, st);
      w.Bool(st.report_hit);
      std::string reports_bytes;
      if (!st.failure) {
        CachedFileReports entry;
        entry.reports = std::move(shards[i].raw);
        entry.functions = shards[i].functions;
        entry.degraded = std::move(shards[i].degraded);
        reports_bytes = SerializeReports(entry);
      }
      w.Str(reports_bytes);
    }
    w.U64(static_cast<uint64_t>(cache.corrupt_loads()));
    if (!SendFrame(conn.get(), kResults, w.bytes(), &error)) {
      std::fprintf(stderr, "refscan worker %d: %s\n", worker_id, error.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace refscan
