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

// The kFacts and kResults frames, one function for the worker that writes
// them and the coordinator that reads them: a u32 file count, then each
// file's bookkeeping and stage output, by index into `states` and `shards`
// (the facts after stage 1, the report shard after stage 3), and in kResults
// the worker's count of corrupt cache loads. kFacts carries the stage-1
// bookkeeping the discovery stage's snapshot store rule reads; kResults
// carries the final one (a stage-3 quarantine or re-parse overwrites it).
template <typename IO>
void TransferShardFrame(IO& io, uint8_t type, const std::vector<size_t>& files,
                        std::vector<FileScanState>& states,
                        std::vector<CachedFileReports>& shards, uint64_t& corrupt_loads) {
  Transfer(io, Pinned{static_cast<uint32_t>(files.size())});
  for (const size_t idx : files) {
    if (type == kFacts) {
      Transfer(io, states[idx], states[idx].facts);
    } else {
      Transfer(io, states[idx], shards[idx]);
    }
  }
  if (type == kResults) {
    Transfer(io, corrupt_loads);
  }
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

namespace {

// The spine with its per-file fan-out replaced by the worker exchange:
// stage 1 is kJob → kFacts, stage 3 is kKb → kResults. The breakers,
// discovery, cache accounting, merge, dedup and suppression stay the
// spine's own, run here in global file order. A fan-out that loses a
// worker stops the spine, and ShardedScan rescues the scan.
class ShardCoordinator : public ScanSpine {
 public:
  ShardCoordinator(const SourceTree& tree, const ScanOptions& options,
                   const ShardedScanConfig& config, OwnedFd listener, std::string socket_path)
      : ScanSpine(tree, KnowledgeBase::BuiltIn(), options),
        config_(config),
        listener_(std::move(listener)),
        shards_(ShardFiles(files(), config.workers)),
        workers_(shards_.size()),
        socket_path_(std::move(socket_path)) {}

  // Closes every connection (workers parked on RecvFrame see a clean EOF
  // and exit 0) and reaps every child, so no return path leaks zombies or
  // the socket file.
  ~ShardCoordinator() override {
    for (WorkerHandle& w : workers_) {
      w.conn.Reset();
    }
    for (const WorkerHandle& w : workers_) {
      if (w.pid > 0) {
        int status = 0;
        ::waitpid(w.pid, &status, 0);
      }
    }
    ::unlink(socket_path_.c_str());
  }

  bool lost() const {
    return std::any_of(workers_.begin(), workers_.end(),
                       [](const WorkerHandle& w) { return w.dead; });
  }

  // A dead worker costs its shard, not the scan: discard every worker
  // result, rescan the surviving files in-process — which makes "the
  // degraded scan's reports are byte-identical to scanning the surviving
  // subset" true by construction — and quarantine the dead shards' files.
  ScanResult Rescue() const;

 protected:
  bool FanOutParse(std::vector<FileScanState>& states) override;
  bool FanOutCheck(uint64_t kb_fp, std::vector<FileScanState>& states,
                   std::vector<CachedFileReports>& shards) override;
  // Workers count their facts/unit/report loads; the coordinator's own
  // cache only ever loads the KB snapshot. The sum is what one process
  // doing all of it would have counted.
  uint64_t CorruptLoads() const override {
    return ScanSpine::CorruptLoads() + worker_corrupt_;
  }

 private:
  // Receives one `type` frame (kFacts or kResults) from every live worker
  // and reads it into `states` and `shards` by global file index. A worker
  // whose frame is missing, short or malformed is dead. Returns false when
  // any worker is.
  bool Collect(uint8_t type, std::vector<FileScanState>& states,
               std::vector<CachedFileReports>& shards);

  const ShardedScanConfig& config_;
  OwnedFd listener_;
  const std::vector<std::vector<size_t>> shards_;
  std::vector<WorkerHandle> workers_;
  const std::string socket_path_;
  uint64_t worker_corrupt_ = 0;
};

ScanResult ShardCoordinator::Rescue() const {
  const std::vector<const SourceFile*>& files = this->files();
  std::vector<bool> dead(files.size(), false);
  std::vector<FileFailure> lost;
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (!workers_[i].dead) {
      continue;
    }
    for (const size_t idx : shards_[i]) {
      dead[idx] = true;
      FileFailure f;
      f.path = files[idx]->path();
      f.stage = FailureStage::kCheck;
      f.kind = FailureKind::kInternal;
      f.what = StrFormat("shard worker %zu died: %s", i, workers_[i].why.c_str());
      lost.push_back(std::move(f));
    }
  }
  SourceTree subset;
  for (size_t i = 0; i < files.size(); ++i) {
    if (!dead[i]) {
      subset.Add(files[i]->path(), std::string(files[i]->text()));
    }
  }
  ScanResult result = CheckerEngine(KnowledgeBase::BuiltIn(), options()).Scan(subset);
  result.stats.files += lost.size();
  result.stats.files_quarantined += lost.size();

  // Splice the dead files into the quarantine list, keeping the §5.9
  // contract: file failures in tree (path) order. The engine's are already
  // sorted and all paths are distinct, so a plain sort restores the order.
  result.failures.insert(result.failures.end(), std::make_move_iterator(lost.begin()),
                         std::make_move_iterator(lost.end()));
  std::sort(result.failures.begin(), result.failures.end(),
            [](const FileFailure& a, const FileFailure& b) { return a.path < b.path; });
  return result;
}

bool ShardCoordinator::Collect(uint8_t type, std::vector<FileScanState>& states,
                               std::vector<CachedFileReports>& shards) {
  const char* frame = type == kFacts ? "facts" : "results";
  const char* stage = type == kFacts ? "parse" : "check";
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].dead) {
      continue;
    }
    uint8_t got = 0;
    std::string payload;
    std::string ipc_error;
    if (RecvFrame(workers_[i].conn.get(), got, payload, &ipc_error) != RecvOutcome::kFrame ||
        got != type) {
      MarkDead(workers_[i], got == type ? StrFormat("recv %s: %s", frame, ipc_error.c_str())
                                        : StrFormat("crashed in %s stage", stage));
      continue;
    }
    ByteReader r(payload);
    uint64_t corrupt_loads = 0;
    TransferShardFrame(r, type, shards_[i], states, shards, corrupt_loads);
    if (!r.ok() || !r.AtEnd()) {
      MarkDead(workers_[i], StrFormat("%s frame: malformed payload", frame));
      continue;
    }
    worker_corrupt_ += corrupt_loads;
  }
  return !lost();
}

bool ShardCoordinator::FanOutParse(std::vector<FileScanState>& states) {
  std::string ipc_error;
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (!SpawnWorker(config_.worker_cmd, socket_path_, i, workers_[i].pid)) {
      MarkDead(workers_[i], StrFormat("fork failed: %s", std::strerror(errno)));
    }
  }
  // Accept until every spawned worker has said kHello (they connect in any
  // order; the hello id routes each connection to its shard).
  size_t expected = 0;
  for (const WorkerHandle& w : workers_) {
    expected += w.dead ? 0 : 1;
  }
  for (size_t accepted = 0; accepted < expected; ++accepted) {
    OwnedFd conn = UnixAccept(listener_.get(), kAcceptTimeoutMs, &ipc_error);
    if (!conn.valid()) {
      break;  // timeout/error: the workers that never arrived read as dead
    }
    uint8_t type = 0;
    std::string payload;
    if (RecvFrame(conn.get(), type, payload, &ipc_error) != RecvOutcome::kFrame ||
        type != kHello) {
      continue;  // not a worker of ours; drop the connection
    }
    uint32_t id = 0;
    if (!Decode(payload, id) || id >= workers_.size() || workers_[id].conn.valid() ||
        workers_[id].dead) {
      continue;
    }
    workers_[id].conn = std::move(conn);
  }

  // kJob: a scan request for the shard's files.
  const std::vector<const SourceFile*>& files = this->files();
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (!workers_[i].dead && !workers_[i].conn.valid()) {
      MarkDead(workers_[i], "never connected");
    }
    if (workers_[i].dead) {
      continue;
    }
    SourceTree job;
    for (const size_t idx : shards_[i]) {
      job.Add(files[idx]->path(), std::string(files[idx]->text()));
    }
    if (!SendFrame(workers_[i].conn.get(), kJob, EncodeScanRequest(job, options()), &ipc_error)) {
      MarkDead(workers_[i], "send job: " + ipc_error);
    }
  }

  // Phase 1 of the KB exchange: collect per-file facts (stage-1 output)
  // from every worker. `states` is indexed by global file order, so the
  // discovery replay and the merge are order-identical to an in-process
  // scan by construction.
  states.resize(files.size());
  std::vector<CachedFileReports> no_shards;
  return Collect(kFacts, states, no_shards);
}

bool ShardCoordinator::FanOutCheck(uint64_t /*kb_fp*/, std::vector<FileScanState>& states,
                                   std::vector<CachedFileReports>& shards) {
  // Phase 2 of the exchange: broadcast the frozen KB (workers fingerprint
  // it themselves), then collect each worker's stage-3 results. kResults
  // carries the file's FINAL state — a stage-3 quarantine overwrites what
  // kFacts reported.
  std::string ipc_error;
  const std::string kb_bytes = SerializeKb(kb());
  for (WorkerHandle& w : workers_) {
    if (!w.dead && !SendFrame(w.conn.get(), kKb, kb_bytes, &ipc_error)) {
      MarkDead(w, "send kb: " + ipc_error);
    }
  }
  shards.resize(files().size());
  return Collect(kResults, states, shards);
}

}  // namespace

ScanResult ShardedScan(const SourceTree& tree, const ScanOptions& options,
                       const ShardedScanConfig& config) {
  // Sharding is an execution strategy, not a result: whatever cannot shard
  // runs the in-process pipeline. An empty tree has nothing to split, and
  // stage 2.5 walks every unit of the tree at once.
  if (tree.size() == 0 || config.workers == 0 || config.worker_cmd.empty() ||
      options.interprocedural) {
    return CheckerEngine(KnowledgeBase::BuiltIn(), options).Scan(tree);
  }
  std::string socket_path = StrFormat("/tmp/refscan-shard-%d.sock", static_cast<int>(::getpid()));
  std::string ipc_error;
  OwnedFd listener = UnixListen(socket_path, &ipc_error);
  if (!listener.valid()) {
    std::fprintf(stderr, "refscan: sharded scan unavailable (%s); running in-process\n",
                 ipc_error.c_str());
    return CheckerEngine(KnowledgeBase::BuiltIn(), options).Scan(tree);
  }
  // The spine arms the fault plan before the fleet spawns, so coordinator
  // sites (ipc.write, the KB snapshot's cache.load/cache.store) fire exactly
  // as they would in-process; workers arm their own copy from the spec the
  // kJob frame carries.
  ShardCoordinator coordinator(tree, options, config, std::move(listener),
                               std::move(socket_path));
  if (coordinator.RunFront()) {
    coordinator.RunBack();
  }
  return coordinator.lost() ? coordinator.Rescue() : coordinator.Finish();
}

int RunShardWorker(const std::string& socket_path, int worker_id) {
  // Every failure is one stderr line and exit 1.
  const auto fail = [worker_id](const std::string& why) {
    std::fprintf(stderr, "refscan worker %d: %s\n", worker_id, why.c_str());
    return 1;
  };
  std::string error;
  OwnedFd conn = UnixConnect(socket_path, &error);
  if (!conn.valid()) {
    return fail(error);
  }
  if (!SendFrame(conn.get(), kHello, Encode(static_cast<uint32_t>(worker_id)), &error)) {
    return fail(error);
  }

  uint8_t type = 0;
  std::string payload;
  switch (RecvFrame(conn.get(), type, payload, &error)) {
    case RecvOutcome::kFrame:
      break;
    case RecvOutcome::kClosed:
      return 0;  // coordinator gave up before assigning work — clean exit
    case RecvOutcome::kError:
      return fail(error);
  }
  if (type != kJob) {
    return fail(StrFormat("unexpected frame %u", type));
  }
  ScanOptions options;
  SourceTree tree;
  if (!DecodeScanRequest(payload, tree, options)) {
    return fail("malformed job");
  }

  // Arm the coordinator's fault plan so worker-side sites (parser.*,
  // cache.*, checker.run, and the worker.facts / worker.results crash
  // points) fire in this process too; the coordinator's spine rejected a
  // malformed spec before spawning anyone. An injected worker.* fault
  // throws out of here to the CLI's fatal handler — indistinguishable from
  // a crash, which is the point.
  std::optional<ScopedFaultArm> fault_arm;
  if (!options.fault_spec.empty()) {
    fault_arm.emplace(std::string_view(options.fault_spec));
  }

  std::vector<const SourceFile*> files;
  std::vector<size_t> all_files;
  for (const auto& [path, file] : tree.files()) {
    all_files.push_back(files.size());
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
  std::vector<CachedFileReports> shards;
  uint64_t corrupt_loads = 0;
  {
    ByteWriter w;
    TransferShardFrame(w, kFacts, all_files, states, shards, corrupt_loads);
    if (!SendFrame(conn.get(), kFacts, w.bytes(), &error)) {
      return fail(error);
    }
  }

  switch (RecvFrame(conn.get(), type, payload, &error)) {
    case RecvOutcome::kFrame:
      break;
    case RecvOutcome::kClosed:
      return 0;  // coordinator aborted (breaker / sibling crash) — clean exit
    case RecvOutcome::kError:
      return fail(error);
  }
  if (type != kKb) {
    return fail(StrFormat("unexpected frame %u", type));
  }
  std::optional<KnowledgeBase> kb = DeserializeKb(payload);
  if (!kb) {
    return fail("malformed kb frame");
  }
  const uint64_t kb_fp = ctx.use_cache ? FingerprintKnowledgeBase(*kb) : 0;

  // Stage 3 over the shard, against the coordinator's frozen KB.
  const UnitCheck check = [&kb, &options](const SourceFile& file, TranslationUnit unit) {
    return CheckOneFile(file, std::move(unit), *kb, options);
  };
  shards = ParallelMap(pool, files.size(), [&](size_t i) {
    return RunCheckStage(*files[i], states[i], kb_fp, ctx, check);
  });
  MaybeFault("worker.results", id_str);
  corrupt_loads = cache.corrupt_loads();
  ByteWriter w;
  TransferShardFrame(w, kResults, all_files, states, shards, corrupt_loads);
  if (!SendFrame(conn.get(), kResults, w.bytes(), &error)) {
    return fail(error);
  }
  return 0;
}

}  // namespace refscan
