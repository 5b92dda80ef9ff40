#include "src/serve/serve.h"

#include <sys/socket.h>

#include <algorithm>

#include "src/checkers/scan_stages.h"
#include "src/serve/protocol.h"
#include "src/support/faultinject.h"
#include "src/support/strings.h"
#include "src/support/threadpool.h"

namespace refscan {

namespace {

// How often the watchdog re-checks deadlines. Bounds how late a deadline
// reply can be, not request latency.
constexpr int kWatchdogPollMs = 25;

std::string_view RequestName(uint8_t type) {
  switch (type) {
    case kServeScanReq:
      return "scan";
    case kServeStatsReq:
      return "stats";
    case kServeHealthReq:
      return "health";
    default:
      return "unknown";
  }
}

}  // namespace

ScanServer::ScanServer(ServeConfig config)
    : FrameServer(config.socket_path),
      config_(std::move(config)),
      store_(std::make_shared<MemoryStore>()) {
  config_.sessions = std::max<size_t>(config_.sessions, 1);
}

ScanServer::~ScanServer() {
  Stop();
  watchdog_stop_.store(true, std::memory_order_relaxed);
  if (watchdog_thread_.joinable()) {
    watchdog_thread_.join();
  }
}

ScanStats ScanServer::last_scan_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return last_stats_;
}

bool ScanServer::Admit(int fd) {
  if (config_.request_timeout_ms > 0 && !watchdog_thread_.joinable()) {
    // Spawned from the accept thread, like every other server thread, so it
    // inherits the signal mask Start ran under (the CLI blocks SIGTERM).
    watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  }
  try {
    MaybeFault("serve.accept", std::to_string(++accepted_));
  } catch (const FaultInjected&) {
    return false;  // injected accept failure: drop the connection on the floor
  }
  if (live_connections() < config_.sessions + config_.max_pending) {
    return true;
  }
  // Admission queue full: shed with an explicit busy reply so the client
  // backs off instead of parking in our accept backlog. Count before
  // sending — a client that has the busy reply in hand must already see it
  // in the counters.
  metrics().Counter("serve.shed").Add(1);
  SendFrame(fd, kServeBusy, "server busy");
  return false;
}

void ScanServer::Escalate() {
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    aborting_ = true;
  }
  session_cv_.notify_all();
}

void ScanServer::WatchdogLoop() {
  while (!watchdog_stop_.load(std::memory_order_relaxed)) {
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::shared_ptr<ReplyState>> overdue;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      for (const Pending& p : pending_) {
        if (now >= p.deadline) {
          overdue.push_back(p.reply);
        }
      }
    }
    for (const std::shared_ptr<ReplyState>& rs : overdue) {
      std::lock_guard<std::mutex> lock(rs->mu);
      if (rs->replied) {
        continue;
      }
      rs->replied = true;
      // Count before sending: a client holding the deadline reply must
      // already see it in the counters.
      metrics().Counter("serve.timed_out").Add(1);
      SendFrame(rs->fd, kServeErr, "request deadline exceeded");
      // Sever the connection: the hung session thread's eventual result is
      // discarded, and the client is not left waiting on a dead session.
      ::shutdown(rs->fd, SHUT_RDWR);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kWatchdogPollMs));
  }
}

bool ScanServer::AcquireSession() {
  std::unique_lock<std::mutex> lock(session_mu_);
  session_cv_.wait(lock, [this] { return active_sessions_ < config_.sessions || aborting_; });
  if (aborting_) {
    return false;
  }
  ++active_sessions_;
  return true;
}

void ScanServer::ReleaseSession() {
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    --active_sessions_;
  }
  session_cv_.notify_one();
}

void ScanServer::Reply(ReplyState& rs, uint8_t type, const std::string& payload) {
  std::lock_guard<std::mutex> lock(rs.mu);
  if (rs.replied) {
    return;  // the watchdog answered (and severed) this one already
  }
  rs.replied = true;
  SendFrame(rs.fd, type, payload);
}

bool ScanServer::ServeFrame(int fd, uint8_t type, const std::string& payload) {
  metrics().Counter("serve.requests").Add(1);
  auto rs = std::make_shared<ReplyState>();
  rs->fd = fd;
  if (config_.request_timeout_ms > 0) {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.push_back(Pending{
        rs, std::chrono::steady_clock::now() +
                std::chrono::milliseconds(config_.request_timeout_ms)});
  }
  if (!AcquireSession()) {
    Reply(*rs, kServeErr, "server draining");
  } else {
    uint8_t reply_type = kServeText;
    std::string reply;
    try {
      MaybeFault("serve.request", std::string(RequestName(type)));
      switch (type) {
        case kServeScanReq:
          reply = HandleScan(payload, reply_type);
          break;
        case kServeStatsReq:
          reply = HandleStats();
          break;
        case kServeHealthReq:
          reply = "ok";
          break;
        default:
          reply_type = kServeErr;
          reply = StrFormat("unknown request type %u", type);
          break;
      }
    } catch (const std::exception& e) {
      // Request isolation: whatever escaped the scan sandbox fails THIS
      // request; the store, the connection, and every other session are
      // untouched.
      metrics().Counter("serve.faulted").Add(1);
      reply_type = kServeErr;
      reply = e.what();
    } catch (...) {
      metrics().Counter("serve.faulted").Add(1);
      reply_type = kServeErr;
      reply = "unknown exception";
    }
    Reply(*rs, reply_type, reply);
    ReleaseSession();
  }
  if (config_.request_timeout_ms > 0) {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [&](const Pending& p) { return p.reply == rs; }),
                   pending_.end());
  }
  return true;
}

ScanOptions ScanServer::RequestOptions(ScanOptions options) const {
  // Requests scan against the resident store, never a path or socket of
  // the client's choosing, and a client fault spec must not arm sites in
  // the server process beyond its own request... which is exactly what
  // ScanOptions::fault_spec would do (ScopedFaultArm is process-global for
  // the scan's duration). Strip it: fault injection into the server is the
  // server operator's knob (REFSCAN_FAULTS / serve.* sites).
  options.object_store = store_;
  options.cache_dir.clear();
  options.cache_server.clear();
  options.fault_spec.clear();
  if (config_.request_timeout_ms > 0) {
    options.file_timeout_ms = options.file_timeout_ms == 0
                                  ? config_.request_timeout_ms
                                  : std::min(options.file_timeout_ms, config_.request_timeout_ms);
  }
  // Each session starts `jobs` - 1 threads for its request. Reports are
  // identical at every `jobs`, so the cap moves no output; it only stops a
  // client from asking the daemon for more threads than the host has.
  options.jobs = std::min(options.jobs, ThreadPool::ResolveJobs(0));
  return options;
}

std::string ScanServer::HandleScan(std::string_view payload, uint8_t& type) {
  SourceTree tree;
  ScanOptions options;
  if (!DecodeScanRequest(payload, tree, options)) {
    type = kServeErr;
    return "malformed scan request";
  }
  CheckerEngine engine(KnowledgeBase::BuiltIn(), RequestOptions(std::move(options)));
  const ScanResult result = engine.Scan(tree);
  metrics().Counter("serve.scans").Add(1);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    last_stats_ = result.stats;
  }
  type = kServeScanResp;
  return EncodeScanResult(result);
}

std::string ScanServer::HandleStats() const {
  const ScanStats stats = last_scan_stats();
  std::string out = "{";
  for (const char* name : {"requests", "scans", "shed", "faulted", "timed_out"}) {
    out += StrFormat("\"%s\":%llu,", name,
                     static_cast<unsigned long long>(
                         metrics().CounterValue(std::string("serve.") + name)));
  }
  out += StrFormat("\"store_objects\":%zu,\"store_bytes\":%llu,", store_->objects(),
                   static_cast<unsigned long long>(store_->bytes()));
  out += "\"last_scan\":{";
  bool first = true;
  for (const ScanStatsField& f : ScanStatsFields()) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += StrFormat("\"%s\":%zu", f.json_key, stats.*f.member);
  }
  out += "}}\n";
  return out;
}

}  // namespace refscan
