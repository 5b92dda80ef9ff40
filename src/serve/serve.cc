#include "src/serve/serve.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "src/checkers/scan_stages.h"
#include "src/serve/protocol.h"
#include "src/support/faultinject.h"
#include "src/support/governor.h"
#include "src/support/strings.h"
#include "src/support/threadpool.h"

namespace refscan {

namespace {

// How often the accept loop re-checks stopping_. Bounds how long a drain
// waits for the loop to notice; it does not limit how long clients may stay
// connected.
constexpr int kAcceptPollMs = 200;

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
    : config_(std::move(config)), store_(std::make_shared<MemoryStore>()) {
  config_.sessions = std::max<size_t>(config_.sessions, 1);
}

ScanServer::~ScanServer() { Shutdown(0); }

ScanStats ScanServer::last_scan_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return last_stats_;
}

bool ScanServer::Start(std::string* error) {
  listen_fd_ = UnixListen(config_.socket_path, error);
  if (!listen_fd_.valid()) {
    return false;
  }
  stopping_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void ScanServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    OwnedFd conn = UnixAccept(listen_fd_.get(), kAcceptPollMs);
    JoinConnections(/*all=*/false);
    if (!conn.valid() || !Admit(conn.get())) {
      continue;  // timeout, transient error or refused; re-check stopping_
    }
    std::lock_guard<std::mutex> lock(mu_);
    const auto self = connections_.emplace(connections_.end());
    self->fd = conn.get();
    ++active_;
    self->thread = std::thread(
        [this, self, c = std::move(conn)]() mutable { ServeConnection(self, std::move(c)); });
    metrics_.Gauge("server.connection_threads").Set(static_cast<int64_t>(connections_.size()));
  }
}

bool ScanServer::Admit(int fd) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (active_ < config_.sessions + config_.max_pending) {
      return true;
    }
  }
  // Admission queue full: shed with an explicit busy reply so the client
  // backs off instead of parking in our accept backlog. Count before
  // sending — a client that has the busy reply in hand must already see it
  // in the counters.
  metrics_.Counter("serve.shed").Add(1);
  SendFrame(fd, kServeBusy, "server busy");
  return false;
}

void ScanServer::ServeConnection(std::list<Connection>::iterator self, OwnedFd conn) {
  uint8_t type = 0;
  std::string payload;
  while (RecvFrame(conn.get(), type, payload) == RecvOutcome::kFrame) {
    ServeFrame(conn.get(), type, payload);
  }
  // Close under the lock, so ShutdownAll never lands on a recycled
  // descriptor.
  std::lock_guard<std::mutex> lock(mu_);
  conn.Reset();
  self->done = true;
  --active_;
  idle_cv_.notify_all();
}

void ScanServer::ShutdownAll(int how) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Connection& c : connections_) {
    if (!c.done) {
      ::shutdown(c.fd, how);
    }
  }
}

void ScanServer::JoinConnections(bool all) {
  std::list<Connection> joining;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      const auto next = std::next(it);
      if (all || it->done) {
        joining.splice(joining.end(), connections_, it);
      }
      it = next;
    }
    metrics_.Gauge("server.connection_threads").Set(static_cast<int64_t>(connections_.size()));
  }
  for (Connection& c : joining) {
    c.thread.join();
  }
}

bool ScanServer::Shutdown(uint32_t timeout_ms) {
  if (!accept_thread_.joinable()) {
    return true;
  }
  // Reject new work first: stop the accept loop and remove the socket file,
  // so a connect() after SIGTERM fails fast instead of queueing behind a
  // listener nobody will ever accept from. The thread list is stable from
  // here on.
  stopping_.store(true, std::memory_order_relaxed);
  accept_thread_.join();
  listen_fd_.Reset();
  ::unlink(config_.socket_path.c_str());
  // A connection thread mid-request finishes the exchange and flushes its
  // reply before SHUT_RD's EOF reaches its next read; parked readers wake
  // at once with a clean EOF.
  ShutdownAll(SHUT_RD);
  bool clean = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    clean = idle_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                              [this] { return active_ == 0; });
  }
  if (!clean) {
    Escalate();
    ShutdownAll(SHUT_RDWR);
  }
  JoinConnections(/*all=*/true);
  return clean;
}

void ScanServer::Escalate() {
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    aborting_ = true;
  }
  session_cv_.notify_all();
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

void ScanServer::ServeFrame(int fd, uint8_t type, const std::string& payload) {
  metrics_.Counter("serve.requests").Add(1);
  // The request's one time bound, from before the session wait on: the
  // scan's sandboxes and every thread of its team run under it.
  const ScopedDeadline deadline(config_.request_timeout_ms);
  if (!AcquireSession()) {
    SendFrame(fd, kServeErr, "server draining");
    return;
  }
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
    metrics_.Counter("serve.faulted").Add(1);
    reply_type = kServeErr;
    reply = e.what();
  } catch (...) {
    metrics_.Counter("serve.faulted").Add(1);
    reply_type = kServeErr;
    reply = "unknown exception";
  }
  // Count before replying: a client holding the late reply must already
  // see it in the counters.
  if (DeadlinePassed()) {
    metrics_.Counter("serve.timed_out").Add(1);
  }
  SendFrame(fd, reply_type, reply);
  ReleaseSession();
}

ScanOptions ScanServer::RequestOptions(ScanOptions options) const {
  // Requests scan against the resident store, never a directory of the
  // client's choosing.
  options.object_store = store_;
  options.cache_dir.clear();
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
  metrics_.Counter("serve.scans").Add(1);
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
                         metrics_.CounterValue(std::string("serve.") + name)));
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
