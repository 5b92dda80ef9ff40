#include "src/support/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <iterator>
#include <utility>

namespace refscan {

namespace {

// How often the accept loop re-checks stopping_. Bounds how long a drain
// waits for the loop to notice; it does not limit how long clients may stay
// connected.
constexpr int kAcceptPollMs = 200;

}  // namespace

FrameServer::FrameServer(std::string socket_path) : socket_path_(std::move(socket_path)) {}

FrameServer::~FrameServer() { Stop(); }

bool FrameServer::Start(std::string* error) {
  listen_fd_ = UnixListen(socket_path_, error);
  if (!listen_fd_.valid()) {
    return false;
  }
  stopping_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void FrameServer::AcceptLoop() {
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

void FrameServer::ServeConnection(std::list<Connection>::iterator self, OwnedFd conn) {
  uint8_t type = 0;
  std::string payload;
  while (RecvFrame(conn.get(), type, payload) == RecvOutcome::kFrame &&
         ServeFrame(conn.get(), type, payload)) {
  }
  // Close under the lock, so ShutdownAll never lands on a recycled
  // descriptor.
  std::lock_guard<std::mutex> lock(mu_);
  conn.Reset();
  self->done = true;
  --active_;
  idle_cv_.notify_all();
}

void FrameServer::ShutdownAll(int how) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Connection& c : connections_) {
    if (!c.done) {
      ::shutdown(c.fd, how);
    }
  }
}

void FrameServer::JoinConnections(bool all) {
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

size_t FrameServer::live_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

bool FrameServer::Drain(uint32_t timeout_ms) {
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
  ::unlink(socket_path_.c_str());
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

}  // namespace refscan
