// `refscan serve` — the crash-tolerant resident scan service (DESIGN.md
// §5.14).
//
// A long-lived daemon that keeps the expensive per-tree state hot in one
// process — the content-addressed artifact store (KB snapshots, discovery
// facts, report shards in a MemoryStore) — and answers scan requests over
// the shared Unix-socket framing (support/ipc.h): a listener, an accept
// thread, and one thread per live connection reading frames in lockstep
// (the accept loop joins a connection's thread once it ends). The
// robustness envelope:
//
//   isolation     every request runs under the §5.9 per-file sandbox
//                 (deadlines, governors, quarantine) plus a per-request
//                 catch-all: a request that throws gets a kServeErr reply
//                 and the connection lives on; the resident store and every
//                 other request are untouched. Client-supplied cache
//                 locations are stripped server-side — a tenant cannot
//                 point I/O out of the server.
//   deadlines     ServeConfig::request_timeout_ms arms one cooperative §5.9
//                 deadline per request before it waits for a session. The
//                 request's sandboxes and every thread of its scan run
//                 under it, so a file whose time is spent is quarantined as
//                 resource-limit: an overdue request comes back as an
//                 ordinary degraded reply naming its unfinished files, frees
//                 its session, and cannot hold up a drain. No thread is
//                 killed and none watches the clock.
//   backpressure  at most `sessions` requests execute concurrently;
//                 `max_pending` more connections may wait. Beyond that the
//                 accept loop sheds with an immediate kServeBusy so clients
//                 back off instead of queueing unboundedly.
//   drain         the SIGTERM path (Drain): stop accepting and unlink the
//                 socket, so a connect() after SIGTERM fails fast; let
//                 requests already received finish and flush their replies;
//                 wake idle readers with SHUT_RD (reads fail, in-flight
//                 writes still go out). Past drain_timeout_ms, connections
//                 still queued for a session are released with kServeErr and
//                 the rest are cut (SHUT_RDWR). Every thread is joined
//                 either way. The CLI runs it on SIGTERM/SIGINT.
//
// Fault-injection site: `serve.request` (dispatch, subject = request name)
// fails that one request with kServeErr.

#ifndef REFSCAN_SERVE_SERVE_H_
#define REFSCAN_SERVE_SERVE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/cache/store.h"
#include "src/checkers/engine.h"
#include "src/support/ipc.h"
#include "src/support/telemetry.h"

namespace refscan {

struct ServeConfig {
  std::string socket_path;
  size_t sessions = 2;             // concurrently executing requests
  size_t max_pending = 8;          // connections admitted beyond the sessions
  uint32_t request_timeout_ms = 0;  // 0 = no per-request deadline
  uint32_t drain_timeout_ms = 5000;
};

// Counts `serve.requests` (frames dispatched), `serve.scans` (scan requests
// completed, degraded or not), `serve.shed` (connections turned away with
// kServeBusy), `serve.faulted` (requests answered kServeErr from the
// sandbox) and `serve.timed_out` (requests still running when their
// deadline passed) in metrics(), and keeps the gauge
// `server.connection_threads`: connection threads not yet joined, set at
// each launch and each join.
class ScanServer {
 public:
  explicit ScanServer(ServeConfig config);
  ~ScanServer();

  ScanServer(const ScanServer&) = delete;
  ScanServer& operator=(const ScanServer&) = delete;

  // Binds the socket and starts the accept thread. False + `error` if the
  // socket is unusable.
  bool Start(std::string* error = nullptr);

  // Graceful shutdown within the configured drain_timeout_ms (see the
  // header comment). Returns true when every connection finished inside
  // it, false when it escalated. Idempotent: a second call, or one before
  // Start, returns true.
  bool Drain() { return Shutdown(config_.drain_timeout_ms); }

  // The resident artifact store every request scans against. Exposed so the
  // watch loop and benchmarks share the same warm cache.
  const std::shared_ptr<MemoryStore>& store() const { return store_; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // Stats of the most recent completed scan request (for the stats reply).
  ScanStats last_scan_stats() const;

  // A request's options, cleaned for this server: the resident store, no
  // client cache location, and at most one thread per hardware thread of
  // this host.
  ScanOptions RequestOptions(ScanOptions options) const;

 private:
  // One accepted connection and its thread. `done` flips (under mu_) when
  // the thread has closed the fd and is about to return.
  struct Connection {
    int fd = -1;
    bool done = false;
    std::thread thread;
  };

  // Drain with a `timeout_ms` budget; the destructor's hard stop is 0.
  bool Shutdown(uint32_t timeout_ms);
  void AcceptLoop();
  // Runs on the accept thread for each new connection, before it gets a
  // thread. False drops it (the fd closes when this returns).
  bool Admit(int fd);
  void ServeConnection(std::list<Connection>::iterator self, OwnedFd conn);
  // Serves one request frame on its connection's thread and sends its one
  // reply.
  void ServeFrame(int fd, uint8_t type, const std::string& payload);
  // shutdown(2) every live connection with `how`.
  void ShutdownAll(int how);
  // Joins and forgets the connections with `done` set (all of them when
  // `all`), so the server holds one thread per live connection, not one
  // per connection it ever served.
  void JoinConnections(bool all);
  // Releases connection threads queued for a session, so the join that
  // follows an overrun drain cannot park behind them.
  void Escalate();
  bool AcquireSession();
  void ReleaseSession();

  std::string HandleScan(std::string_view payload, uint8_t& type);
  std::string HandleStats() const;

  ServeConfig config_;
  std::shared_ptr<MemoryStore> store_;
  MetricsRegistry metrics_;

  std::mutex session_mu_;
  std::condition_variable session_cv_;
  size_t active_sessions_ = 0;
  bool aborting_ = false;  // session waiters bail out

  mutable std::mutex stats_mu_;
  ScanStats last_stats_;

  // The connections not yet joined, and a count of unfinished ones, so the
  // drain wait is a timed wait, not a thread join (std::thread cannot
  // timed-join). Their threads use every member above.
  std::mutex mu_;
  std::condition_variable idle_cv_;
  std::list<Connection> connections_;
  size_t active_ = 0;

  OwnedFd listen_fd_;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
};

}  // namespace refscan

#endif  // REFSCAN_SERVE_SERVE_H_
