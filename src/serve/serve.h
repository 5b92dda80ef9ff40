// `refscan serve` — the crash-tolerant resident scan service (DESIGN.md
// §5.14).
//
// A long-lived daemon that keeps the expensive per-tree state hot in one
// process — the content-addressed artifact store (KB snapshots, discovery
// facts, report shards in a MemoryStore) — and answers scan requests over
// the shared Unix-socket framing. The robustness envelope:
//
//   isolation     every request runs under the §5.9 per-file sandbox
//                 (deadlines, governors, quarantine) plus a per-request
//                 catch-all: a request that throws gets a kServeErr reply
//                 and the connection lives on; the resident store and every
//                 other request are untouched. Client-supplied cache
//                 locations are stripped server-side — a tenant cannot
//                 point I/O out of the server.
//   deadlines     ServeConfig::request_timeout_ms folds into each request's
//                 per-file deadline (cooperative), and a watchdog thread
//                 backstops hung requests: past the deadline it sends
//                 kServeErr, marks the request answered, and severs the
//                 connection — the stuck session thread's eventual result
//                 is discarded (no thread is killed).
//   backpressure  at most `sessions` requests execute concurrently;
//                 `max_pending` more connections may wait. Beyond that the
//                 accept loop sheds with an immediate kServeBusy so clients
//                 back off instead of queueing unboundedly.
//   drain         the shared FrameServer drain (support/server.h) with a
//                 drain_timeout_ms budget: in-flight requests finish and
//                 flush their replies; past the budget, connections still
//                 queued for a session are released with kServeErr and the
//                 rest are cut. The CLI runs it on SIGTERM/SIGINT.
//
// Fault-injection site: `serve.request` (dispatch, subject = request name)
// fails that one request with kServeErr.

#ifndef REFSCAN_SERVE_SERVE_H_
#define REFSCAN_SERVE_SERVE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/store.h"
#include "src/checkers/engine.h"
#include "src/support/ipc.h"
#include "src/support/server.h"

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
// sandbox) and `serve.timed_out` (requests the watchdog gave up on) in
// metrics().
class ScanServer : public FrameServer {
 public:
  explicit ScanServer(ServeConfig config);
  ~ScanServer() override;

  // Graceful shutdown within the configured drain_timeout_ms: in-flight
  // requests complete and flush (FrameServer::Drain).
  bool Drain() { return FrameServer::Drain(config_.drain_timeout_ms); }

  // The resident artifact store every request scans against. Exposed so the
  // watch loop and benchmarks share the same warm cache.
  const std::shared_ptr<MemoryStore>& store() const { return store_; }

  // Stats of the most recent completed scan request (for the stats reply).
  ScanStats last_scan_stats() const;

  // A request's options, cleaned for this server: the resident store, no
  // client cache location, the request deadline as a cap, and at most one
  // thread per hardware thread of this host.
  ScanOptions RequestOptions(ScanOptions options) const;

 private:
  // One per in-flight request: the reply slot the session thread and the
  // watchdog race for. Whoever flips `replied` under the mutex sends the
  // one reply frame; the loser discards.
  struct ReplyState {
    std::mutex mu;
    bool replied = false;
    int fd = -1;
  };
  struct Pending {
    std::shared_ptr<ReplyState> reply;
    std::chrono::steady_clock::time_point deadline;
  };

  bool Admit(int fd) override;
  bool ServeFrame(int fd, uint8_t type, const std::string& payload) override;
  // Releases connection threads queued for a session, so the join that
  // follows cannot park behind them.
  void Escalate() override;

  void WatchdogLoop();
  bool AcquireSession();
  void ReleaseSession();
  void Reply(ReplyState& rs, uint8_t type, const std::string& payload);

  std::string HandleScan(std::string_view payload, uint8_t& type);
  std::string HandleStats() const;

  ServeConfig config_;
  std::shared_ptr<MemoryStore> store_;

  std::mutex session_mu_;
  std::condition_variable session_cv_;
  size_t active_sessions_ = 0;
  bool aborting_ = false;  // session waiters bail out

  // The watchdog runs only with a request deadline configured, from the
  // first connection on.
  std::mutex pending_mu_;
  std::vector<Pending> pending_;
  std::atomic<bool> watchdog_stop_{false};
  std::thread watchdog_thread_;

  mutable std::mutex stats_mu_;
  ScanStats last_stats_;
};

}  // namespace refscan

#endif  // REFSCAN_SERVE_SERVE_H_
