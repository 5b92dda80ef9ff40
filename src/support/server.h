// The Unix-socket daemon lifecycle (DESIGN.md §5.14).
//
// The resident scan service (`refscan serve`, src/serve) is a FrameServer:
// a listener, an accept thread, one thread per live connection reading
// frames in lockstep (the accept loop joins a connection's thread once it
// ends), and two ways down:
//
//   Drain  the SIGTERM path: stop accepting and unlink the socket (a
//          connect() after SIGTERM fails fast), let requests already
//          received finish and flush their replies, wake idle readers with
//          SHUT_RD (reads fail, in-flight writes still go out — no client is
//          ever left holding a half-written frame), bound the wait, and only
//          past the deadline escalate: run the subclass's Escalate() hook,
//          then SHUT_RDWR. Joins every thread either way.
//   Stop   Drain with a zero budget: tear everything down now (tests,
//          destructors).
//
// A subclass supplies ServeFrame (one request frame in, its replies out)
// and, optionally, Admit (vet a connection on the accept thread before it
// gets a thread) and Escalate (release whatever a connection thread may be
// parked on besides its socket). Connection threads call into the
// subclass, so a subclass destructor must Stop() before its members go.
//
// Counters live in the server's MetricsRegistry: handlers count into
// metrics(), and `refscan` reads the same registry for its status lines.
// The server itself keeps the gauge `server.connection_threads`: connection
// threads not yet joined, set at each launch and each join.

#ifndef REFSCAN_SUPPORT_SERVER_H_
#define REFSCAN_SUPPORT_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "src/support/ipc.h"
#include "src/support/telemetry.h"

namespace refscan {

class FrameServer {
 public:
  explicit FrameServer(std::string socket_path);
  virtual ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  // Binds the socket and starts the accept thread. False + `error` if the
  // socket is unusable.
  bool Start(std::string* error = nullptr);

  // Graceful shutdown (see the header comment). Returns true when every
  // connection finished inside `timeout_ms`, false when it escalated.
  // Idempotent: a second call, or one before Start, returns true.
  bool Drain(uint32_t timeout_ms);

  // Hard stop: Drain(0). Idempotent.
  void Stop() { Drain(0); }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 protected:
  // Serves one frame on its connection's thread, sending whatever replies
  // it owes. False closes the connection.
  virtual bool ServeFrame(int fd, uint8_t type, const std::string& payload) = 0;

  // Runs on the accept thread for each new connection, before it gets a
  // thread. False drops it (the fd closes when this returns).
  virtual bool Admit(int /*fd*/) { return true; }

  // Runs when a drain overruns its budget, before writes are cut.
  virtual void Escalate() {}

  // Connections whose thread has not finished.
  size_t live_connections() const;

 private:
  // One accepted connection and its thread. `done` flips (under mu_) when
  // the thread has closed the fd and is about to return.
  struct Connection {
    int fd = -1;
    bool done = false;
    std::thread thread;
  };

  void AcceptLoop();
  void ServeConnection(std::list<Connection>::iterator self, OwnedFd conn);
  // shutdown(2) every live connection with `how`.
  void ShutdownAll(int how);
  // Joins and forgets the connections with `done` set (all of them when
  // `all`), so the server holds one thread per live connection, not one
  // per connection it ever served.
  void JoinConnections(bool all);

  std::string socket_path_;
  OwnedFd listen_fd_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  MetricsRegistry metrics_;

  // The connections not yet joined, and a count of unfinished ones, so the
  // drain wait is a timed wait, not a thread join (std::thread cannot
  // timed-join).
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::list<Connection> connections_;
  size_t active_ = 0;
};

}  // namespace refscan

#endif  // REFSCAN_SUPPORT_SERVER_H_
