// Unix-domain socket transport with length-prefixed frames (DESIGN.md
// §5.14).
//
// The resident scan service (`refscan serve`, src/serve) rides on this one
// primitive. It speaks a trivially parseable wire format — one frame is
//
//   [u32 payload length, little-endian] [u8 type] [payload bytes]
//
// — and the daemon, ScanServer (src/serve/serve.h), sits on top of it.
// Payload encoding is the cache layer's
// ByteWriter/ByteReader format (src/cache/serial.h): every length
// bounds-checked, corruption degrades to a protocol error, never UB.
//
// Error model: every call reports failure through a bool + optional
// std::string* out-param instead of throwing. Peers dying mid-conversation
// are an expected event (a client that hangs up must cost its own request,
// not the daemon), so sends use MSG_NOSIGNAL — a closed peer yields EPIPE,
// not a process-killing SIGPIPE — and receives treat a clean EOF at a frame
// boundary as its own distinct outcome (RecvOutcome::kClosed).

#ifndef REFSCAN_SUPPORT_IPC_H_
#define REFSCAN_SUPPORT_IPC_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace refscan {

// Owns a file descriptor; closes it on destruction. Moveable, not copyable.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Reset(); }

  OwnedFd(OwnedFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Reset();

 private:
  int fd_ = -1;
};

// Frames larger than this are rejected on both send and receive: a garbage
// length prefix (corrupt peer, wrong protocol) must fail fast instead of
// provoking a multi-gigabyte allocation. 1 GiB comfortably covers a scan
// request carrying a kernel-sized tree.
inline constexpr uint32_t kMaxFrameBytes = 1u << 30;

// Creates, binds and listens on a Unix-domain stream socket at `path`
// (unlinking any stale socket file first). Returns an invalid OwnedFd and
// fills `error` on failure. `path` must fit sockaddr_un (~107 bytes).
OwnedFd UnixListen(const std::string& path, std::string* error = nullptr);

// Connects to the Unix-domain socket at `path`.
OwnedFd UnixConnect(const std::string& path, std::string* error = nullptr);

// Bounded retry policy for the `scan --remote` client (RemoteScan, which
// retries its whole exchange): capped exponential backoff between attempts.
// attempts <= 1 means a single try, no sleeping.
struct BackoffPolicy {
  int attempts = 5;
  uint32_t base_delay_ms = 10;  // delay before the first retry
  uint32_t max_delay_ms = 500;  // exponential growth cap
};

// Delay before retry number `attempt` (0-based: the sleep between the first
// failed try and the second): base_delay_ms doubled `attempt` times, capped
// at max_delay_ms. Exposed for tests.
uint32_t BackoffDelayMs(const BackoffPolicy& policy, int attempt);

// Accepts one connection, waiting at most `timeout_ms` (0 = block forever).
// Returns an invalid fd on timeout or error.
OwnedFd UnixAccept(int listen_fd, int timeout_ms, std::string* error = nullptr);

// Writes one complete frame (length prefix + type byte + payload), looping
// over partial writes. Returns false on any error, including a peer that
// closed the connection (EPIPE — mapped from MSG_NOSIGNAL, never a signal).
bool SendFrame(int fd, uint8_t type, std::string_view payload, std::string* error = nullptr);

enum class RecvOutcome {
  kFrame,   // a complete frame was read
  kClosed,  // clean EOF before any byte of a new frame — peer finished
  kError,   // short read mid-frame, oversized length, or a socket error
};

// Reads one complete frame. `type` and `payload` are only valid on kFrame.
RecvOutcome RecvFrame(int fd, uint8_t& type, std::string& payload,
                      std::string* error = nullptr);

}  // namespace refscan

#endif  // REFSCAN_SUPPORT_IPC_H_
