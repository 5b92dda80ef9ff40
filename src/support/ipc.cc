#include "src/support/ipc.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/support/faultinject.h"

namespace refscan {

namespace {

void SetError(std::string* error, const char* what) {
  if (error != nullptr) {
    *error = std::string(what) + ": " + std::strerror(errno);
  }
}

bool FillAddr(const std::string& path, sockaddr_un& addr, std::string* error) {
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) {
      *error = "socket path too long: " + path;
    }
    return false;
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

// Writes all of `data`, looping over partial writes and EINTR. MSG_NOSIGNAL:
// a dead peer must surface as EPIPE, not kill the process.
bool SendAll(int fd, const char* data, size_t size, std::string* error) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      SetError(error, "send");
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Reads exactly `size` bytes. Returns 1 on success, 0 on clean EOF before
// the first byte, -1 on error (including EOF mid-buffer).
int RecvAll(int fd, char* data, size_t size, std::string* error) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      SetError(error, "recv");
      return -1;
    }
    if (n == 0) {
      if (got == 0) {
        return 0;
      }
      if (error != nullptr) {
        *error = "connection closed mid-frame";
      }
      return -1;
    }
    got += static_cast<size_t>(n);
  }
  return 1;
}

}  // namespace

void OwnedFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

OwnedFd UnixListen(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!FillAddr(path, addr, error)) {
    return OwnedFd();
  }
  OwnedFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    SetError(error, "socket");
    return OwnedFd();
  }
  ::unlink(path.c_str());  // a stale socket file from a dead server
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    SetError(error, "bind");
    return OwnedFd();
  }
  if (::listen(fd.get(), 64) != 0) {
    SetError(error, "listen");
    return OwnedFd();
  }
  return fd;
}

OwnedFd UnixConnect(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!FillAddr(path, addr, error)) {
    return OwnedFd();
  }
  OwnedFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    SetError(error, "socket");
    return OwnedFd();
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    SetError(error, "connect");
    return OwnedFd();
  }
  return fd;
}

uint32_t BackoffDelayMs(const BackoffPolicy& policy, int attempt) {
  uint64_t delay = policy.base_delay_ms;
  for (int i = 0; i < attempt && delay < policy.max_delay_ms; ++i) {
    delay *= 2;
  }
  return static_cast<uint32_t>(std::min<uint64_t>(delay, policy.max_delay_ms));
}

OwnedFd UnixAccept(int listen_fd, int timeout_ms, std::string* error) {
  if (timeout_ms > 0) {
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    int rc;
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      SetError(error, "poll");
      return OwnedFd();
    }
    if (rc == 0) {
      if (error != nullptr) {
        *error = "accept timed out";
      }
      return OwnedFd();
    }
  }
  OwnedFd fd(::accept(listen_fd, nullptr, nullptr));
  if (!fd.valid()) {
    SetError(error, "accept");
  }
  return fd;
}

bool SendFrame(int fd, uint8_t type, std::string_view payload, std::string* error) {
  if (payload.size() > kMaxFrameBytes) {
    if (error != nullptr) {
      *error = "frame payload too large";
    }
    return false;
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  char header[5];
  header[0] = static_cast<char>(len & 0xff);
  header[1] = static_cast<char>((len >> 8) & 0xff);
  header[2] = static_cast<char>((len >> 16) & 0xff);
  header[3] = static_cast<char>((len >> 24) & 0xff);
  header[4] = static_cast<char>(type);
  // Fault site `ipc.write` (subject: decimal frame type). A fired rule cuts
  // this frame mid-write — the bytes that do go out promise more than
  // arrives, so the peer deterministically observes "connection closed
  // mid-frame" (RecvOutcome::kError) once the sender resets the socket,
  // exactly like a peer dying between write(2) calls.
  if (FaultsArmed()) {
    try {
      MaybeFault("ipc.write", std::to_string(type));
    } catch (const FaultInjected& e) {
      if (payload.size() >= 2) {
        SendAll(fd, header, sizeof(header), nullptr);
        SendAll(fd, payload.data(), payload.size() / 2, nullptr);
      } else {
        SendAll(fd, header, 3, nullptr);  // partial header: same mid-frame cut
      }
      if (error != nullptr) {
        *error = e.what();
      }
      return false;
    }
  }
  if (!SendAll(fd, header, sizeof(header), error)) {
    return false;
  }
  return payload.empty() || SendAll(fd, payload.data(), payload.size(), error);
}

RecvOutcome RecvFrame(int fd, uint8_t& type, std::string& payload, std::string* error) {
  char header[5];
  const int rc = RecvAll(fd, header, sizeof(header), error);
  if (rc == 0) {
    return RecvOutcome::kClosed;
  }
  if (rc < 0) {
    return RecvOutcome::kError;
  }
  const uint32_t len = static_cast<uint32_t>(static_cast<uint8_t>(header[0])) |
                       (static_cast<uint32_t>(static_cast<uint8_t>(header[1])) << 8) |
                       (static_cast<uint32_t>(static_cast<uint8_t>(header[2])) << 16) |
                       (static_cast<uint32_t>(static_cast<uint8_t>(header[3])) << 24);
  if (len > kMaxFrameBytes) {
    if (error != nullptr) {
      *error = "frame length " + std::to_string(len) + " exceeds limit";
    }
    return RecvOutcome::kError;
  }
  type = static_cast<uint8_t>(header[4]);
  payload.resize(len);
  if (len > 0 && RecvAll(fd, payload.data(), len, error) != 1) {
    return RecvOutcome::kError;
  }
  return RecvOutcome::kFrame;
}

}  // namespace refscan
