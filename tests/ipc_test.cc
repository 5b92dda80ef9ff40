// Tests for the Unix-socket frame transport (src/support/ipc) that the
// serve daemon rides on.

#include "src/support/ipc.h"

#include <csignal>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/support/faultinject.h"

namespace refscan {
namespace {

std::string TestSocketPath(const char* tag) {
  return "/tmp/refscan-ipc-test-" + std::to_string(::getpid()) + "-" + tag + ".sock";
}

TEST(IpcTest, FrameRoundTripOverSocket) {
  const std::string path = TestSocketPath("roundtrip");
  std::string error;
  OwnedFd listener = UnixListen(path, &error);
  ASSERT_TRUE(listener.valid()) << error;

  std::thread client([&] {
    OwnedFd conn = UnixConnect(path);
    ASSERT_TRUE(conn.valid());
    ASSERT_TRUE(SendFrame(conn.get(), 7, "hello frames"));
    uint8_t type = 0;
    std::string payload;
    ASSERT_EQ(RecvFrame(conn.get(), type, payload), RecvOutcome::kFrame);
    EXPECT_EQ(type, 9);
    EXPECT_EQ(payload, "reply");
  });

  OwnedFd server_conn = UnixAccept(listener.get(), 5000, &error);
  ASSERT_TRUE(server_conn.valid()) << error;
  uint8_t type = 0;
  std::string payload;
  ASSERT_EQ(RecvFrame(server_conn.get(), type, payload), RecvOutcome::kFrame);
  EXPECT_EQ(type, 7);
  EXPECT_EQ(payload, "hello frames");
  ASSERT_TRUE(SendFrame(server_conn.get(), 9, "reply"));
  client.join();
  ::unlink(path.c_str());
}

TEST(IpcTest, EmptyPayloadAndBackToBackFrames) {
  const std::string path = TestSocketPath("backtoback");
  OwnedFd listener = UnixListen(path);
  ASSERT_TRUE(listener.valid());

  std::thread client([&] {
    OwnedFd conn = UnixConnect(path);
    ASSERT_TRUE(conn.valid());
    // Several frames in a row before the peer reads any: framing must not
    // depend on lockstep reads.
    ASSERT_TRUE(SendFrame(conn.get(), 1, ""));
    ASSERT_TRUE(SendFrame(conn.get(), 2, std::string(100000, 'x')));
    ASSERT_TRUE(SendFrame(conn.get(), 3, "tail"));
  });

  OwnedFd conn = UnixAccept(listener.get(), 5000);
  ASSERT_TRUE(conn.valid());
  uint8_t type = 0;
  std::string payload;
  ASSERT_EQ(RecvFrame(conn.get(), type, payload), RecvOutcome::kFrame);
  EXPECT_EQ(type, 1);
  EXPECT_TRUE(payload.empty());
  ASSERT_EQ(RecvFrame(conn.get(), type, payload), RecvOutcome::kFrame);
  EXPECT_EQ(type, 2);
  EXPECT_EQ(payload.size(), 100000u);
  ASSERT_EQ(RecvFrame(conn.get(), type, payload), RecvOutcome::kFrame);
  EXPECT_EQ(type, 3);
  EXPECT_EQ(payload, "tail");
  client.join();
  ::unlink(path.c_str());
}

TEST(IpcTest, CleanEofAtFrameBoundaryIsClosedNotError) {
  const std::string path = TestSocketPath("eof");
  OwnedFd listener = UnixListen(path);
  ASSERT_TRUE(listener.valid());
  std::thread client([&] {
    OwnedFd conn = UnixConnect(path);
    ASSERT_TRUE(conn.valid());
    ASSERT_TRUE(SendFrame(conn.get(), 5, "last"));
    // conn closes here — a complete frame followed by EOF.
  });
  OwnedFd conn = UnixAccept(listener.get(), 5000);
  ASSERT_TRUE(conn.valid());
  client.join();
  uint8_t type = 0;
  std::string payload;
  ASSERT_EQ(RecvFrame(conn.get(), type, payload), RecvOutcome::kFrame);
  EXPECT_EQ(type, 5);
  EXPECT_EQ(RecvFrame(conn.get(), type, payload), RecvOutcome::kClosed);
  ::unlink(path.c_str());
}

TEST(IpcTest, TruncatedFrameIsErrorNotClosed) {
  const std::string path = TestSocketPath("truncated");
  OwnedFd listener = UnixListen(path);
  ASSERT_TRUE(listener.valid());
  std::thread client([&] {
    OwnedFd conn = UnixConnect(path);
    ASSERT_TRUE(conn.valid());
    // A length prefix promising 100 bytes, then EOF mid-frame.
    const char partial[] = {100, 0, 0, 0, 1, 'a', 'b'};
    ASSERT_EQ(::write(conn.get(), partial, sizeof(partial)),
              static_cast<ssize_t>(sizeof(partial)));
  });
  OwnedFd conn = UnixAccept(listener.get(), 5000);
  ASSERT_TRUE(conn.valid());
  client.join();
  uint8_t type = 0;
  std::string payload;
  std::string error;
  EXPECT_EQ(RecvFrame(conn.get(), type, payload, &error), RecvOutcome::kError);
  ::unlink(path.c_str());
}

TEST(IpcTest, OversizedLengthPrefixIsRejectedWithoutAllocating) {
  const std::string path = TestSocketPath("oversized");
  OwnedFd listener = UnixListen(path);
  ASSERT_TRUE(listener.valid());
  std::thread client([&] {
    OwnedFd conn = UnixConnect(path);
    ASSERT_TRUE(conn.valid());
    const unsigned char huge[] = {0xff, 0xff, 0xff, 0xff, 1};  // ~4 GiB claim
    ASSERT_EQ(::write(conn.get(), huge, sizeof(huge)), static_cast<ssize_t>(sizeof(huge)));
  });
  OwnedFd conn = UnixAccept(listener.get(), 5000);
  ASSERT_TRUE(conn.valid());
  client.join();
  uint8_t type = 0;
  std::string payload;
  std::string error;
  EXPECT_EQ(RecvFrame(conn.get(), type, payload, &error), RecvOutcome::kError);
  EXPECT_NE(error.find("frame"), std::string::npos) << error;
  ::unlink(path.c_str());
}

TEST(IpcTest, SendToClosedPeerFailsWithoutSignal) {
  const std::string path = TestSocketPath("epipe");
  OwnedFd listener = UnixListen(path);
  ASSERT_TRUE(listener.valid());
  OwnedFd client = UnixConnect(path);
  ASSERT_TRUE(client.valid());
  OwnedFd server_conn = UnixAccept(listener.get(), 5000);
  ASSERT_TRUE(server_conn.valid());
  server_conn.Reset();  // peer gone
  // The first send may land in the (now orphaned) buffer; keep writing
  // until the EPIPE surfaces. If MSG_NOSIGNAL were missing this would kill
  // the test process with SIGPIPE instead of returning false.
  bool failed = false;
  for (int i = 0; i < 64 && !failed; ++i) {
    failed = !SendFrame(client.get(), 1, std::string(65536, 'p'));
  }
  EXPECT_TRUE(failed);
  ::unlink(path.c_str());
}

TEST(IpcTest, AcceptTimesOutWhenNobodyConnects) {
  const std::string path = TestSocketPath("timeout");
  OwnedFd listener = UnixListen(path);
  ASSERT_TRUE(listener.valid());
  OwnedFd conn = UnixAccept(listener.get(), 50);
  EXPECT_FALSE(conn.valid());
  ::unlink(path.c_str());
}

TEST(IpcTest, ListenReplacesStaleSocketFile) {
  const std::string path = TestSocketPath("stale");
  {
    OwnedFd first = UnixListen(path);
    ASSERT_TRUE(first.valid());
  }  // closed without unlink: the socket file is now stale
  OwnedFd second = UnixListen(path);
  EXPECT_TRUE(second.valid());
  ::unlink(path.c_str());
}

TEST(BackoffTest, DelaysDoubleUpToTheCap) {
  BackoffPolicy policy;
  policy.base_delay_ms = 10;
  policy.max_delay_ms = 100;
  const std::vector<uint32_t> want = {10, 20, 40, 80, 100, 100, 100, 100};
  for (int attempt = 0; attempt < static_cast<int>(want.size()); ++attempt) {
    EXPECT_EQ(BackoffDelayMs(policy, attempt), want[attempt]) << "attempt " << attempt;
  }
  EXPECT_EQ(BackoffDelayMs(policy, 1000), 100u);  // no overflow past the cap
  policy.base_delay_ms = 0;
  EXPECT_EQ(BackoffDelayMs(policy, 3), 0u);
}

TEST(IpcFaultTest, InjectedWriteFaultTruncatesMidFrameDeterministically) {
  const std::string path = TestSocketPath("writefault");
  OwnedFd listener = UnixListen(path);
  ASSERT_TRUE(listener.valid());
  OwnedFd client = UnixConnect(path);
  ASSERT_TRUE(client.valid());
  OwnedFd server_conn = UnixAccept(listener.get(), 5000);
  ASSERT_TRUE(server_conn.valid());

  {
    ScopedFaultArm arm("ipc.write:once");
    std::string error;
    // The injected fault cuts the frame mid-payload: the sender learns it
    // failed, and the peer must see a mid-frame error, never a short but
    // "valid" frame.
    EXPECT_FALSE(SendFrame(client.get(), 7, "payload bytes", &error));
    EXPECT_NE(error.find("ipc.write"), std::string::npos) << error;
  }
  client.Reset();  // EOF after the truncated bytes
  uint8_t type = 0;
  std::string payload;
  std::string error;
  EXPECT_EQ(RecvFrame(server_conn.get(), type, payload, &error), RecvOutcome::kError);
  EXPECT_NE(error.find("mid-frame"), std::string::npos) << error;
  ::unlink(path.c_str());
}

TEST(IpcFaultTest, InjectedWriteFaultOnTinyPayloadCutsTheHeader) {
  const std::string path = TestSocketPath("writefault2");
  OwnedFd listener = UnixListen(path);
  ASSERT_TRUE(listener.valid());
  OwnedFd client = UnixConnect(path);
  ASSERT_TRUE(client.valid());
  OwnedFd server_conn = UnixAccept(listener.get(), 5000);
  ASSERT_TRUE(server_conn.valid());
  {
    ScopedFaultArm arm("ipc.write:once");
    EXPECT_FALSE(SendFrame(client.get(), 7, ""));  // nothing to halve: cut the header
  }
  client.Reset();
  uint8_t type = 0;
  std::string payload;
  EXPECT_EQ(RecvFrame(server_conn.get(), type, payload), RecvOutcome::kError);
  ::unlink(path.c_str());
}

// Signal-interrupted partial writes: a sender whose send(2) keeps getting
// cut short by EINTR must still deliver every frame intact. A tiny SO_SNDBUF
// forces short writes; a storm of SIGUSR1 at the sender thread forces EINTR
// returns while it is blocked.
TEST(IpcTest, PartialWritesUnderSignalStormDeliverIntactFrames) {
  struct sigaction sa = {};
  sa.sa_handler = [](int) {};  // no SA_RESTART: send() returns EINTR
  sigemptyset(&sa.sa_mask);
  struct sigaction old_sa = {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old_sa), 0);

  const std::string path = TestSocketPath("eintr");
  OwnedFd listener = UnixListen(path);
  ASSERT_TRUE(listener.valid());
  OwnedFd client = UnixConnect(path);
  ASSERT_TRUE(client.valid());
  const int sndbuf = 4096;
  ::setsockopt(client.get(), SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  OwnedFd server_conn = UnixAccept(listener.get(), 5000);
  ASSERT_TRUE(server_conn.valid());

  const std::string big(1 << 20, 'z');
  std::atomic<bool> done{false};
  std::thread sender([&] {
    EXPECT_TRUE(SendFrame(client.get(), 3, big));
    done.store(true);
  });
  const pthread_t sender_handle = sender.native_handle();
  std::thread pummel([&] {
    while (!done.load()) {
      ::pthread_kill(sender_handle, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  uint8_t type = 0;
  std::string payload;
  ASSERT_EQ(RecvFrame(server_conn.get(), type, payload), RecvOutcome::kFrame);
  EXPECT_EQ(type, 3);
  EXPECT_EQ(payload, big);
  sender.join();
  pummel.join();
  ::sigaction(SIGUSR1, &old_sa, nullptr);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace refscan
