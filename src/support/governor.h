// Cooperative resource governor (DESIGN.md §5.9).
//
// The per-file budget of the scan pipeline is a wall-clock deadline
// (ScanOptions::file_timeout_ms); the input caps are constants of the code
// they guard (DESIGN.md §5.15). An overrun raises DeadlineExceeded, which
// the engine's per-file sandboxes convert into a quarantined FileFailure of
// kind kResourceLimit — no thread is ever killed, so locks, caches and the
// thread pool stay healthy.
//
// The deadline is thread-local: the sandbox running one file's parse or
// checking installs a ScopedDeadline, and the long loops underneath
// (parser statements, CFG lowering, per-function checking, template
// matching) poll it with CheckDeadline. Polls amortise the clock read over
// 8 calls; with the deadline disarmed a poll is one thread-local flag test.
//
// Deadlines nest and follow their work. A ScopedDeadline inside another
// keeps the sooner of the two, so a file's budget can shorten an enclosing
// request deadline (`refscan serve --request-timeout-ms`) but never extend
// it. A ParallelFor batch runs every member, on whichever thread, under the
// deadline of the thread that started it (threadpool.h).

#ifndef REFSCAN_SUPPORT_GOVERNOR_H_
#define REFSCAN_SUPPORT_GOVERNOR_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace refscan {

// A file overran its deadline. Quarantined as FailureKind::kResourceLimit.
class DeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// One thread's deadline. ParallelFor copies its starter's onto every
// member of the batch.
struct DeadlineState {
  std::chrono::steady_clock::time_point deadline{};
  bool armed = false;
  uint32_t tick = 0;
};

namespace governor_detail {

// constinit: a constant-initialized thread_local needs no TLS init wrapper
// on access (GCC 12's UBSan also misreads the wrapper's store as a store
// through a null pointer).
extern constinit thread_local DeadlineState g_deadline;

[[noreturn]] void ThrowDeadlineExceeded(const char* where);

}  // namespace governor_detail

// Installs a wall-clock budget for the current thread, or keeps the
// enclosing armed deadline when that one is sooner; 0 inherits the
// enclosing state. The enclosing state is restored on destruction.
class ScopedDeadline {
 public:
  explicit ScopedDeadline(uint32_t budget_ms) : saved_(governor_detail::g_deadline) {
    if (budget_ms > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
      governor_detail::g_deadline = DeadlineState{
          saved_.armed ? std::min(saved_.deadline, deadline) : deadline, true, 0};
    }
  }
  // Runs the current thread under `carried`, the state of the thread that
  // handed it work.
  explicit ScopedDeadline(const DeadlineState& carried) : saved_(governor_detail::g_deadline) {
    governor_detail::g_deadline = carried;
  }
  ~ScopedDeadline() { governor_detail::g_deadline = saved_; }

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  DeadlineState saved_;
};

// The current thread's deadline, to carry onto a thread working for it.
inline DeadlineState CurrentDeadline() { return governor_detail::g_deadline; }

// True when the current thread's deadline is armed and has passed.
inline bool DeadlinePassed() {
  const auto& st = governor_detail::g_deadline;
  return st.armed && std::chrono::steady_clock::now() >= st.deadline;
}

// Throws DeadlineExceeded when the deadline has already passed, reading the
// clock on every call. A sandbox calls it once as it opens, so work whose
// time is spent never starts.
void CheckDeadlineNow();

// Cooperative poll. `where` names the loop for the diagnostic ("parser",
// "cfg", "checker", "matcher").
inline void CheckDeadline(const char* where) {
  auto& st = governor_detail::g_deadline;
  if (!st.armed) {
    return;
  }
  if ((++st.tick & 7u) != 0) {
    return;
  }
  if (std::chrono::steady_clock::now() >= st.deadline) {
    governor_detail::ThrowDeadlineExceeded(where);
  }
}

}  // namespace refscan

#endif  // REFSCAN_SUPPORT_GOVERNOR_H_
