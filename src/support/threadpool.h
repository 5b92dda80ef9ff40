// Fork-join thread team and data-parallel helpers.
//
// The scan pipeline is embarrassingly parallel per file (parse, CFG/CPG
// build, checking), so the engine fans work out over a team of threads and
// merges results in a deterministic order. The one shape of parallelism in
// the codebase is a batch: `ParallelFor(pool, begin, end, fn)` over a shared
// atomic cursor, so uneven per-item cost (a 10-line header vs. a 4k-line
// source file) cannot stall the batch. The pool is the team that runs it:
//
//   * `ThreadPool(n)` owns `n - 1` parked threads; the thread calling
//     `ParallelFor`/`ParallelMap` is the n-th member, so a pool of
//     parallelism 1 spawns no threads and runs everything inline (zero
//     overhead for the serial path, and trivially sanitizer-clean).
//   * A batch wakes as many parked threads as it has items beyond the
//     caller's (at most n - 1); each joins the batch, claims iterations from
//     the cursor until it runs dry, and parks again. The caller returns once
//     every member that joined has left.
//   * Batches on one pool run one at a time. A batch started while another
//     is running on the same pool (from a second thread, or nested inside an
//     iteration) runs inline on its caller instead of waiting, so misuse
//     costs parallelism, never a deadlock or a torn batch.
//   * Every member runs the batch under the deadline of the thread that
//     started it (governor.h), so a deadline follows its work onto the team;
//     a helper gets its own deadline state back when it leaves.
//
// Iterations MAY throw: every iteration still runs, the barrier collects
// every exception, and one aggregate ParallelForError is raised after the
// batch completes — so a mid-batch throw can never leave a result vector
// partially spliced or a sibling iteration skipped. The scan pipeline
// additionally sandboxes per-file work (see engine.cc); the aggregate
// rethrow here is the backstop for internal bugs, not the primary failure
// channel.

#ifndef REFSCAN_SUPPORT_THREADPOOL_H_
#define REFSCAN_SUPPORT_THREADPOOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace refscan {

// Aggregate of every exception thrown by a ParallelFor batch. Raised only
// after all iterations have run (the barrier is never broken early), with
// the failing iterations listed in index order — deterministic at every
// thread count.
class ParallelForError : public std::runtime_error {
 public:
  ParallelForError(std::string what, std::vector<std::pair<size_t, std::string>> failures)
      : std::runtime_error(std::move(what)), failures_(std::move(failures)) {}

  // (iteration index, exception message), sorted by index.
  const std::vector<std::pair<size_t, std::string>>& failures() const { return failures_; }

 private:
  std::vector<std::pair<size_t, std::string>> failures_;
};

class ThreadPool {
 public:
  // `parallelism` = total number of threads doing work, counting the caller
  // of ParallelFor/ParallelMap; 0 means one per hardware thread.
  explicit ThreadPool(size_t parallelism = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t parallelism() const { return parallelism_; }

  // Maps a `jobs` option to an effective parallelism: 0 becomes the
  // hardware thread count, anything else is clamped to >= 1.
  static size_t ResolveJobs(size_t jobs);

 private:
  friend void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                          const std::function<void(size_t)>& fn);

  // Runs `drain` on the caller and on up to `helpers` parked threads, and
  // returns once every one of them has returned from it. False, without
  // running anything, when another batch holds the team.
  bool RunBatch(size_t helpers, const std::function<void()>& drain);
  void TeamLoop();

  size_t parallelism_ = 1;
  std::vector<std::thread> threads_;

  std::atomic<bool> busy_{false};  // a batch holds the team
  std::mutex mutex_;               // guards the fields below
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  const std::function<void()>* drain_ = nullptr;  // the running batch's work
  size_t seats_ = 0;    // parked threads the running batch still invites
  size_t running_ = 0;  // seats taken or still open and not yet finished
  bool stopping_ = false;
};

// Runs fn(i) for every i in [begin, end), spread over the pool's threads
// plus the calling thread. Iterations are claimed one at a time from a
// shared cursor, so long items load-balance; the call returns once every
// iteration has finished. fn must be safe to invoke concurrently, and runs
// under the calling thread's deadline on every thread. A throwing iteration
// does not stop the batch: every other iteration still runs, and the
// collected exceptions surface as one ParallelForError after the barrier
// (identical behaviour at parallelism 1).
void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn);

// ParallelFor that materialises fn(i) into slot i of the result vector —
// output order is index order regardless of execution order, which is what
// keeps parallel scans byte-identical to serial ones.
template <typename Fn>
auto ParallelMap(ThreadPool& pool, size_t count, const Fn& fn)
    -> std::vector<decltype(fn(size_t{0}))> {
  std::vector<decltype(fn(size_t{0}))> out(count);
  ParallelFor(pool, 0, count, [&out, &fn](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace refscan

#endif  // REFSCAN_SUPPORT_THREADPOOL_H_
