#include "src/support/threadpool.h"

#include <algorithm>

#include "src/support/governor.h"
#include "src/support/telemetry.h"

namespace refscan {

size_t ThreadPool::ResolveJobs(size_t jobs) {
  if (jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
  }
  return jobs;
}

ThreadPool::ThreadPool(size_t parallelism) : parallelism_(ResolveJobs(parallelism)) {
  threads_.reserve(parallelism_ - 1);
  for (size_t i = 1; i < parallelism_; ++i) {
    threads_.emplace_back([this] { TeamLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

bool ThreadPool::RunBatch(size_t helpers, const std::function<void()>& drain) {
  if (busy_.exchange(true, std::memory_order_acquire)) {
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    drain_ = &drain;
    seats_ = helpers;
    running_ = helpers;
  }
  wake_cv_.notify_all();
  drain();  // the calling thread is a team member too
  {
    // The cursor is dry: a seat nobody has taken yet would only find it
    // empty, so revoke it rather than wait for a thread to wake into it.
    std::unique_lock<std::mutex> lock(mutex_);
    running_ -= seats_;
    seats_ = 0;
    done_cv_.wait(lock, [this] { return running_ == 0; });
    drain_ = nullptr;
  }
  busy_.store(false, std::memory_order_release);
  return true;
}

void ThreadPool::TeamLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_cv_.wait(lock, [this] { return stopping_ || seats_ > 0; });
    if (stopping_) {
      return;
    }
    --seats_;
    const std::function<void()>& drain = *drain_;
    lock.unlock();
    // Worker utilization: busy nanoseconds accumulate only while a session
    // is armed (no clock reads otherwise). Utilization = busy_ns /
    // (threads × wall time), computed by whoever reads the metrics.
    if (Telemetry* t = CurrentTelemetry()) {
      const uint64_t start = t->NowNs();
      drain();
      t->metrics().Counter("sched.worker_busy_ns").Add(t->NowNs() - start);
    } else {
      drain();
    }
    lock.lock();
    // The batch's drain function lives on its caller's stack: this is the
    // last touch of it, and the caller cannot return before running_ is 0.
    if (--running_ == 0) {
      done_cv_.notify_one();
    }
  }
}

namespace {

// Shared coordination block for one ParallelFor batch, on the caller's
// stack: RunBatch does not return before every member has left the batch.
struct ForBatch {
  std::atomic<size_t> cursor{0};
  // Exceptions thrown by iterations, collected under `mutex`; rethrown as
  // one aggregate only after the barrier, so a throw can never skip sibling
  // iterations or leave the caller's output vector partially filled.
  std::mutex mutex;
  std::vector<std::pair<size_t, std::string>> errors;
};

void RunIteration(ForBatch& batch, const std::function<void(size_t)>& fn, size_t i) {
  try {
    fn(i);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(batch.mutex);
    batch.errors.emplace_back(i, e.what());
  } catch (...) {
    std::lock_guard<std::mutex> lock(batch.mutex);
    batch.errors.emplace_back(i, "unknown exception");
  }
}

}  // namespace

void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn) {
  if (begin >= end) {
    return;
  }
  const size_t count = end - begin;
  ForBatch batch;
  batch.cursor.store(begin, std::memory_order_relaxed);
  // Every member works under the deadline of the thread that started the
  // batch, and gets its own back when it leaves.
  const DeadlineState deadline = CurrentDeadline();
  // Iterations are claimed one at a time from the shared cursor, so a few
  // expensive items cannot serialise the batch behind one member.
  const std::function<void()> drain = [&batch, end, &fn, &deadline] {
    const ScopedDeadline carried(deadline);
    for (size_t i; (i = batch.cursor.fetch_add(1, std::memory_order_relaxed)) < end;) {
      RunIteration(batch, fn, i);
    }
  };
  // The serial path (parallelism 1, a one-item batch, or a team busy with
  // another batch) drains on the caller alone, with the same
  // complete-the-batch-then-throw semantics.
  const size_t helpers = std::min(pool.parallelism(), count) - 1;
  if (helpers == 0 || !pool.RunBatch(helpers, drain)) {
    drain();
  }
  if (!batch.errors.empty()) {
    std::sort(batch.errors.begin(), batch.errors.end());
    std::string what = "parallel-for: " + std::to_string(batch.errors.size()) + " of " +
                       std::to_string(count) + " iteration(s) threw; first at index " +
                       std::to_string(batch.errors.front().first) + ": " +
                       batch.errors.front().second;
    throw ParallelForError(std::move(what), std::move(batch.errors));
  }
}

}  // namespace refscan
