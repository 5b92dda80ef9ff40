// Tests for the fork-join thread team and the ParallelFor/ParallelMap
// helpers that the scan pipeline fans out with.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/support/governor.h"
#include "src/support/threadpool.h"

namespace refscan {
namespace {

TEST(ThreadPoolTest, ResolveJobsMapsZeroToHardware) {
  const size_t hw = ThreadPool::ResolveJobs(0);
  EXPECT_GE(hw, 1u);
  EXPECT_EQ(ThreadPool::ResolveJobs(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveJobs(7), 7u);
}

TEST(ThreadPoolTest, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.parallelism(), 1u);
  // With no team threads every iteration executes in the caller.
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(8);
  ParallelFor(pool, 0, ran_on.size(), [&](size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, caller);
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(pool, 0, hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHonoursBeginOffset) {
  ThreadPool pool(3);
  std::atomic<size_t> sum{0};
  ParallelFor(pool, 10, 20, [&sum](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), size_t{145});  // 10 + 11 + ... + 19
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsANoop) {
  ThreadPool pool(2);
  bool touched = false;
  ParallelFor(pool, 5, 5, [&touched](size_t) { touched = true; });
  ParallelFor(pool, 7, 3, [&touched](size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, ParallelMapPreservesIndexOrder) {
  ThreadPool pool(8);
  const std::vector<std::string> out =
      ParallelMap(pool, 257, [](size_t i) { return std::to_string(i * 3); });
  ASSERT_EQ(out.size(), 257u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], std::to_string(i * 3));
  }
}

TEST(ThreadPoolTest, ParallelMapMatchesSerialResult) {
  ThreadPool serial(1);
  ThreadPool wide(6);
  const auto fn = [](size_t i) { return static_cast<int>(i * i % 97); };
  EXPECT_EQ(ParallelMap(serial, 500, fn), ParallelMap(wide, 500, fn));
}

TEST(ThreadPoolTest, UnevenWorkLoadBalances) {
  // A few expensive items among many cheap ones: the shared cursor hands
  // iterations out one at a time, so the batch still terminates quickly and
  // covers everything. (Correctness check, not a timing assertion.)
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  ParallelFor(pool, 0, 64, [&total](size_t i) {
    uint64_t acc = 1;
    const uint64_t spins = (i % 16 == 0) ? 200000 : 100;
    for (uint64_t k = 0; k < spins; ++k) {
      acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    total.fetch_add(acc != 0 ? 1 : 0);
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST(ThreadPoolTest, ManySmallBatchesBackToBack) {
  // Exercises the sleep/wake path: each batch is smaller than the pool, so
  // workers keep going idle and being woken.
  ThreadPool pool(8);
  std::atomic<int> count{0};
  for (int round = 0; round < 200; ++round) {
    ParallelFor(pool, 0, 2, [&count](size_t) { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 400);
}

TEST(ThreadPoolTest, ParallelForCollectsEveryExceptionAfterTheBarrier) {
  // A mid-batch throw must not stop the batch: every other iteration still
  // runs, and the aggregate error lists every failing index in order.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  try {
    ParallelFor(pool, 0, hits.size(), [&hits](size_t i) {
      hits[i].fetch_add(1);
      if (i % 10 == 3) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected ParallelForError";
  } catch (const ParallelForError& e) {
    ASSERT_EQ(e.failures().size(), 10u);
    for (size_t k = 0; k < e.failures().size(); ++k) {
      EXPECT_EQ(e.failures()[k].first, k * 10 + 3);
      EXPECT_EQ(e.failures()[k].second, "boom " + std::to_string(k * 10 + 3));
    }
  }
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i << " was skipped by a sibling's throw";
  }
}

TEST(ThreadPoolTest, ParallelForExceptionSemanticsIdenticalAtParallelismOne) {
  ThreadPool pool(1);
  int ran = 0;
  try {
    ParallelFor(pool, 0, 5, [&ran](size_t i) {
      ++ran;
      if (i == 1 || i == 4) {
        throw std::runtime_error("serial boom");
      }
    });
    FAIL() << "expected ParallelForError";
  } catch (const ParallelForError& e) {
    ASSERT_EQ(e.failures().size(), 2u);
    EXPECT_EQ(e.failures()[0].first, 1u);
    EXPECT_EQ(e.failures()[1].first, 4u);
  }
  EXPECT_EQ(ran, 5);  // the throw at index 1 did not cut the serial loop short
}

TEST(ThreadPoolTest, ParallelMapNeverPartiallySpliced) {
  // Regression: a throwing iteration used to be able to abandon a batch,
  // leaving default-constructed holes in the ParallelMap result. Now the
  // whole vector is filled before the aggregate error surfaces.
  ThreadPool pool(8);
  std::vector<std::string> out;
  try {
    out = ParallelMap(pool, 64, [](size_t i) -> std::string {
      if (i == 17) {
        throw std::runtime_error("shard failure");
      }
      return "v" + std::to_string(i);
    });
    FAIL() << "expected ParallelForError";
  } catch (const ParallelForError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.failures()[0].first, 17u);
  }
}

TEST(ThreadPoolTest, NonStdExceptionsAreCollectedToo) {
  ThreadPool pool(2);
  try {
    ParallelFor(pool, 0, 3, [](size_t i) {
      if (i == 2) {
        throw 42;  // not derived from std::exception
      }
    });
    FAIL() << "expected ParallelForError";
  } catch (const ParallelForError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.failures()[0].first, 2u);
    EXPECT_EQ(e.failures()[0].second, "unknown exception");
  }
}

TEST(ThreadPoolTest, NestedAndConcurrentBatchesOnOnePoolRunInline) {
  // Batches on one pool run one at a time: a batch started while the team
  // is busy (nested in an iteration, or from a second thread) drains on its
  // own caller instead of deadlocking or tearing the running batch.
  ThreadPool pool(4);
  std::atomic<uint64_t> inner{0};
  std::atomic<uint64_t> outer{0};
  ParallelFor(pool, 0, 8, [&](size_t i) {
    outer.fetch_add(i);
    ParallelFor(pool, 0, 10, [&inner](size_t j) { inner.fetch_add(j); });
  });
  EXPECT_EQ(outer.load(), 28u);
  EXPECT_EQ(inner.load(), 8u * 45u);

  std::atomic<uint64_t> a{0};
  std::atomic<uint64_t> b{0};
  std::thread other([&] {
    for (int round = 0; round < 50; ++round) {
      ParallelFor(pool, 0, 100, [&b](size_t i) { b.fetch_add(i); });
    }
  });
  for (int round = 0; round < 50; ++round) {
    ParallelFor(pool, 0, 100, [&a](size_t i) { a.fetch_add(i); });
  }
  other.join();
  EXPECT_EQ(a.load(), 50u * 4950u);
  EXPECT_EQ(b.load(), 50u * 4950u);
}

TEST(ThreadPoolTest, ConcurrentPoolsDoNotInterfere) {
  // Two pools driven from two threads at once — the shape of the parallel
  // scan stress test, at the pool level.
  std::atomic<uint64_t> a{0};
  std::atomic<uint64_t> b{0};
  std::thread ta([&a] {
    ThreadPool pool(4);
    ParallelFor(pool, 0, 500, [&a](size_t i) { a.fetch_add(i); });
  });
  std::thread tb([&b] {
    ThreadPool pool(4);
    ParallelFor(pool, 0, 500, [&b](size_t i) { b.fetch_add(i); });
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.load(), size_t{124750});
  EXPECT_EQ(b.load(), size_t{124750});
}

// A batch runs under the deadline of the thread that started it, whichever
// member claims an iteration: under an expired one every iteration trips,
// and a batch started disarmed never does.
TEST(ThreadPoolTest, BatchMembersRunUnderTheStartersDeadline) {
  ThreadPool pool(4);
  constexpr size_t kIterations = 64;
  std::mutex mu;
  std::condition_variable joined;
  std::set<std::thread::id> members;
  const auto poll = [&](size_t) {
    {
      // Hold each iteration until a second member has joined, so the batch
      // provably spans threads.
      std::unique_lock<std::mutex> lock(mu);
      members.insert(std::this_thread::get_id());
      joined.notify_all();
      joined.wait_for(lock, std::chrono::seconds(10), [&] { return members.size() > 1; });
    }
    for (int k = 0; k < 8; ++k) {
      CheckDeadline("test");  // eight polls: the amortised clock read lands in one
    }
  };
  {
    const ScopedDeadline expired(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(DeadlinePassed());
    try {
      ParallelFor(pool, 0, kIterations, poll);
      ADD_FAILURE() << "a batch under an expired deadline must trip";
    } catch (const ParallelForError& e) {
      EXPECT_EQ(e.failures().size(), kIterations);
    }
  }
  EXPECT_GT(members.size(), 1u);
  EXPECT_FALSE(CurrentDeadline().armed);
  EXPECT_NO_THROW(ParallelFor(pool, 0, kIterations, poll));
}

}  // namespace
}  // namespace refscan
