// Unit tests for the runtime substrate: step accounting, padding, barrier,
// thread harness.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ruco/runtime/padded.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/runtime/thread_harness.h"

namespace ruco::runtime {
namespace {

TEST(StepCount, ScopeMeasuresTicks) {
  Shared<int> cell{0};
  StepScope scope;
  EXPECT_EQ(scope.taken(), 0u);
  cell.store(1);
  cell.store(2);
  (void)cell.load();
  EXPECT_EQ(scope.taken(), 3u);
}

TEST(StepCount, ScopesNest) {
  Shared<int> cell{0};
  StepScope outer;
  cell.store(1);
  {
    StepScope inner;
    (void)cell.load();
    (void)cell.load();
    EXPECT_EQ(inner.taken(), 2u);
  }
  EXPECT_EQ(outer.taken(), 3u);
}

TEST(StepCount, PerThreadIsolation) {
  Shared<int> cell{0};
  cell.store(1);
  const std::uint64_t mine = thread_steps();
  std::uint64_t theirs = 0;
  std::thread t{[&theirs, &cell] {
    theirs = thread_steps();  // fresh thread: zero
    cell.store(2);
  }};
  t.join();
  EXPECT_EQ(theirs, 0u);
  EXPECT_EQ(thread_steps(), mine);  // their step did not leak here
}

TEST(Shared, EveryOperationIsOneStep) {
  Shared<std::int64_t> cell{5};
  const auto one_step = [](auto&& op) {
    StepScope scope;
    op();
    return scope.taken();
  };
  EXPECT_EQ(one_step([&] { EXPECT_EQ(cell.load(), 5); }), 1u);
  EXPECT_EQ(one_step([&] { cell.store(6, std::memory_order_release); }), 1u);
  EXPECT_EQ(one_step([&] { EXPECT_EQ(cell.fetch_add(1), 6); }), 1u);
  std::int64_t expected = 7;
  EXPECT_EQ(one_step([&] {
              EXPECT_TRUE(cell.compare_exchange_strong(expected, 8));
            }),
            1u);
  expected = 0;
  EXPECT_EQ(one_step([&] {  // a failed CAS is a step too
              EXPECT_FALSE(cell.compare_exchange_strong(
                  expected, 9, std::memory_order_acq_rel,
                  std::memory_order_acquire));
            }),
            1u);
  EXPECT_EQ(expected, 8);
  expected = 0;
  EXPECT_EQ(one_step([&] {
              EXPECT_FALSE(cell.compare_exchange_weak(
                  expected, 9, std::memory_order_release));
            }),
            1u);
  EXPECT_EQ(cell.load(std::memory_order_relaxed), 8);
}

TEST(Shared, SetupCopiesAreNotSteps) {
  StepScope scope;
  Shared<int> a{3};
  Shared<int> b{a};
  b = a;
  std::vector<PaddedShared<int>> cells(8, PaddedShared<int>{4});
  cells.assign(16, PaddedShared<int>{5});
  std::vector<Shared<std::uint8_t>> switches(64);
  EXPECT_EQ(scope.taken(), 0u);
  EXPECT_EQ(b.load(), 3);
  EXPECT_EQ(cells[15].load(), 5);
  EXPECT_EQ(switches[63].load(), 0);
}

TEST(Shared, PaddedFormFillsACacheLineAndSwitchesStayOneByte) {
  static_assert(sizeof(PaddedShared<std::int64_t>) == kCacheLine);
  static_assert(alignof(PaddedShared<std::int64_t>) == kCacheLine);
  static_assert(sizeof(PaddedShared<std::uint8_t>) == kCacheLine);
  static_assert(sizeof(Shared<std::uint8_t>) == 1);
  std::vector<PaddedShared<std::int64_t>> v(2);
  const auto a = reinterpret_cast<std::uintptr_t>(&v[0]);
  const auto b = reinterpret_cast<std::uintptr_t>(&v[1]);
  EXPECT_GE(b - a, kCacheLine);
}

TEST(Padded, EachAtomicOnOwnCacheLine) {
  static_assert(sizeof(PaddedAtomic<std::int64_t>) == kCacheLine);
  static_assert(alignof(PaddedAtomic<std::int64_t>) == kCacheLine);
  std::vector<PaddedAtomic<std::int64_t>> v(4, PaddedAtomic<std::int64_t>{7});
  for (const auto& cell : v) EXPECT_EQ(cell.value.load(), 7);
  const auto a = reinterpret_cast<std::uintptr_t>(&v[0]);
  const auto b = reinterpret_cast<std::uintptr_t>(&v[1]);
  EXPECT_GE(b - a, kCacheLine);
}

TEST(SpinBarrier, ReleasesAllParties) {
  constexpr std::size_t kParties = 4;
  SpinBarrier barrier{kParties};
  std::atomic<int> before{0};
  std::atomic<int> after{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kParties; ++i) {
    threads.emplace_back([&] {
      before.fetch_add(1);
      barrier.arrive_and_wait();
      // Everyone must have arrived before anyone proceeds.
      EXPECT_EQ(before.load(), static_cast<int>(kParties));
      after.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(after.load(), static_cast<int>(kParties));
}

TEST(SpinBarrier, Reusable) {
  constexpr std::size_t kParties = 3;
  SpinBarrier barrier{kParties};
  std::atomic<int> phase_sum{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kParties; ++i) {
    threads.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        barrier.arrive_and_wait();
        phase_sum.fetch_add(1);
        barrier.arrive_and_wait();
        // Between the two barriers every party bumped exactly once per
        // round.
        EXPECT_EQ(phase_sum.load() % static_cast<int>(kParties), 0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(phase_sum.load(), 15);
}

TEST(RunThreads, PassesDistinctIndices) {
  std::vector<std::atomic<int>> hits(8);
  run_threads(8, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunThreads, ZeroAndOneThreadShortcuts) {
  run_threads(0, [](std::size_t) { FAIL() << "body must not run"; });
  int calls = 0;
  run_threads(1, [&calls](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(Watchdog, FastWorkersCompleteInTime) {
  std::vector<std::atomic<int>> hits(4);
  WatchdogOptions watchdog;
  watchdog.deadline = std::chrono::milliseconds{10'000};
  const auto result = run_threads(
      4, [&hits](std::size_t i) { hits[i].fetch_add(1); }, watchdog);
  EXPECT_TRUE(result.completed_in_time);
  EXPECT_TRUE(result.hang.stuck.empty());
  EXPECT_TRUE(result.hang.diagnostic.empty());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Watchdog, ZeroDeadlineDisablesSupervision) {
  std::vector<std::atomic<int>> hits(3);
  const auto result = run_threads(
      3, [&hits](std::size_t i) { hits[i].fetch_add(1); }, WatchdogOptions{});
  EXPECT_TRUE(result.completed_in_time);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Watchdog, NamesTheStuckThread) {
  // Thread 1 blocks until released; the watchdog must fire, name exactly
  // thread 1, and the on_hang handler releases it so joins still succeed
  // (no detached threads, CP.25).
  std::atomic<bool> release{false};
  HangReport seen;
  std::atomic<int> hang_calls{0};
  WatchdogOptions watchdog;
  watchdog.deadline = std::chrono::milliseconds{500};
  watchdog.on_hang = [&](const HangReport& report) {
    seen = report;
    hang_calls.fetch_add(1);
    release.store(true, std::memory_order_release);
  };
  const auto result = run_threads(
      3,
      [&release](std::size_t i) {
        if (i == 1) {
          while (!release.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        }
      },
      watchdog);
  EXPECT_FALSE(result.completed_in_time);
  EXPECT_EQ(hang_calls.load(), 1);
  ASSERT_EQ(seen.stuck.size(), 1u);
  EXPECT_EQ(seen.stuck[0], 1u);
  EXPECT_NE(seen.diagnostic.find("stuck thread index(es): 1"),
            std::string::npos)
      << seen.diagnostic;
  EXPECT_NE(seen.diagnostic.find("1 of 3 workers"), std::string::npos)
      << seen.diagnostic;
}

}  // namespace
}  // namespace ruco::runtime
