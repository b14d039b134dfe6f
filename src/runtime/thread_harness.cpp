#include "ruco/runtime/thread_harness.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>

#include "ruco/telemetry/metrics.h"

namespace ruco::runtime {

namespace {

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-phase accounting: spawn/barrier setup vs. time inside the
/// post-barrier body (approximated by the longest worker, which is what
/// bounds the run).  Telemetry only -- the harness semantics are untouched.
struct HarnessTiming {
  explicit HarnessTiming(std::size_t count) : start_us(now_us()) {
    const auto& tm = telemetry::prod();
    tm.harness_runs.inc();
    tm.harness_threads.add(count);
  }
  void body_started() { body_start_us = now_us(); }
  ~HarnessTiming() {
    const std::uint64_t end = now_us();
    const auto& tm = telemetry::prod();
    tm.harness_wall_us.add(end - start_us);
    if (body_start_us != 0) tm.harness_body_us.add(end - body_start_us);
  }
  std::uint64_t start_us = 0;
  std::uint64_t body_start_us = 0;
};

}  // namespace

void run_threads(std::size_t count,
                 const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  HarnessTiming timing{count};
  if (count == 1) {
    timing.body_started();
    body(0);
    return;
  }
  SpinBarrier barrier{count};
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads.emplace_back([&barrier, &body, &timing, i] {
      barrier.arrive_and_wait();
      if (i == 0) timing.body_started();
      body(i);
    });
  }
  for (auto& t : threads) t.join();
}

RunThreadsResult run_threads(std::size_t count,
                             const std::function<void(std::size_t)>& body,
                             const WatchdogOptions& watchdog) {
  RunThreadsResult result;
  if (watchdog.deadline.count() <= 0) {
    run_threads(count, body);
    return result;
  }
  if (count == 0) return result;
  HarnessTiming timing{count};
  // Workers flag completion individually so the watchdog can name exactly
  // which thread is stuck, not just that some thread is.
  const auto finished_flags =
      std::make_unique<std::atomic<bool>[]>(count);
  for (std::size_t i = 0; i < count; ++i) finished_flags[i].store(false);
  std::atomic<std::size_t> finished{0};
  SpinBarrier barrier{count};
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads.emplace_back([&, i] {
      barrier.arrive_and_wait();
      if (i == 0) timing.body_started();
      body(i);
      finished_flags[i].store(true, std::memory_order_release);
      finished.fetch_add(1, std::memory_order_acq_rel);
    });
  }

  const auto deadline_at = std::chrono::steady_clock::now() + watchdog.deadline;
  while (finished.load(std::memory_order_acquire) < count &&
         std::chrono::steady_clock::now() < deadline_at) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  if (finished.load(std::memory_order_acquire) < count) {
    result.completed_in_time = false;
    for (std::size_t i = 0; i < count; ++i) {
      if (!finished_flags[i].load(std::memory_order_acquire)) {
        result.hang.stuck.push_back(i);
      }
    }
    std::ostringstream diag;
    diag << "run_threads watchdog: deadline of " << watchdog.deadline.count()
         << " ms passed with " << result.hang.stuck.size() << " of " << count
         << " workers still running; stuck thread index(es):";
    for (const std::size_t i : result.hang.stuck) diag << ' ' << i;
    result.hang.diagnostic = diag.str();
    if (watchdog.on_hang) {
      watchdog.on_hang(result.hang);
    } else {
      // No handler: a hung worker cannot be joined safely, so fail loudly
      // with the culprit named rather than hang CI forever.
      std::fprintf(stderr, "%s\n", result.hang.diagnostic.c_str());
      std::abort();
    }
  }
  // A custom on_hang handler is responsible for unblocking the workers;
  // joining here keeps the no-detached-threads guarantee.
  for (auto& t : threads) t.join();
  return result;
}

}  // namespace ruco::runtime
