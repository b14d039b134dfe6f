// Step accounting for the production (std::atomic) layer.
//
// The paper's complexity measure is the number of *shared-memory events*
// (read / write / CAS applications to base objects) an operation issues --
// not wall-clock time.  Every base object of ruco's production algorithms
// is a Shared<T> (or its cache-line-padded form PaddedShared<T>): a
// std::atomic<T> whose every access counts one step for the calling thread.
// The rule therefore lives here, in one type, and no protocol line repeats
// it.  StepScope then measures the exact number of events a single
// operation issued, which is what the step-complexity benchmarks report.
//
// What is not a step:
//   * copies and assignments of a cell, which happen only while building an
//     object (vector fill, initial views) -- setup, not an event;
//   * state outside the model, which stays a plain std::atomic /
//     runtime::PaddedAtomic: process-private bookkeeping (local counts,
//     sequence numbers), lazy allocation, the telemetry slabs.
//
// The counter is thread-local, so instrumentation is race-free and costs one
// TLS increment per event; that is cheap enough to leave enabled in release
// builds (throughput benchmarks measure it at well under a nanosecond).
// Code that runs the protocol templates over other cells (the RC11 checker's
// wmm::Atomic) counts nothing.
#pragma once

#include <atomic>
#include <cstdint>

#include "ruco/runtime/padded.h"

namespace ruco::runtime {

namespace detail {
inline thread_local std::uint64_t tls_steps = 0;

/// Records one shared-memory event by the calling thread.
inline void step_tick() noexcept { ++tls_steps; }
}  // namespace detail

/// Total shared-memory events recorded by the calling thread so far.
[[nodiscard]] inline std::uint64_t thread_steps() noexcept {
  return detail::tls_steps;
}

/// Measures the number of shared-memory events issued between construction
/// and taken()/destruction on the current thread.
class StepScope {
 public:
  StepScope() noexcept : start_{detail::tls_steps} {}

  /// Events issued since construction.
  [[nodiscard]] std::uint64_t taken() const noexcept {
    return detail::tls_steps - start_;
  }

 private:
  std::uint64_t start_;
};

/// A base object of the paper's model: the std::atomic surface the
/// algorithms use, with the same memory-order parameters and seq_cst
/// defaults, where every access -- a failed CAS included -- is one step.
/// Unpadded, so one-bit switch arrays stay one byte per switch.
template <typename T>
class Shared {
 public:
  Shared() noexcept = default;
  explicit Shared(T init) noexcept : cell_{init} {}

  // Setup only (vector fill, assign): relaxed and not a step.
  Shared(const Shared& other) noexcept
      : cell_{other.cell_.load(std::memory_order_relaxed)} {}
  Shared& operator=(const Shared& other) noexcept {
    cell_.store(other.cell_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  T load(std::memory_order mo = std::memory_order_seq_cst) const noexcept {
    detail::step_tick();
    return cell_.load(mo);
  }

  void store(T v, std::memory_order mo = std::memory_order_seq_cst) noexcept {
    detail::step_tick();
    cell_.store(v, mo);
  }

  /// `orders` is none, one, or (success, failure), as for std::atomic.
  template <typename... Orders>
  bool compare_exchange_strong(T& expected, T desired,
                               Orders... orders) noexcept {
    detail::step_tick();
    return cell_.compare_exchange_strong(expected, desired, orders...);
  }

  template <typename... Orders>
  bool compare_exchange_weak(T& expected, T desired,
                             Orders... orders) noexcept {
    detail::step_tick();
    return cell_.compare_exchange_weak(expected, desired, orders...);
  }

  T fetch_add(T arg,
              std::memory_order mo = std::memory_order_seq_cst) noexcept {
    detail::step_tick();
    return cell_.fetch_add(arg, mo);
  }

 private:
  std::atomic<T> cell_{};
};

/// A Shared<T> alone on its cache line: tree nodes and per-process cells
/// that different threads hit concurrently.
template <typename T>
struct alignas(kCacheLine) PaddedShared : Shared<T> {
  using Shared<T>::Shared;
};

}  // namespace ruco::runtime
