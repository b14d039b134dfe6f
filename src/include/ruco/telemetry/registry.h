// Production telemetry: one fixed table of event counters.
//
// The paper's whole evaluation is *counting shared-memory events*; step
// counts live in runtime/stepcount.h.  This table explains them: CAS
// attempts, failures, second rounds and skips per propagation, plus the
// thread harness's own phase timing.  Every metric in it is read by a
// harness (perfbench, bench_hw_throughput), so the set is fixed at compile
// time: `Metric` names a counter, `kMetricNames` gives its
// (domain, name) key, and every key exists from process start.
//
// Design for low overhead:
//   * Per-thread slabs: each counting thread owns one cache-line-aligned
//     slab holding one cell per metric, so no two threads ever write the
//     same line -- no contention, no false sharing.  Snapshots sum the
//     slabs.
//   * Single-writer cells need no read-modify-write: `add` is a relaxed
//     load + relaxed store of the thread's own cell, which on x86 is two
//     plain MOVs -- no lock prefix.  A snapshot tolerates a momentarily
//     stale cell, which is exactly the semantics of sampling a live system.
//   * The slab lookup is one thread_local pointer; a thread's first `add`
//     creates its slab under the registry mutex.  A slab outlives its
//     thread, so an exited worker's counts stay in every later snapshot.
//   * Compiling with -DRUCO_NO_TELEMETRY turns `add` into an empty inline
//     function, so the instrumentation can be proven free (the overhead
//     comparison is recorded in docs/OBSERVABILITY.md).  Snapshots still
//     list every metric, at 0.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "ruco/runtime/padded.h"

namespace ruco::telemetry {

enum class Metric : std::uint8_t {
  kCasAttempts,            // CASes issued by CasMaxRegister::write_max
  kCasFailures,            // ... that lost the race
  kPropagateCasAttempts,   // CASes actually issued by propagate_twice
  kPropagateCasFailures,   // ... that lost the race
  kPropagateLevels,        // tree levels walked by propagate_twice
  kPropagateSecondRounds,  // levels whose first refresh lost its CAS
  kPropagateCasSkips,      // pure-load levels (combine == node value)
  kTreeRootFastpath,       // TreeMaxRegister writes the root already covers
  kHarnessWallUs,          // wall time of whole run_threads calls
  kHarnessBodyUs,          // wall time inside the post-barrier body
};

/// One past the last enumerator: keep it in step when adding a metric.
inline constexpr std::size_t kNumMetrics =
    static_cast<std::size_t>(Metric::kHarnessBodyUs) + 1;

struct MetricKey {
  std::string_view domain;
  std::string_view name;
};

/// The (domain, name) key of each Metric, in enum order.
inline constexpr std::array<MetricKey, kNumMetrics> kMetricNames{{
    {"maxreg", "cas_attempts"},
    {"maxreg", "cas_failures"},
    {"maxreg", "propagate_cas_attempts"},
    {"maxreg", "propagate_cas_failures"},
    {"maxreg", "propagate_levels"},
    {"maxreg", "propagate_second_rounds"},
    {"maxreg", "propagate_cas_skips"},
    {"maxreg", "tree_root_fastpath"},
    {"runtime", "harness_wall_us"},
    {"runtime", "harness_body_us"},
}};
static_assert(std::none_of(kMetricNames.begin(), kMetricNames.end(),
                           [](const MetricKey& k) { return k.name.empty(); }),
              "kMetricNames needs one key per Metric, in enum order");

/// One metric's total at snapshot time.
struct MetricSnapshot {
  std::string_view domain;
  std::string_view name;
  std::uint64_t value = 0;
};

/// Every metric's total, in table order.
struct Snapshot {
  std::array<MetricSnapshot, kNumMetrics> metrics;

  /// nullptr when (domain, name) is not in the table.
  [[nodiscard]] const MetricSnapshot* find(std::string_view domain,
                                           std::string_view name) const;
};

namespace detail {
struct alignas(runtime::kCacheLine) Slab {
  std::array<std::atomic<std::uint64_t>, kNumMetrics> cells{};
};
inline thread_local Slab* tls_slab = nullptr;
/// Creates and registers the calling thread's slab (its first `add`).
[[nodiscard]] Slab* new_slab();
}  // namespace detail

class Registry {
 public:
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide table.  Never destroyed (leaked singleton), so
  /// thread-exit and static-destruction order can't invalidate slabs.
  [[nodiscard]] static Registry& global() noexcept;

  /// Cells summed across every slab, live threads' and exited ones'.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  friend detail::Slab* detail::new_slab();
  Registry() = default;

  mutable std::mutex mu_;  // guards slabs_
  std::vector<std::unique_ptr<detail::Slab>> slabs_;
};

#ifdef RUCO_NO_TELEMETRY

inline void add(Metric, std::uint64_t) noexcept {}

#else

/// Adds `n` to this thread's cell of `m`: single writer, so a relaxed
/// load + store, never an RMW.
inline void add(Metric m, std::uint64_t n) noexcept {
  detail::Slab* slab = detail::tls_slab;
  if (slab == nullptr) [[unlikely]] {
    slab = detail::new_slab();
  }
  auto& cell = slab->cells[static_cast<std::size_t>(m)];
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

#endif  // RUCO_NO_TELEMETRY

}  // namespace ruco::telemetry
