// Cross-layer metric registry: the observability substrate of ruco.
//
// The paper's whole evaluation is *counting shared-memory events*, yet until
// this subsystem the repo could only observe one number (the thread-local
// step total in runtime/stepcount.h).  The registry generalizes that idea:
// named counters and fixed-bucket histograms, grouped into labeled
// domains ("maxreg", "mcas", "runtime", ...), cheap enough to leave enabled
// on production hot paths.
//
// Design for low overhead:
//   * Counter / histogram cells are *per-thread sharded*: every thread gets
//     its own slab of cache-line-isolated cells, so no two threads ever
//     write the same cell -- no contention, no false sharing (the same
//     trick as stepcount.h's TLS counter, made multi-metric).  Snapshots
//     sum across slabs.
//   * Single-writer cells need no read-modify-write: an increment is a
//     relaxed load + relaxed store of the thread's own cell, which on x86
//     is two plain MOVs -- no lock prefix.  A fetch_add would be ~10x the
//     cost and buys nothing when the only concurrent access is a snapshot
//     read, which tolerates a momentarily stale cell by design.
//   * The slab lookup is a single thread_local pointer compare on the fast
//     path (an inline cache of the last registry used by this thread).
//   * Relaxed atomics make snapshots racy-but-coherent per cell: a snapshot
//     taken while threads run sees each cell at some recent value, which is
//     exactly the semantics of sampling a live system.
//   * Compiling with -DRUCO_NO_TELEMETRY turns every hot-path mutation
//     (Counter::add, Histogram::record) into an empty inline
//     function, so the instrumentation can be proven free (the overhead
//     comparison is recorded in docs/OBSERVABILITY.md).
//
// Registration is idempotent -- registering (domain, name) twice returns a
// handle to the same metric -- so function-local-static handle accessors
// (ruco/telemetry/metrics.h) are safe and cheap.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ruco/runtime/padded.h"

namespace ruco::telemetry {

enum class Kind : std::uint8_t { kCounter, kHistogram };

[[nodiscard]] const char* to_string(Kind k) noexcept;

/// One metric's merged view at snapshot time.
struct MetricSnapshot {
  std::string domain;
  std::string name;
  Kind kind = Kind::kCounter;
  /// Counter: total.  Histogram: total samples (incl. overflow).
  std::uint64_t value = 0;
  /// Histogram only: per-bucket counts, then the overflow count.
  std::vector<std::uint64_t> buckets;
  std::uint64_t overflow = 0;
};

/// A coherent-per-cell copy of a registry's metrics; mergeable (for
/// combining registries or accumulating across phases) and exportable as
/// JSON for benches, rucosim --telemetry and CI artifacts.
struct Snapshot {
  std::vector<MetricSnapshot> metrics;

  /// Sums `other` into this: matching (domain, name, kind) entries add
  /// cell-wise; unmatched entries are appended.
  void merge(const Snapshot& other);

  [[nodiscard]] const MetricSnapshot* find(std::string_view domain,
                                           std::string_view name) const;

  /// {"metrics": [{"domain": ..., "name": ..., "kind": ..., ...}, ...]}
  [[nodiscard]] std::string to_json() const;
};

class Registry;

namespace detail {
/// Sentinel registry id carried by inert (default-constructed) handles.
/// Real ids count up from 1 and the TLS cache starts at 0, so an inert
/// handle can never match the cache and always takes the slow path, which
/// null-checks the registry pointer.
inline constexpr std::uint64_t kInertRegistryId = ~std::uint64_t{0};
}  // namespace detail

/// Monotone event counter handle.  Cheap to copy; valid as long as its
/// registry lives.  A default-constructed handle is inert.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n) const noexcept;
  void inc() const noexcept { add(1); }

 private:
  friend class Registry;
  void add_slow(std::uint64_t n) const noexcept;
  Registry* reg_ = nullptr;
  // Copied from the registry: the fast path compares TLS state against the
  // handle alone (no registry dereference, no null check).
  std::uint64_t reg_id_ = detail::kInertRegistryId;
  std::uint32_t cell_ = 0;
};

/// Fixed-bucket histogram handle over [0, buckets); larger samples land in
/// the overflow bucket (same convention as util::Histogram, which the
/// snapshot mirrors).
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t x) const noexcept;

 private:
  friend class Registry;
  void record_slow(std::uint32_t cell) const noexcept;
  Registry* reg_ = nullptr;
  std::uint64_t reg_id_ = detail::kInertRegistryId;
  std::uint32_t first_cell_ = 0;
  std::uint32_t buckets_ = 0;
};

class Registry {
 public:
  /// `cell_capacity` bounds the total sharded cells (one per counter,
  /// buckets+1 per histogram); fixing it at construction keeps slabs
  /// fixed-size, so snapshot readers never race a slab reallocation.
  explicit Registry(std::uint32_t cell_capacity = kDefaultCellCapacity);
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Idempotent registration: same (domain, name) -> same metric.
  /// Throws std::invalid_argument on a kind/shape mismatch with a previous
  /// registration, std::length_error when out of cell capacity.
  [[nodiscard]] Counter counter(std::string_view domain,
                                std::string_view name);
  [[nodiscard]] Histogram histogram(std::string_view domain,
                                    std::string_view name,
                                    std::uint32_t buckets);

  /// Metrics in registration order, cells summed across all thread slabs.
  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes every cell (metric definitions stay registered).
  /// Phase-scoped measurements snapshot, then reset.
  void reset() noexcept;

  [[nodiscard]] std::size_t num_metrics() const;

  /// The process-wide registry every production-layer metric lives in
  /// (ruco/telemetry/metrics.h).  Never destroyed (leaked singleton), so
  /// thread-exit and static-destruction order can't invalidate handles.
  [[nodiscard]] static Registry& global() noexcept;

  static constexpr std::uint32_t kDefaultCellCapacity = 1024;

 private:
  friend class Counter;
  friend class Histogram;

  struct Slab {
    explicit Slab(std::uint32_t capacity) : cells(capacity) {}
    // Padded: adjacent metrics hit by different threads stay independent.
    std::vector<runtime::PaddedAtomic<std::uint64_t>> cells;
  };

  struct MetricDef {
    std::string domain;
    std::string name;
    Kind kind = Kind::kCounter;
    std::uint32_t first_cell = 0;  // sharded cell range
    std::uint32_t cells = 0;
  };

  [[nodiscard]] runtime::PaddedAtomic<std::uint64_t>* local_cells();
  [[nodiscard]] runtime::PaddedAtomic<std::uint64_t>* local_cells_slow();
  [[nodiscard]] std::uint32_t register_metric(std::string_view domain,
                                              std::string_view name,
                                              Kind kind,
                                              std::uint32_t cells);

  const std::uint32_t capacity_;
  const std::uint64_t id_;  // process-unique; basis of the TLS inline cache
  mutable std::mutex mu_;   // guards defs_, slabs_ structure
  std::vector<MetricDef> defs_;
  std::uint32_t next_cell_ = 0;
  std::vector<std::unique_ptr<Slab>> slabs_;
};

// ---------------------------------------------------------------------------
// Hot-path inline bodies.  With RUCO_NO_TELEMETRY they compile to nothing.
// ---------------------------------------------------------------------------

namespace detail {
/// One-entry inline cache: the last (registry id -> slab) pair this thread
/// resolved.  Registry ids are process-unique and never reused, so a stale
/// entry can never match a new registry at a recycled address.
struct SlabCache {
  std::uint64_t registry_id = 0;  // 0 = empty
  runtime::PaddedAtomic<std::uint64_t>* cells = nullptr;
};
inline thread_local SlabCache tls_slab_cache;
}  // namespace detail

/// Fast path inline: one TLS compare, then the cell array pointer itself
/// (cached directly so an increment does no slab indirection).  Slab
/// creation is out of line.
inline runtime::PaddedAtomic<std::uint64_t>* Registry::local_cells() {
  auto& cache = detail::tls_slab_cache;
  if (cache.registry_id == id_) [[likely]] {
    return cache.cells;
  }
  return local_cells_slow();
}

#ifdef RUCO_NO_TELEMETRY

inline void Counter::add(std::uint64_t) const noexcept {}
inline void Histogram::record(std::uint64_t) const noexcept {}

#else

inline void Counter::add(std::uint64_t n) const noexcept {
  // Fast path touches only the handle and TLS -- no registry dereference,
  // and no null check (inert handles carry kInertRegistryId, which can
  // never match the cache).  Single writer per slab cell: plain load +
  // store, never an RMW.
  auto& cache = detail::tls_slab_cache;
  if (cache.registry_id == reg_id_) [[likely]] {
    auto& cell = cache.cells[cell_].value;
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
    return;
  }
  add_slow(n);
}

inline void Histogram::record(std::uint64_t x) const noexcept {
  const std::uint32_t i =
      x < buckets_ ? static_cast<std::uint32_t>(x) : buckets_;
  auto& cache = detail::tls_slab_cache;
  if (cache.registry_id == reg_id_) [[likely]] {
    auto& cell = cache.cells[first_cell_ + i].value;
    cell.store(cell.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
    return;
  }
  record_slow(first_cell_ + i);
}

#endif  // RUCO_NO_TELEMETRY

}  // namespace ruco::telemetry
