// Obstruction-free single-writer atomic snapshot by double collect: Scan
// repeatedly collects all N segments twice and returns when the two collects
// are identical (so the values coexisted at every instant between them).
// Update is a single write.
//
// Segments carry a per-writer sequence number packed with the value so the
// comparison is ABA-free; a same-value re-update still bumps the sequence.
// Obstruction-free only: a concurrent updater can starve Scan forever --
// this object sits at the (Scan = O(N) solo, Update = O(1)) end of
// Corollary 1's tradeoff, the mirror image of the f-array snapshot.
#pragma once

#include <cstdint>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/runtime/padded.h"
#include "ruco/runtime/stepcount.h"

namespace ruco::snapshot {

class DoubleCollectSnapshot {
 public:
  /// Values must fit in 40 bits (packed with a 24-bit sequence number);
  /// each process may issue at most 2^24 - 1 updates -- both "restricted
  /// use" limits, checked with exceptions.
  explicit DoubleCollectSnapshot(std::uint32_t num_processes);

  /// Atomically sets segment `proc` to v >= 0.  One step.
  void update(ProcId proc, Value v);

  /// Returns all N segment values as of a single instant.  2N steps per
  /// attempt; may retry under concurrent updates (obstruction-free).
  [[nodiscard]] std::vector<Value> scan(ProcId proc) const;

  [[nodiscard]] std::uint32_t num_processes() const noexcept { return n_; }

  static constexpr Value kMaxValue = (Value{1} << 40) - 1;
  static constexpr std::uint64_t kMaxUpdatesPerProcess = (1u << 24) - 1;

 private:
  using Packed = std::uint64_t;  // [seq:24 | value:40]
  static constexpr Packed pack(Value v, std::uint64_t seq) noexcept {
    return (seq << 40) | static_cast<std::uint64_t>(v);
  }
  static constexpr Value unpack_value(Packed p) noexcept {
    return static_cast<Value>(p & ((std::uint64_t{1} << 40) - 1));
  }

  void collect(std::vector<Packed>& out) const;

  std::uint32_t n_;
  std::vector<runtime::PaddedShared<Packed>> segments_;
  std::vector<runtime::PaddedAtomic<std::uint64_t>> seq_;  // per-writer
};

}  // namespace ruco::snapshot
