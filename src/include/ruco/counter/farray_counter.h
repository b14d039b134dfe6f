// Jayanti-style f-array counter (PODC'02 "f-arrays", reference [14] of
// Hendler & Khait), adapted from LL/SC to CAS with the same double-CAS
// propagation Algorithm A uses:
//   CounterRead      : O(1) steps (read the root sum), and
//   CounterIncrement : O(log N) steps (bump own leaf, re-aggregate the path).
//
// This is the read-optimal counter the paper's Theorem 1 shows is
// update-optimal too: with f(N) = O(1) reads, increments must cost
// Omega(log N) -- exactly what this object pays.  Sums of single-writer,
// non-decreasing leaves are monotone, so the CAS substitution is ABA-free
// (see propagate.h).
//
// The counter is a farray::SumFArray whose slot p holds process p's
// increment count, plus a process-local copy of that count so an increment
// need not read its own slot back.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/farray/farray.h"
#include "ruco/runtime/padded.h"

namespace ruco::counter {

class FArrayCounter {
 public:
  explicit FArrayCounter(std::uint32_t num_processes)
      : sums_{num_processes, 0},
        local_count_(num_processes, runtime::PaddedAtomic<Value>{0}) {}

  /// Number of increments linearized so far.  One step.
  [[nodiscard]] Value read(ProcId proc) const {
    return sums_.read_aggregate(proc);
  }

  /// Adds one to the count on behalf of process `proc`.  O(log N) steps.
  void increment(ProcId proc) {
    assert(proc < num_processes());
    // local_count_ is process-private bookkeeping (each slot written by one
    // process only); relaxed suffices and it is not a shared-memory step.
    const Value next =
        local_count_[proc].value.load(std::memory_order_relaxed) + 1;
    local_count_[proc].value.store(next, std::memory_order_relaxed);
    sums_.update(proc, next);
  }

  [[nodiscard]] std::uint32_t num_processes() const noexcept {
    return sums_.num_slots();
  }

 private:
  farray::SumFArray sums_;
  // Process-local mirror of the (single-writer) slot: saves the slot read.
  // Padded so neighbouring processes' mirrors do not false-share.
  std::vector<runtime::PaddedAtomic<Value>> local_count_;
};

}  // namespace ruco::counter
