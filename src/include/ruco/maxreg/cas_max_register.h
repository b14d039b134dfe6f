// Single-word CAS-retry max register: the natural baseline every systems
// programmer writes first.  ReadMax is one step; WriteMax retries a CAS
// until the register holds a value >= the operand.
//
// Lock-free but *not* wait-free: under contention a WriteMax can retry
// unboundedly (each failure is caused by another write succeeding).  Solo
// (and per the paper's obstruction-free measure) WriteMax is O(1), which
// makes this object the canonical f(K) = O(1) read-side target for the
// Theorem 3 adversary: the lower bound says some execution must stretch
// writes to Omega(log log K / log f(K)) steps -- the adversary bench shows
// the retry chains the construction manufactures.
#pragma once

#include "ruco/core/types.h"
#include "ruco/runtime/stepcount.h"

namespace ruco::maxreg {

class CasMaxRegister {
 public:
  CasMaxRegister() noexcept : cell_{kNoValue} {}

  /// One read step.
  [[nodiscard]] Value read_max(ProcId proc) const;

  /// CAS loop; lock-free, O(1) solo.
  void write_max(ProcId proc, Value v);

 private:
  runtime::PaddedShared<Value> cell_;
};

}  // namespace ruco::maxreg
