// The Aspnes-Attiya-Censor-Hillel bounded max register (J.ACM 2012,
// "Polylogarithmic concurrent data structures from monotone circuits" --
// reference [2] of Hendler & Khait), built from reads and writes only:
// both ReadMax and WriteMax(v) take O(log M) steps on an M-bounded register.
//
// Structure: a complete binary tree of one-bit "switch" registers over the
// value domain [0, M).  A node splits its domain in half; switch == 1 means
// "some write went to the right (larger) half".  WriteMax descends by the
// operand's bits -- abandoning as soon as it would go left of a set switch
// (a larger value is already present) -- and then sets the switches of its
// right turns bottom-up, so a switch is only raised after the value below it
// is fully recorded.  ReadMax follows set switches right / unset switches
// left, reconstructing the maximum from its path.
//
// This is the read-optimal implementation whose WriteMax the paper's
// Theorem 3 lower-bounds: f(K) = O(log M) reads, Theta(log M) writes.
#pragma once

#include <cstdint>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/runtime/stepcount.h"

namespace ruco::maxreg {

class AacMaxRegister {
 public:
  /// An M-bounded register: operands must lie in [0, bound).  The switch
  /// tree has next_pow2(bound) - 1 internal one-bit registers.
  explicit AacMaxRegister(Value bound);
  AacMaxRegister(const AacMaxRegister&) = delete;
  AacMaxRegister& operator=(const AacMaxRegister&) = delete;

  /// Largest value written so far, or kNoValue.  Exactly
  /// ceil(log2(bound)) read steps.
  [[nodiscard]] Value read_max(ProcId proc) const;

  /// Writes v in [0, bound).  At most 2*ceil(log2(bound)) steps.
  void write_max(ProcId proc, Value v);

  [[nodiscard]] Value bound() const noexcept { return bound_; }

 private:
  Value bound_;
  std::uint32_t levels_;  // ceil(log2(next_pow2(bound)))
  // Heap-ordered switch bits: node 1 is the root, node k has children 2k and
  // 2k+1.  Unpadded one-byte registers (the algorithm uses only
  // read/write), so an M-bounded register stores M bytes of switches.
  std::vector<runtime::Shared<std::uint8_t>> switches_;
  // Has any write completed?  The original algorithm assumes domain [0, M)
  // with 0 as the implicit initial value; one extra "written" bit lets
  // ReadMax report kNoValue on a fresh register instead of 0, aligning all
  // our max registers on the same specification.
  runtime::Shared<std::uint8_t> any_write_;
};

}  // namespace ruco::maxreg
