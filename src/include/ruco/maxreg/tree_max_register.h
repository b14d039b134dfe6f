// Algorithm A of Hendler & Khait (PODC'14 Section 5): a wait-free,
// linearizable max register from read / write / CAS with
//   ReadMax  : O(1) steps (a single read of the root), and
//   WriteMax(v) : O(min(log N, log v)) steps.
//
// The register is a binary tree T (Figure 4): the left subtree TL is a
// Bentley-Yao B1 tree whose v-th leaf (depth O(log v)) receives writes of
// small operands v < N; the right subtree TR is a complete binary tree whose
// i-th leaf (depth O(log N)) receives process i's writes of large operands
// v >= N.  A write stores its operand at the chosen leaf and propagates the
// max up to the root with the double-CAS loop.
//
// Deviation from the paper's pseudocode (documented in EXPERIMENTS.md, and
// demonstrated by the simulation-layer model checker): the printed
// Algorithm A returns from WriteMax *without propagating* when the leaf
// already holds a value >= the operand (lines 15-16).  When two processes
// race to write the same operand v < N to the same TL leaf, the second may
// early-return while the first has not yet propagated, after which a
// completed WriteMax(v) can be followed by a ReadMax < v -- a linearizability
// violation.  With help_on_duplicate (the default) the early-return path
// still propagates, restoring linearizability at no asymptotic cost
// (propagation is O(depth) -- the bound WriteMax already pays).  Construct
// with Faithfulness::kAsPrinted to get the paper's literal pseudocode (used
// by the tests that reproduce the violation).
#pragma once

#include <cstdint>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/util/tree_shape.h"

namespace ruco::maxreg {

enum class Faithfulness {
  kAsPrinted,        // paper's literal lines 10-18
  kHelpOnDuplicate,  // propagate before early return (default)
};

class TreeMaxRegister {
 public:
  /// A register shared by `num_processes` processes.  Operands are
  /// unbounded (the paper's Theorem 5 covers the unbounded object); the
  /// min(log N, log v) write bound comes from the tree shape alone.
  explicit TreeMaxRegister(
      std::uint32_t num_processes,
      Faithfulness mode = Faithfulness::kHelpOnDuplicate);

  /// Largest value written by any linearized WriteMax, or kNoValue.
  /// Exactly one shared-memory step.
  [[nodiscard]] Value read_max(ProcId proc) const;

  /// Writes v >= 0 (negative operands throw std::out_of_range in every
  /// build).  Caller must pass its own process id in [0, N).  In
  /// kHelpOnDuplicate mode a root-check fast path returns in O(1) when the
  /// root already covers v (sound: ReadMax only looks at the root, which is
  /// monotone).
  void write_max(ProcId proc, Value v);

  [[nodiscard]] std::uint32_t num_processes() const noexcept {
    return shape_.num_processes();
  }
  /// Depth of the leaf WriteMax(v) by `proc` would start from -- the step
  /// bound's driver; exposed for the structure tests and benchmarks.
  [[nodiscard]] std::uint32_t write_leaf_depth(ProcId proc, Value v) const;

 private:
  util::AlgorithmATreeShape shape_;
  std::vector<runtime::PaddedShared<Value>> values_;
  Faithfulness mode_;
};

}  // namespace ruco::maxreg
