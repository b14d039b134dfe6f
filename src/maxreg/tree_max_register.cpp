#include "ruco/maxreg/tree_max_register.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "ruco/maxreg/propagate.h"
#include "ruco/runtime/memorder.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/telemetry/metrics.h"

namespace ruco::maxreg {

namespace {
constexpr Value combine_max(Value l, Value r) noexcept {
  return std::max(l, r);
}
}  // namespace

TreeMaxRegister::TreeMaxRegister(std::uint32_t num_processes,
                                 Faithfulness mode)
    : shape_{num_processes},
      values_(shape_.node_count(), runtime::PaddedAtomic<Value>{kNoValue}),
      mode_{mode} {}

Value TreeMaxRegister::read_max(ProcId /*proc*/) const {
  runtime::step_tick();
  return values_[shape_.root()].value.load(runtime::mo_acquire);
}

void TreeMaxRegister::write_max(ProcId proc, Value v) {
  if (v < 0) {
    throw std::out_of_range{"TreeMaxRegister::write_max: negative operand"};
  }
  assert(proc < shape_.num_processes());
  if (mode_ == Faithfulness::kHelpOnDuplicate) {
    // Root-check fast path: if the root already covers v, every subsequent
    // ReadMax returns >= v and this operation may linearize right after the
    // write that put the root there -- O(1) instead of a full descent.
    // Not applied in kAsPrinted mode, which reproduces the paper's literal
    // pseudocode.
    runtime::step_tick();
    if (values_[shape_.root()].value.load(runtime::mo_acquire) >= v) {
      telemetry::prod().tree_root_fastpath.inc();
      return;
    }
  }
  const auto leaf = v < shape_.num_processes()
                        ? shape_.value_leaf(static_cast<std::uint64_t>(v))
                        : shape_.process_leaf(proc);
  telemetry::prod().tree_descent_depth.record(shape_.depth(leaf));
  runtime::step_tick();
  const Value old_value =
      values_[leaf].value.load(runtime::mo_acquire);
  if (v <= old_value) {
    // Another write of >= v already reached this leaf.  The paper's printed
    // code returns here; without helping, the other write may not have
    // propagated yet and this (completed) operation could be missed by a
    // subsequent ReadMax.
    telemetry::prod().tree_duplicate_writes.inc();
    if (mode_ == Faithfulness::kHelpOnDuplicate) {
      propagate_twice(shape_, padded_cells(values_), leaf, combine_max);
    }
    return;
  }
  runtime::step_tick();
  values_[leaf].value.store(v, runtime::mo_release);
  propagate_twice(shape_, padded_cells(values_), leaf, combine_max);
}

std::uint32_t TreeMaxRegister::write_leaf_depth(ProcId proc, Value v) const {
  const auto leaf = v < shape_.num_processes()
                        ? shape_.value_leaf(static_cast<std::uint64_t>(v))
                        : shape_.process_leaf(proc);
  return shape_.depth(leaf);
}

}  // namespace ruco::maxreg
