// Generic f-array (Jayanti, PODC'02 -- reference [14] of Hendler & Khait),
// CAS variant: a wait-free aggregate over an N-slot single-writer array
// with
//   read_aggregate : O(1) steps (one root load), and
//   update         : O(log N) steps (write own slot, double-CAS-merge the
//                    root path).
//
// The aggregate function is a template parameter.  It must be associative
// and commutative: slots are scattered over the leaves (see
// ruco/util/tree_shape.h), so the tree folds them in leaf position order,
// not slot order.  Soundness of the LL/SC -> CAS substitution requires
// *monotonicity*: under the updates the program performs, every tree node's
// value sequence must be non-decreasing in some partial order (max: total
// order; sum of non-decreasing slots; componentwise orders...).
// Monotonicity is what rules out CAS/ABA -- see ruco/maxreg/propagate.h for
// the argument and DESIGN.md for the ablation.  Non-monotone updates (e.g.
// writing a *smaller* value to a slot under Max) are not linearizable
// through this construction; the tests demonstrate the failure mode.
//
// counter::FArrayCounter is a SumFArray plus a process-local count;
// FArraySnapshot and Algorithm A run the same propagate_twice over their own
// node types.  This template is the general component a downstream user
// would reach for (e.g. min/max watermarks, monotone bitmask unions).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/maxreg/propagate.h"
#include "ruco/runtime/memorder.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/util/tree_shape.h"

namespace ruco::farray {

template <typename Combine>
class FArray {
 public:
  /// N slots, all initialized to `identity` (which must satisfy
  /// combine(identity, x) == x).
  FArray(std::uint32_t num_slots, Value identity, Combine combine = {})
      : n_{num_slots},
        identity_{identity},
        combine_{combine},
        shape_{util::complete_shape(num_slots)},
        values_(shape_.node_count(), runtime::PaddedShared<Value>{identity}) {
    if (num_slots == 0) throw std::invalid_argument{"FArray: 0 slots"};
  }

  /// Sets slot `slot` (single writer per slot) and refreshes the path.
  /// O(log N) steps.
  void update(ProcId slot, Value v) {
    const auto leaf = shape_.leaf(slot);
    // Release pairs with the acquire child loads in propagate_twice (ours
    // and every concurrent refresher's).
    values_[leaf].store(v, runtime::mo_release);
    maxreg::propagate_twice(shape_, maxreg::padded_cells(values_), leaf,
                            combine_);
  }

  /// The aggregate over all slots.  One step.
  [[nodiscard]] Value read_aggregate(ProcId /*proc*/) const {
    return values_[shape_.root()].load(runtime::mo_acquire);
  }

  /// Direct read of one slot.  One step.
  [[nodiscard]] Value read_slot(ProcId /*proc*/, std::uint32_t slot) const {
    return values_[shape_.leaf(slot)].load(runtime::mo_acquire);
  }

  [[nodiscard]] std::uint32_t num_slots() const noexcept { return n_; }
  [[nodiscard]] Value identity() const noexcept { return identity_; }

 private:
  std::uint32_t n_;
  Value identity_;
  Combine combine_;
  util::TreeShape shape_;
  std::vector<runtime::PaddedShared<Value>> values_;
};

struct MaxCombine {
  Value operator()(Value l, Value r) const noexcept {
    return l > r ? l : r;
  }
};
struct MinCombine {
  Value operator()(Value l, Value r) const noexcept {
    return l < r ? l : r;
  }
};
struct SumCombine {
  Value operator()(Value l, Value r) const noexcept { return l + r; }
};
struct OrCombine {  // monotone bitmask union
  Value operator()(Value l, Value r) const noexcept { return l | r; }
};

/// Max over slots: slot updates must be non-decreasing.
using MaxFArray = FArray<MaxCombine>;
/// Min over slots: slot updates must be non-increasing (identity = +inf).
using MinFArray = FArray<MinCombine>;
/// Sum over slots: slot updates must be non-decreasing.
using SumFArray = FArray<SumCombine>;
/// Bitwise-or over slots: slot updates may only add bits.
using OrFArray = FArray<OrCombine>;

}  // namespace ruco::farray
