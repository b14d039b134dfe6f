// The simulator's double-refresh propagation, the step-by-step twin of
// maxreg::propagate_twice (ruco/maxreg/propagate.h, which argues the
// pruning), shared by SimTreeMaxRegister and SimFArrayCounter.  Each round
// is node read, left read, right read, CAS -- one sim step each.
// `attempts` is SimTreeMaxRegister's ablation knob (the paper's 2).
#pragma once

#include <vector>

#include "ruco/core/types.h"
#include "ruco/maxreg/refresh_policy.h"
#include "ruco/sim/op.h"
#include "ruco/sim/system.h"

namespace ruco::simalgos {

/// Propagates from the parent of `start` up to the root of `shape`;
/// `objects[n]` is node n's base object.  Both must outlive the Op.
template <typename Shape, typename Combine>
sim::Op sim_propagate(sim::Ctx& ctx, const Shape& shape,
                      const std::vector<sim::ObjectId>& objects,
                      typename Shape::NodeId start, Combine combine,
                      int attempts, maxreg::RefreshPolicy policy) {
  const bool conditional = policy == maxreg::RefreshPolicy::kConditional;
  for (auto n = shape.parent(start); n != Shape::kNil; n = shape.parent(n)) {
    for (int attempt = 0; attempt < attempts; ++attempt) {
      const Value old_value = co_await ctx.read(objects[n]);
      const Value l = co_await ctx.read(objects[shape.left(n)]);
      const Value r = co_await ctx.read(objects[shape.right(n)]);
      const Value new_value = combine(l, r);
      if (conditional && new_value == old_value) break;
      const Value ok = co_await ctx.cas(objects[n], old_value, new_value);
      if (conditional && ok != 0) break;
    }
  }
  co_return 0;
}

}  // namespace ruco::simalgos
