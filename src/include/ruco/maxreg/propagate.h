// The double-refresh propagation loop shared by Algorithm A's max register
// and the f-array family (Hendler & Khait Algorithm A lines 3-9; Jayanti's
// Tree Algorithm adapted from LL/SC to CAS).  This is the one hardware
// implementation of the protocol: the production objects instantiate it over
// runtime::Shared cells (which count the steps), and the RC11 weak-memory
// checker (ruco/wmm/kernels.h) instantiates the same template over
// wmm::Atomic cells, so the orders it certifies are the orders of the code
// that ships.  The simulator's step-by-step twin is simalgos::sim_propagate.
//
// At every node on the path from `start` to the root, the caller's combine
// function is evaluated over the two children and CASed into the node.
// Two refresh rounds suffice for linearizability of *monotone* aggregates
// (max, sums of single-writer counters, version-ordered views): if our CAS
// fails, a concurrent CAS succeeded, and its combine input was read after
// our child update; if the second also fails, the interfering CAS read the
// children after our first attempt, hence already covers our update (the
// paper's Lemma 9 / Invariant 1 argument).  Monotonicity is what rules out
// ABA, which is why the LL/SC -> CAS substitution is sound here.
//
// Conditional refresh (RefreshPolicy::kConditional, the default).  The
// argument above makes the second round *conditional* on losing the first:
// a won CAS installed a combine computed from child values read after our
// child update, so the node covers us and round two is pure overhead.
// Likewise, when the combine equals the value the node already holds there
// is nothing to install: the node held the covering value at our load, and
// node values are monotone under combine, so it covers us forever after --
// the level costs three loads and no CAS at all.  On the uncontended path
// this halves CAS traffic per level (one CAS instead of two); the model
// checker exhaustively verifies the pruned protocol against the
// kAlwaysTwice oracle at small N (tests/hotpath_test.cpp) and the ablation
// bench quantifies the step savings.
//
// Memory orders (per-site argument; DESIGN.md "Hot-path memory orders";
// constants from ruco/runtime/memorder.h, which RUCO_SEQCST_ATOMICS
// collapses to seq_cst for weak-memory targets):
//   * node load: acquire.  Required for more than publication: the value
//     feeds the CAS expected operand AND the decisions to skip (no-change
//     test) or stop (won-CAS break).  Both decisions reason "the node
//     already covers X because whoever installed this value read children
//     at least as new as X" -- an ordering claim, not just a value claim.
//     The acquire synchronizes-with the release CAS (or release leaf
//     store) that installed the node value, so the installer's child reads
//     happen-before our subsequent child loads; read-read coherence then
//     forces our child loads to return values no older than the ones the
//     installer combined.  That is exactly the interleaving ("combine
//     inputs are at least as new as the node value we observed") the SC
//     model checker exhaustively verified, so the pruning argument
//     transfers to weak-memory hardware.  A relaxed load here is NOT
//     sound on non-TSO machines: it may return a fresh node value while
//     the child loads still return stale values (nothing orders them),
//     making the no-change skip drop a sibling's contribution (e.g. a
//     counter increment that never reaches the root) or the CAS install
//     combine(stale children) over a newer aggregate, regressing the
//     monotone value.  Cost of the acquire: free on x86/TSO, one ldar on
//     ARM.
//   * child loads: acquire.  They synchronize with the release CAS (or
//     release leaf store) that published the child value; when T is a
//     pointer (f-array snapshot views) the referent is dereferenced by the
//     combine, so the acquire edge is what makes the published contents
//     visible.
//   * CAS: release on success -- publishes the combined value (and, for
//     pointer aggregates, everything the combine wrote) to the next
//     level's acquire node/child loads; relaxed on failure -- the
//     reloaded expected is discarded (round 2 re-reads everything fresh).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "ruco/maxreg/refresh_policy.h"
#include "ruco/runtime/memorder.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/telemetry/registry.h"

namespace ruco::maxreg {

/// Per-site memory orders of the protocol, defaulting to the shipped
/// `runtime::mo_*` constants.  The loop uses the middle four; `leaf_store`
/// and `root_read` are the callers' sites.  The wmm checker weakens these.
struct PropagateOrders {
  std::memory_order leaf_store = runtime::mo_release;
  std::memory_order node_load = runtime::mo_acquire;  // see file comment
  std::memory_order child_load = runtime::mo_acquire;
  std::memory_order cas_ok = runtime::mo_release;
  std::memory_order cas_fail = runtime::mo_relaxed;
  std::memory_order root_read = runtime::mo_acquire;
};

/// The PropagateOrders defaults as compile-time constants, for production:
/// GCC compiles an atomic whose memory_order is not a constant as seq_cst.
struct ShippedOrders {
  static constexpr PropagateOrders kOrders{};
  static constexpr std::memory_order node_load = kOrders.node_load;
  static constexpr std::memory_order child_load = kOrders.child_load;
  static constexpr std::memory_order cas_ok = kOrders.cas_ok;
  static constexpr std::memory_order cas_fail = kOrders.cas_fail;
};

/// Cell accessor over the production layout: node n is `values[n]`.
template <typename T>
auto padded_cells(std::vector<runtime::PaddedShared<T>>& values) {
  return [&values](std::uint32_t n) -> runtime::Shared<T>& {
    return values[n];
  };
}

/// Propagates from the *parent* of `start` up to the root of `shape`.
/// `cell(n)` returns node n's atomic cell -- anything with the std::atomic
/// `load` / `compare_exchange_strong` surface (runtime::Shared in
/// production, where each access is one step); `combine(l, r)` computes the
/// new aggregate from the two child values.  The cell value type must be
/// trivially copyable, equality-comparable, and the sequence of values at
/// every cell monotone under `combine` (see file comment).
template <typename Shape, typename Cell, typename Combine,
          typename Orders = ShippedOrders>
void propagate_twice(const Shape& shape, Cell&& cell,
                     typename Shape::NodeId start, Combine&& combine,
                     RefreshPolicy policy = RefreshPolicy::kConditional,
                     const Orders& orders = {}) {
  using NodeId = typename Shape::NodeId;
  const bool conditional = policy == RefreshPolicy::kConditional;
  // Batched telemetry: tally in locals, publish once per propagation so the
  // per-level loop stays free of counter traffic.
  std::uint64_t levels = 0;
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
  std::uint64_t second_rounds = 0;
  std::uint64_t skipped = 0;
  NodeId n = start;
  while (shape.parent(n) != Shape::kNil) {
    n = shape.parent(n);
    ++levels;
    const NodeId l = shape.left(n);
    const NodeId r = shape.right(n);
    for (int round = 0; round < 2; ++round) {
      // Acquire, not relaxed: the skip/stop decisions below need the
      // installer's child reads to happen-before ours (see file comment).
      auto old_value = cell(n).load(orders.node_load);
      const auto lv = cell(l).load(orders.child_load);
      const auto rv = cell(r).load(orders.child_load);
      const decltype(old_value) new_value = combine(lv, rv);
      if (conditional && new_value == old_value) {
        // Pure-load level: the node already holds the covering aggregate.
        ++skipped;
        break;
      }
      ++attempts;
      if (cell(n).compare_exchange_strong(old_value, new_value, orders.cas_ok,
                                          orders.cas_fail)) {
        if (conditional) break;  // won: combine read after our child update
      } else {
        ++failures;
        if (round == 0) ++second_rounds;
      }
    }
  }
  if (levels != 0) {
    using telemetry::Metric;
    telemetry::add(Metric::kPropagateLevels, levels);
    // Actual CASes, not levels * 2.
    telemetry::add(Metric::kPropagateCasAttempts, attempts);
    if (failures != 0) telemetry::add(Metric::kPropagateCasFailures, failures);
    if (second_rounds != 0) {
      telemetry::add(Metric::kPropagateSecondRounds, second_rounds);
    }
    if (skipped != 0) telemetry::add(Metric::kPropagateCasSkips, skipped);
  }
}

}  // namespace ruco::maxreg
