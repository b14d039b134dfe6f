// Protocol kernels: the production hot-path synchronization patterns run
// against the real `runtime::mo_*` constants, with their correctness
// conditions as machine-checked invariants over all RC11-consistent
// executions.  Five kernels cover the order table in DESIGN.md ("Hot-path
// engineering"); the last three are litmus programs of the callers' code
// around the propagate loop:
//
//   propagate-counter/{conditional,always-twice}
//       The production `maxreg::propagate_twice` (ruco/maxreg/propagate.h)
//       itself, over wmm::Atomic cells of util::complete_shape(2), with
//       two concurrent increments, both RefreshPolicy variants.
//       Invariants: no lost increment (final node == 2) and no
//       monotonicity regression (the node's modification order is
//       nondecreasing) -- the PR-4 node-load bug class.
//
//   propagate-snapshot
//       The same template with a non-atomic payload published before
//       the leaf store and dereferenced by the combine (the f-array
//       snapshot / pointer-carrying aggregate shape).  Invariant: every
//       payload read is race-free and sees the published value -- this
//       is the kernel that makes the *child* acquire load load-bearing
//       (for the pure counter it is not; see wmm_test's minimality
//       tests).
//
//   root-read
//       TreeMaxRegister's read fast path: an acquire root load
//       justifying a plain read of data published before the install.
//
//   leaf-handoff
//       The leaf-store -> helping-propagate handoff: a helper observes
//       a released leaf and completes the propagation for the writer.
//
//   mcas-publication
//       The MCAS descriptor-publication pattern from src/kcas/mcas.cpp:
//       descriptor fields written plain, published by the install CAS
//       (acq_rel), re-read by helpers through acquire cell loads; the
//       status decide CAS publishes helper-side writes back.  Invariant:
//       no torn descriptor read (all plain reads see the published
//       values, race-free).
//
// mutation_sites() weakens each load-bearing mo_* use-site one at a
// time; run_mutation_driver() asserts the explorer exhibits a concrete
// violating execution for every one of them -- machine-proving the
// order table sound *and* minimal.  The PR-4 `propagate_twice` node
// load (acquire -> relaxed) is a permanently pinned must-fail site.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "ruco/maxreg/propagate.h"
#include "ruco/maxreg/refresh_policy.h"
#include "ruco/runtime/memorder.h"
#include "ruco/util/tree_shape.h"
#include "ruco/wmm/explore.h"

namespace ruco::wmm {

/// Per-site orders of the MCAS descriptor-publication pattern,
/// mirroring src/kcas/mcas.cpp.
struct McasOrders {
  std::memory_order install_ok = runtime::mo_acq_rel;
  std::memory_order install_fail = runtime::mo_acquire;
  std::memory_order cell_load = runtime::mo_acquire;
  std::memory_order status_decide = runtime::mo_acq_rel;
  std::memory_order status_decide_fail = runtime::mo_acquire;
  std::memory_order status_read = runtime::mo_acquire;
};

struct Kernel {
  std::string name;
  std::string description;
  Program program;
  Invariant invariant;
};

/// One atomic location per node of `shape`, indexed by NodeId: the cells
/// a propagate_twice instantiation runs over.  The root is location 0,
/// named "node"; the other nodes follow in NodeId order as "n<id>".
std::vector<Atomic<Value>> tree_cells(Program& program,
                                      const util::TreeShape& shape);

Kernel make_propagate_counter_kernel(maxreg::RefreshPolicy policy,
                                     const maxreg::PropagateOrders& o = {});
Kernel make_propagate_snapshot_kernel(const maxreg::PropagateOrders& o = {});
Kernel make_root_read_kernel(const maxreg::PropagateOrders& o = {});
Kernel make_leaf_handoff_kernel(const maxreg::PropagateOrders& o = {});
Kernel make_mcas_publication_kernel(const McasOrders& o = {});

/// All kernels at the shipped orders.  The acceptance bar: zero
/// violations, search complete.
std::vector<Kernel> protocol_kernels();

/// Explore a kernel with its invariant installed.
ExploreResult check_kernel(const Kernel& kernel,
                           std::size_t max_violations = 4);

struct MutationSite {
  std::string id;    // "<kernel>:<site> <shipped>-><weakened>"
  std::string note;  // the bug class this weakening reintroduces
  bool pr4_regression = false;
  std::function<Kernel()> make;
};

std::vector<MutationSite> mutation_sites();

struct MutationOutcome {
  std::string id;
  std::string note;
  bool pr4_regression = false;
  std::uint64_t violation_count = 0;
  std::string sample_kind;     // kind of the first violation found
  std::string sample_message;
  std::string sample_dump;     // rendered violating execution
  bool found() const { return violation_count > 0; }
};

/// Weakens every site and collects what the explorer finds.  Every
/// outcome must report found() == true.
std::vector<MutationOutcome> run_mutation_driver();

}  // namespace ruco::wmm
