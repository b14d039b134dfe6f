// Validation of the src/wmm axiomatic weak-memory model checker, and the
// machine-checked certification of the production memory orders:
//
//   1. Executor validation: the classic litmus battery (SB, MP, LB, CoRR,
//      IRIW, 2+2W, R, fenced SB, CAS duel) must reproduce the *exact*
//      RC11 allowed-outcome sets -- a missing or extra outcome is an
//      executor bug.
//   2. Cross-validation against the existing engines: for all-seq_cst
//      programs the RC11 explorer, the internal interleaving-SC oracle,
//      and the repo's sim model checker must agree on the reachable
//      outcome set (randomized straight-line programs).
//   3. Protocol kernels at the shipped `runtime::mo_*` orders: zero
//      violations over every RC11-consistent execution, search complete.
//      The propagation kernels run the production `propagate_twice`
//      template itself, here also on a 2-level tree.
//   4. Mutation driver: weakening any load-bearing mo_* site must
//      exhibit a concrete violating execution -- including the PR-4
//      `propagate_twice` node-load acquire->relaxed bug as a permanent
//      must-fail regression.
//   5. Minimality: sites the order table deliberately does NOT
//      strengthen (counter-kernel child loads, CAS failure order) stay
//      clean when relaxed -- the table is sound *and* minimal.
//   6. RUCO_SEQCST_ATOMICS: every weak-behaviour litmus allowed at the
//      hand-tuned orders becomes forbidden when the constants collapse
//      to seq_cst (memorder.h's fallback claim, machine-verified).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "ruco/maxreg/propagate.h"
#include "ruco/maxreg/refresh_policy.h"
#include "ruco/sim/model_checker.h"
#include "ruco/sim/system.h"
#include "ruco/snapshot/epoch.h"
#include "ruco/snapshot/farray_snapshot.h"
#include "ruco/util/rng.h"
#include "ruco/util/tree_shape.h"
#include "ruco/wmm/explore.h"
#include "ruco/wmm/kernels.h"
#include "ruco/wmm/litmus.h"

namespace ruco {
namespace {

using maxreg::RefreshPolicy;
using OutcomeSet = std::set<std::vector<Value>>;

OutcomeSet as_set(const std::vector<std::vector<Value>>& outcomes) {
  return OutcomeSet(outcomes.begin(), outcomes.end());
}

std::string show(const OutcomeSet& outcomes) {
  std::string out;
  for (const auto& tuple : outcomes) {
    out += "(";
    for (Value v : tuple) out += std::to_string(v) + ",";
    out += ") ";
  }
  return out;
}

// ---------------------------------------------------------------- litmus

TEST(WmmLitmus, ClassicBatteryExactOutcomeSets) {
  for (const wmm::Litmus& lit : wmm::classic_battery()) {
    SCOPED_TRACE(lit.name);
    const wmm::ExploreResult res = wmm::explore(lit.program);
    EXPECT_TRUE(res.complete);
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.joint, as_set(lit.allowed))
        << "got:  " << show(res.joint)
        << "\nwant: " << show(as_set(lit.allowed));
  }
}

TEST(WmmLitmus, IriwForbiddenUnderScAllowedUnderRelAcq) {
  // The headline RC11 distinction, asserted directly (the battery covers
  // it via the full sets; this pins the specific claim).
  const std::vector<Value> weak = {1, 0, 1, 0, 1, 1};
  for (const wmm::Litmus& lit : wmm::classic_battery()) {
    if (lit.name == "IRIW+sc") {
      EXPECT_EQ(wmm::explore(lit.program).joint.count(weak), 0u);
    }
    if (lit.name == "IRIW+rel+acq") {
      EXPECT_EQ(wmm::explore(lit.program).joint.count(weak), 1u);
    }
  }
}

TEST(WmmLitmus, HandtunedBatteryMatchesActiveConfiguration) {
  // The mo_* batteries' `allowed` sets are computed for the compiled
  // configuration: weak outcomes present by default, gone under
  // RUCO_SEQCST_ATOMICS.
  for (const wmm::Litmus& lit : wmm::handtuned_battery()) {
    SCOPED_TRACE(lit.name);
    const wmm::ExploreResult res = wmm::explore(lit.program);
    EXPECT_TRUE(res.complete);
    EXPECT_EQ(res.joint, as_set(lit.allowed))
        << "got:  " << show(res.joint)
        << "\nwant: " << show(as_set(lit.allowed));
    if (!lit.weak_outcome.has_value()) continue;
#if defined(RUCO_SEQCST_ATOMICS)
    EXPECT_EQ(res.joint.count(*lit.weak_outcome), 0u)
        << "weak behaviour survived the seq_cst collapse";
#else
    EXPECT_EQ(res.joint.count(*lit.weak_outcome), 1u)
        << "hand-tuned orders lost their (expected) weak behaviour";
#endif
  }
}

TEST(WmmLitmus, DataRaceDetected) {
  // Plain-location conflict without ordering is reported as a data race;
  // the release/acquire version of the same program is clean.
  for (const bool ordered : {false, true}) {
    wmm::Program prog;
    auto flag = prog.atomic<Value>("flag", 0);
    auto data = prog.plain<Value>("data", 0);
    const auto store_o =
        ordered ? std::memory_order_release : std::memory_order_relaxed;
    const auto load_o =
        ordered ? std::memory_order_acquire : std::memory_order_relaxed;
    prog.thread([=] {
      data.store(1);
      flag.store(1, store_o);
    });
    prog.thread([=] {
      if (flag.load(load_o) == 1) wmm::observe(data.load());
    });
    const wmm::ExploreResult res = wmm::explore(prog);
    if (ordered) {
      EXPECT_TRUE(res.ok());
    } else {
      ASSERT_FALSE(res.ok());
      EXPECT_EQ(res.violations.front().kind, "data-race");
      EXPECT_NE(res.violations.front().dump.find("rf="), std::string::npos)
          << "violation dumps must render reads-from edges";
    }
  }
}

// ------------------------------------------------------ cross-validation

struct RandOp {
  enum Kind : int { kLoad, kStore, kCas } kind = kLoad;
  std::uint32_t loc = 0;
  Value a = 0;  // store value / CAS expected
  Value b = 0;  // CAS desired
};

using RandProgram = std::vector<std::vector<RandOp>>;  // per thread

RandProgram random_program(std::uint64_t seed, std::uint32_t num_locs) {
  util::SplitMix64 rng{seed};
  RandProgram prog;
  const std::uint64_t threads = rng.range(2, 3);
  for (std::uint64_t t = 0; t < threads; ++t) {
    std::vector<RandOp> ops;
    const std::uint64_t n = rng.range(2, 3);
    for (std::uint64_t i = 0; i < n; ++i) {
      RandOp op;
      op.kind = static_cast<RandOp::Kind>(rng.below(3));
      op.loc = static_cast<std::uint32_t>(rng.below(num_locs));
      op.a = static_cast<Value>(rng.range(0, 2));
      op.b = static_cast<Value>(rng.range(1, 2));
      ops.push_back(op);
    }
    prog.push_back(std::move(ops));
  }
  return prog;
}

wmm::Program make_wmm_program(const RandProgram& spec,
                              std::uint32_t num_locs) {
  wmm::Program prog;
  std::vector<wmm::Atomic<Value>> locs;
  for (std::uint32_t l = 0; l < num_locs; ++l) {
    locs.push_back(prog.atomic<Value>("x" + std::to_string(l), 0));
  }
  for (const auto& ops : spec) {
    prog.thread([ops, locs] {
      for (const RandOp& op : ops) {
        switch (op.kind) {
          case RandOp::kLoad:
            wmm::observe(locs[op.loc].load(std::memory_order_seq_cst));
            break;
          case RandOp::kStore:
            locs[op.loc].store(op.a, std::memory_order_seq_cst);
            break;
          case RandOp::kCas: {
            Value e = op.a;
            wmm::observe(locs[op.loc].compare_exchange_strong(
                             e, op.b, std::memory_order_seq_cst,
                             std::memory_order_seq_cst)
                             ? 1
                             : 0);
            break;
          }
        }
      }
    });
  }
  return prog;
}

sim::Op sim_body(std::vector<RandOp> ops, std::vector<sim::ObjectId> objs,
                 sim::Ctx& ctx) {
  for (const RandOp& op : ops) {
    switch (op.kind) {
      case RandOp::kLoad:
        co_await ctx.read(objs[op.loc]);
        break;
      case RandOp::kStore:
        co_await ctx.write(objs[op.loc], op.a);
        break;
      case RandOp::kCas:
        co_await ctx.cas(objs[op.loc], op.a, op.b);
        break;
    }
  }
  co_return 0;
}

// Reachable joint outcomes (per-thread read/CAS results in program
// order, then final object values) under the sim model checker.
OutcomeSet sim_outcomes(const RandProgram& spec, std::uint32_t num_locs) {
  sim::Program prog;
  std::vector<sim::ObjectId> objs;
  for (std::uint32_t l = 0; l < num_locs; ++l) {
    objs.push_back(prog.add_object(0));
  }
  for (const auto& ops : spec) {
    prog.add_process([ops, objs](sim::Ctx& ctx) {
      return sim_body(ops, objs, ctx);
    });
  }
  OutcomeSet outcomes;
  const auto verdict = [&](const sim::System& sys) -> std::string {
    std::vector<Value> tuple;
    for (ProcId p = 0; p < prog.num_processes(); ++p) {
      for (const sim::Event& e : sys.trace()) {
        if (e.proc != p) continue;
        if (e.prim == sim::Prim::kRead || e.prim == sim::Prim::kCas) {
          tuple.push_back(e.observed);
        }
      }
    }
    for (sim::ObjectId o : objs) tuple.push_back(sys.value(o));
    outcomes.insert(std::move(tuple));
    return "";
  };
  const auto res = sim::model_check(prog, verdict);
  EXPECT_TRUE(res.ok) << res.message;
  EXPECT_TRUE(res.exhaustive);
  return outcomes;
}

TEST(WmmCrossValidation, Rc11EqualsInterleavingScOnSeqCstPrograms) {
  // For all-seq_cst programs the axiomatic semantics must collapse to
  // interleaving SC: same executions, same outcomes.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::uint32_t num_locs = 1 + seed % 2;
    const RandProgram spec = random_program(seed, num_locs);
    const wmm::Program prog = make_wmm_program(spec, num_locs);
    const wmm::ExploreResult rc11 = wmm::explore(prog);
    const wmm::ScResult sc = wmm::explore_sc(prog);
    EXPECT_TRUE(rc11.complete);
    EXPECT_EQ(rc11.joint, sc.joint)
        << "rc11: " << show(rc11.joint) << "\nsc:   " << show(sc.joint);
  }
}

TEST(WmmCrossValidation, Rc11EqualsSimModelCheckerOnSeqCstPrograms) {
  // Three independent engines -- the RC11 explorer, the wmm SC oracle,
  // and the coroutine sim model checker -- must agree exactly.
  for (std::uint64_t seed = 100; seed <= 115; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::uint32_t num_locs = 1 + seed % 2;
    const RandProgram spec = random_program(seed, num_locs);
    const wmm::Program prog = make_wmm_program(spec, num_locs);
    const OutcomeSet rc11 = wmm::explore(prog).joint;
    const OutcomeSet sim = sim_outcomes(spec, num_locs);
    EXPECT_EQ(rc11, sim)
        << "rc11: " << show(rc11) << "\nsim:  " << show(sim);
  }
}

// -------------------------------------------------------- protocol suite

TEST(WmmKernels, ShippedOrdersHaveZeroViolations) {
  // Acceptance bar: with the orders the production code ships, every
  // protocol kernel is clean over its *entire* RC11 execution space.
  for (const wmm::Kernel& kernel : wmm::protocol_kernels()) {
    SCOPED_TRACE(kernel.name);
    const wmm::ExploreResult res = wmm::check_kernel(kernel);
    EXPECT_TRUE(res.complete) << "state space not exhausted";
    EXPECT_GT(res.executions, 0u);
    EXPECT_EQ(res.violation_count, 0u)
        << (res.violations.empty()
                ? std::string{}
                : res.violations.front().message + "\n" +
                      res.violations.front().dump);
  }
}

TEST(WmmKernels, CounterKernelCoversBothOutcomesOfTheRace) {
  // Sanity that the kernel actually exercises contention: both the
  // one-round and two-round writer paths must appear among executions.
  const wmm::Kernel kernel =
      wmm::make_propagate_counter_kernel(RefreshPolicy::kConditional);
  const wmm::ExploreResult res = wmm::check_kernel(kernel);
  EXPECT_GE(res.executions, 2u);
  // Every consistent execution ends at 2 -- that is the invariant -- so
  // final_states must be exactly {(2,1,1)}.
  EXPECT_EQ(res.final_states, (OutcomeSet{{2, 1, 1}}));
}

// The two writers of the two-level kernel below: slots whose leaves of
// complete_shape(4) lie in different halves of the tree.
constexpr std::uint32_t kTwoLevelWriters[] = {0, 1};

TEST(WmmKernels, TwoLevelKernelWritersMeetOnlyAtTheRoot) {
  const util::TreeShape shape = util::complete_shape(4);
  const auto a = shape.leaf(kTwoLevelWriters[0]);
  const auto b = shape.leaf(kTwoLevelWriters[1]);
  EXPECT_NE(shape.parent(a), shape.parent(b));
  EXPECT_EQ(shape.parent(shape.parent(a)), shape.root());
  EXPECT_EQ(shape.parent(shape.parent(b)), shape.root());
}

// The production propagate_twice on a 2-level tree (complete_shape(4)),
// two increments from different subtrees: each climbs its own uncontended
// level, and the two meet only at the root, so the acquire node load must
// carry the sibling subtree's aggregate across a level boundary.  Not part
// of protocol_kernels(): the 2-leaf kernels are the shipped acceptance set.
wmm::Kernel two_level_counter_kernel(const maxreg::PropagateOrders& o) {
  wmm::Kernel k;
  k.name = "propagate-counter/two-level";
  const util::TreeShape shape = util::complete_shape(4);
  const std::vector<wmm::Atomic<Value>> cells =
      wmm::tree_cells(k.program, shape);
  for (const std::uint32_t leaf : kTwoLevelWriters) {
    k.program.thread([=] {
      cells[shape.leaf(leaf)].store(1, o.leaf_store);
      maxreg::propagate_twice(
          shape, [&](util::TreeShape::NodeId n) { return cells[n]; },
          shape.leaf(leaf), std::plus<Value>{}, RefreshPolicy::kConditional,
          o);
    });
  }
  k.invariant = [](const wmm::Graph& g) -> std::string {
    const std::vector<Value> root = g.mo_values(0);  // tree_cells: root = 0
    if (!std::is_sorted(root.begin(), root.end())) return "root regressed";
    if (g.final_value(0) != 2) return "lost increment";
    return "";
  };
  return k;
}

TEST(WmmKernels, TwoLevelPropagationAtShippedOrdersIsClean) {
  const wmm::ExploreResult res =
      wmm::check_kernel(two_level_counter_kernel({}));
  EXPECT_TRUE(res.complete) << "state space not exhausted";
  EXPECT_GT(res.executions, 0u);
  EXPECT_EQ(res.violation_count, 0u)
      << (res.violations.empty() ? std::string{}
                                 : res.violations.front().message + "\n" +
                                       res.violations.front().dump);
}

TEST(WmmKernels, TwoLevelPropagationNeedsTheAcquireNodeLoad) {
  maxreg::PropagateOrders weak;
  weak.node_load = std::memory_order_relaxed;
  const wmm::ExploreResult res =
      wmm::check_kernel(two_level_counter_kernel(weak), 1);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.violations.front().kind, "invariant");
}

// The f-array snapshot's reclaim handoff (ruco/snapshot/epoch.h), on the
// production pin / unpin / advance / reclaimable templates and the
// snapshot's own view orders.  A scanner pins, loads the root and, if it
// got view 1, reads the view's plain payload, then unpins.  An updater --
// standing in for every writer, so it also performs an advance that lands
// between its own pin-time epoch read and its displacement -- displaces
// view 1, stamps, advances twice more and rewrites the payload once the
// stamp is reclaimable.  Invariant: the payload read is race-free and sees
// the published 42.  Not part of protocol_kernels(): that list is the
// benchmark's pinned verification work.
wmm::Kernel reclaim_handoff_kernel(const snapshot::EpochOrders& eo,
                                   bool stamp_with_pin_epoch = false) {
  using Orders = snapshot::FArraySnapshot::Orders;
  wmm::Kernel k;
  k.name = "reclaim-handoff";
  auto root = k.program.atomic<Value>("root", 1);  // loc 0: view 1 installed
  auto epoch = k.program.atomic<Value>(
      "epoch", static_cast<Value>(snapshot::kFirstEpoch));  // loc 1
  auto slot = k.program.atomic<Value>(
      "slot", static_cast<Value>(snapshot::kQuiescent));  // loc 2
  auto pay = k.program.plain<Value>("pay", 42);  // loc 3: view 1's contents
  const auto slot_at = [=](std::uint32_t) { return slot; };
  k.program.thread([=] {
    snapshot::pin(epoch, slot, eo);
    const Value v = root.load(Orders::root_read);
    wmm::observe(v);
    if (v == 1) wmm::observe(pay.load());
    snapshot::unpin(slot, eo);
  });
  k.program.thread([=] {
    const auto pinned_at =
        static_cast<std::uint64_t>(epoch.load(eo.epoch_load));
    snapshot::AdvanceCursor cursor;
    snapshot::advance(epoch, slot_at, 1, cursor, pinned_at, 1, eo);
    Value expected = 1;
    root.compare_exchange_strong(expected, 2, Orders::cas_ok, Orders::cas_fail);
    const auto now = static_cast<std::uint64_t>(epoch.load(eo.epoch_load));
    const std::uint64_t stamp = stamp_with_pin_epoch ? pinned_at : now;
    std::uint64_t known =
        snapshot::advance(epoch, slot_at, 1, cursor, now, 1, eo);
    known = snapshot::advance(epoch, slot_at, 1, cursor, known, 1, eo);
    if (snapshot::reclaimable(stamp, known)) pay.store(0);
  });
  k.invariant = [](const wmm::Graph& g) -> std::string {
    for (const wmm::Event& e : g.events()) {
      if (e.kind == wmm::EventKind::kPlainLoad && e.value_read != 42) {
        return "scanner read a recycled view: payload " +
               std::to_string(e.value_read);
      }
    }
    return "";
  };
  return k;
}

TEST(WmmReclaim, HandoffAtShippedOrdersIsClean) {
  const wmm::ExploreResult res =
      wmm::check_kernel(reclaim_handoff_kernel(snapshot::EpochOrders{}));
  EXPECT_TRUE(res.complete) << "state space not exhausted";
  EXPECT_EQ(res.violation_count, 0u)
      << (res.violations.empty() ? std::string{}
                                 : res.violations.front().message + "\n" +
                                       res.violations.front().dump);
  // Both sides of the race are reachable: the scanner reads view 1, and
  // the updater rewrites it after the scanner unpinned.
  EXPECT_TRUE(res.outcomes.count({1, 42}) == 1) << show(res.outcomes);
  EXPECT_TRUE(std::any_of(res.final_states.begin(), res.final_states.end(),
                          [](const std::vector<Value>& f) {
                            return f[3] == 0;
                          }))
      << "the updater never reclaimed";
}

TEST(WmmReclaim, ReleasePinStoreLetsTheUpdaterRecycleAReadView) {
  // Without seq_cst the pin store may be ordered after the scanner's root
  // load: the advancer reads the slot quiescent while the scan reads view 1.
  snapshot::EpochOrders weak;
  weak.pin = std::memory_order_release;
  const wmm::ExploreResult res =
      wmm::check_kernel(reclaim_handoff_kernel(weak), 1);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.violations.front().kind, "data-race");
}

TEST(WmmReclaim, StampingWithThePinEpochRecyclesOneAdvanceEarly) {
  // The epoch moved between the updater's pin and its displacement, and
  // the scanner pinned at the newer epoch: a pin-epoch stamp is
  // reclaimable one advance before the scanner has to unpin.
  const wmm::ExploreResult res = wmm::check_kernel(
      reclaim_handoff_kernel(snapshot::EpochOrders{}, true), 1);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.violations.front().kind, "data-race");
}

TEST(WmmMutation, EveryWeakenedSiteHasAViolatingExecution) {
  const auto outcomes = wmm::run_mutation_driver();
  ASSERT_GE(outcomes.size(), 12u);
  bool saw_pr4 = false;
  for (const wmm::MutationOutcome& mo : outcomes) {
    SCOPED_TRACE(mo.id);
    EXPECT_TRUE(mo.found())
        << "weakening this site should be observable: " << mo.note;
    EXPECT_FALSE(mo.sample_dump.empty());
    saw_pr4 = saw_pr4 || mo.pr4_regression;
  }
  EXPECT_TRUE(saw_pr4) << "the PR-4 regression site must stay pinned";
}

TEST(WmmMutation, Pr4NodeLoadRegressionStaysMustFail) {
  // The permanent regression litmus: propagate_twice with the node load
  // weakened back to relaxed (the exact PR-4 bug) must exhibit a lost
  // increment or monotonicity regression on the conditional policy.
  maxreg::PropagateOrders weak;
  weak.node_load = std::memory_order_relaxed;
  const wmm::Kernel kernel = wmm::make_propagate_counter_kernel(
      RefreshPolicy::kConditional, weak);
  const wmm::ExploreResult res = wmm::check_kernel(kernel, 1);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.violations.front().kind, "invariant");
}

TEST(WmmMutation, OrderTableIsMinimalWhereItClaimsToBe)
{
  // The sites DESIGN.md deliberately does *not* strengthen stay clean
  // when relaxed: the child loads of the pure-counter propagation (the
  // integer payload needs only coherence; the acquire is for
  // pointer-carrying aggregates, covered by propagate-snapshot) and the
  // CAS failure order.
  for (const RefreshPolicy policy :
       {RefreshPolicy::kConditional, RefreshPolicy::kAlwaysTwice}) {
    maxreg::PropagateOrders o;
    o.child_load = std::memory_order_relaxed;
    const wmm::ExploreResult res =
        wmm::check_kernel(wmm::make_propagate_counter_kernel(policy, o));
    EXPECT_TRUE(res.complete);
    EXPECT_TRUE(res.ok())
        << "counter-kernel child loads should not be load-bearing";
  }
  maxreg::PropagateOrders o;
  o.cas_fail = std::memory_order_relaxed;
  const wmm::ExploreResult res = wmm::check_kernel(
      wmm::make_propagate_counter_kernel(RefreshPolicy::kConditional, o));
  EXPECT_TRUE(res.ok()) << "the CAS failure order is not load-bearing";
}

#if defined(RUCO_SEQCST_ATOMICS)
TEST(WmmSeqCstFallback, MutationSitesStillFailWithLiteralRelaxed) {
  // The mutation driver weakens sites with *literal*
  // std::memory_order_relaxed, bypassing the collapsed mo_* constants --
  // so even in this configuration it must keep finding violations
  // (proving the driver tests the sites, not the configuration).
  for (const wmm::MutationOutcome& mo : wmm::run_mutation_driver()) {
    SCOPED_TRACE(mo.id);
    EXPECT_TRUE(mo.found());
  }
}
#endif

// ------------------------------------------------------------- explorer

TEST(WmmExplorer, RejectsNondeterministicBodies) {
  wmm::Program prog;
  auto x = prog.atomic<Value>("x", 0);
  int calls = 0;
  prog.thread([=, &calls]() mutable {
    // Issues a different op on replay: the shim must reject it.
    if (++calls == 1) {
      x.store(1, std::memory_order_seq_cst);
    }
    x.load(std::memory_order_seq_cst);
  });
  EXPECT_THROW(wmm::explore(prog), std::logic_error);
}

TEST(WmmExplorer, OperationsOutsideExplorerThrow) {
  wmm::Program prog;
  auto x = prog.atomic<Value>("x", 0);
  EXPECT_THROW(x.load(std::memory_order_seq_cst), std::logic_error);
}

TEST(WmmExplorer, RendersCompleteExecutions) {
  // The dump must mention threads, orders and modification orders.
  maxreg::PropagateOrders weak;
  weak.node_load = std::memory_order_relaxed;
  const wmm::Kernel kernel = wmm::make_propagate_counter_kernel(
      RefreshPolicy::kConditional, weak);
  const wmm::ExploreResult res = wmm::check_kernel(kernel, 1);
  ASSERT_FALSE(res.violations.empty());
  const std::string& dump = res.violations.front().dump;
  EXPECT_NE(dump.find("thread T0"), std::string::npos);
  EXPECT_NE(dump.find("mo(node)"), std::string::npos);
  EXPECT_NE(dump.find("[rlx]"), std::string::npos);
}

}  // namespace
}  // namespace ruco
