#include "ruco/wmm/kernels.h"

#include <functional>
#include <sstream>
#include <utility>

#include "ruco/maxreg/propagate.h"

namespace ruco::wmm {

namespace {

// Invariant helper: every plain load in the graph observed the value
// its location publishes (42 for F-style fields, 9 for G, 1 for payload
// versions) -- a mismatch is a torn/stale read that slipped past the
// race detector, which by construction cannot happen; the race detector
// itself reports the interesting executions.  Kept as a belt-and-braces
// second condition.
std::string check_plain_reads(const Graph& g, LocId loc, Value expected) {
  for (const Event& e : g.events()) {
    if (e.kind != EventKind::kPlainLoad || e.loc != loc) continue;
    if (e.value_read != expected) {
      std::ostringstream out;
      out << "stale plain read of '" << g.locations()[loc].name << "': got "
          << e.value_read << ", published value is " << expected;
      return out.str();
    }
  }
  return "";
}

std::string check_monotone(const Graph& g, LocId loc) {
  const auto vals = g.mo_values(loc);
  for (std::size_t i = 0; i + 1 < vals.size(); ++i) {
    if (vals[i + 1] < vals[i]) {
      std::ostringstream out;
      out << "monotonicity regression on '" << g.locations()[loc].name
          << "': modification order writes " << vals[i] << " then "
          << vals[i + 1];
      return out.str();
    }
  }
  return "";
}

// `Orders` at the shipped values except `site`, weakened to relaxed.
template <typename Orders>
Orders relaxed_at(std::memory_order Orders::*site) {
  Orders o;
  o.*site = std::memory_order_relaxed;
  return o;
}

}  // namespace

std::vector<Atomic<Value>> tree_cells(Program& program,
                                      const util::TreeShape& shape) {
  std::vector<Atomic<Value>> cells(shape.node_count());
  cells[shape.root()] = program.atomic<Value>("node", 0);
  for (util::TreeShape::NodeId n = 0; n < shape.node_count(); ++n) {
    if (n == shape.root()) continue;
    cells[n] = program.atomic<Value>(
        std::string{"n"}.append(std::to_string(n)), 0);
  }
  return cells;
}

Kernel make_propagate_counter_kernel(maxreg::RefreshPolicy policy,
                                     const maxreg::PropagateOrders& o) {
  const bool conditional = policy == maxreg::RefreshPolicy::kConditional;
  Kernel k;
  k.name = conditional ? "propagate-counter/conditional"
                       : "propagate-counter/always-twice";
  k.description =
      "propagate_twice on a 2-leaf tree, two concurrent increments";
  const util::TreeShape shape = util::complete_shape(2);
  const std::vector<Atomic<Value>> cells = tree_cells(k.program, shape);
  // One writer per leaf: FArray::update's leaf store, then the production
  // propagate loop (combine = sum).
  for (std::uint32_t i = 0; i < 2; ++i) {
    k.program.thread([=] {
      cells[shape.leaf(i)].store(1, o.leaf_store);
      maxreg::propagate_twice(
          shape, [&](util::TreeShape::NodeId n) { return cells[n]; },
          shape.leaf(i), std::plus<Value>{}, policy, o);
    });
  }
  k.invariant = [](const Graph& g) -> std::string {
    if (auto msg = check_monotone(g, 0); !msg.empty()) return msg;
    if (g.final_value(0) != 2) {
      std::ostringstream out;
      out << "lost increment: final node value " << g.final_value(0)
          << ", expected 2";
      return out.str();
    }
    return "";
  };
  return k;
}

Kernel make_propagate_snapshot_kernel(const maxreg::PropagateOrders& o) {
  Kernel k;
  k.name = "propagate-snapshot";
  k.description =
      "propagation over pointer-carrying leaves: payload published "
      "before the leaf store, dereferenced by the combine behind the "
      "child loads";
  const util::TreeShape shape = util::complete_shape(2);
  const std::vector<Atomic<Value>> cells = tree_cells(k.program, shape);
  const std::vector<Plain<Value>> pay = {k.program.plain<Value>("p0", 0),
                                         k.program.plain<Value>("p1", 0)};
  // The snapshot merge: dereference every published view it combines.
  const auto combine = [=](Value lv, Value rv) {
    if (lv == 1) observe(pay[0].load());
    if (rv == 1) observe(pay[1].load());
    return lv + rv;
  };
  for (std::uint32_t i = 0; i < 2; ++i) {
    k.program.thread([=] {
      pay[i].store(1);  // the "snapshot view" behind the leaf
      cells[shape.leaf(i)].store(1, o.leaf_store);
      maxreg::propagate_twice(
          shape, [&](util::TreeShape::NodeId n) { return cells[n]; },
          shape.leaf(i), combine, maxreg::RefreshPolicy::kConditional, o);
    });
  }
  k.invariant = [](const Graph& g) -> std::string {
    if (auto msg = check_plain_reads(g, 3, 1); !msg.empty()) return msg;
    return check_plain_reads(g, 4, 1);
  };
  return k;
}

Kernel make_root_read_kernel(const maxreg::PropagateOrders& o) {
  Kernel k;
  k.name = "root-read";
  k.description =
      "TreeMaxRegister read fast path: acquire root load justifies a "
      "plain read of data published before the install CAS";
  auto root = k.program.atomic<Value>("root", 0);  // loc 0
  auto leaf = k.program.atomic<Value>("leaf", 0);  // loc 1
  auto pay = k.program.plain<Value>("pay", 0);     // loc 2
  k.program.thread([=] {
    pay.store(1);
    leaf.store(1, o.leaf_store);
    Value old_v = root.load(o.node_load);
    const Value lv = leaf.load(o.child_load);
    if (lv != old_v) {
      root.compare_exchange_strong(old_v, lv, o.cas_ok, o.cas_fail);
    }
  });
  k.program.thread([=] {
    const Value v = root.load(o.root_read);
    observe(v);
    if (v == 1) observe(pay.load());
  });
  k.invariant = [](const Graph& g) -> std::string {
    return check_plain_reads(g, 2, 1);
  };
  return k;
}

Kernel make_leaf_handoff_kernel(const maxreg::PropagateOrders& o) {
  Kernel k;
  k.name = "leaf-handoff";
  k.description =
      "leaf-store -> propagate handoff: a helper observes the released "
      "leaf and completes the propagation for the writer";
  auto root = k.program.atomic<Value>("root", 0);  // loc 0
  auto leaf = k.program.atomic<Value>("leaf", 0);  // loc 1
  auto pay = k.program.plain<Value>("pay", 0);     // loc 2
  k.program.thread([=] {
    pay.store(1);
    leaf.store(1, o.leaf_store);
  });
  k.program.thread([=] {
    const Value lv = leaf.load(o.child_load);
    observe(lv);
    if (lv == 1) {
      observe(pay.load());
      Value old_v = root.load(o.node_load);
      root.compare_exchange_strong(old_v, lv, o.cas_ok, o.cas_fail);
    }
  });
  k.invariant = [](const Graph& g) -> std::string {
    if (auto msg = check_plain_reads(g, 2, 1); !msg.empty()) return msg;
    // If the helper saw the leaf, the handoff must land: final root 1.
    for (const Event& e : g.events()) {
      if (e.thread == 1 && e.kind == EventKind::kLoad && e.loc == 1 &&
          e.value_read == 1 && g.final_value(0) != 1) {
        return "handoff dropped: helper saw the leaf but the root stayed " +
               std::to_string(g.final_value(0));
      }
    }
    return "";
  };
  return k;
}

Kernel make_mcas_publication_kernel(const McasOrders& o) {
  constexpr Value kDesc = 7;       // "pointer to" the descriptor
  constexpr Value kSucceeded = 1;  // status value
  Kernel k;
  k.name = "mcas-publication";
  k.description =
      "MCAS descriptor publication (kcas/mcas.cpp): plain descriptor "
      "fields published by the install CAS, helper result published "
      "back by the status decide CAS";
  auto cell = k.program.atomic<Value>("cell", 0);      // loc 0
  auto status = k.program.atomic<Value>("status", 0);  // loc 1
  auto field = k.program.plain<Value>("field", 0);     // loc 2: owner-written
  auto result = k.program.plain<Value>("result", 0);   // loc 3: helper-written
  k.program.thread([=] {
    // Owner: fill the descriptor, install it, then read the outcome.
    field.store(42);
    Value e = 0;
    cell.compare_exchange_strong(e, kDesc, o.install_ok, o.install_fail);
    const Value s = status.load(o.status_read);
    observe(s);
    if (s == kSucceeded) observe(result.load());
  });
  k.program.thread([=] {
    // Helper: sees the descriptor through the cell, reads its fields,
    // writes its contribution, then decides the status.
    const Value c = cell.load(o.cell_load);
    observe(c);
    if (c == kDesc) {
      observe(field.load());
      result.store(9);
      Value e = 0;
      status.compare_exchange_strong(e, kSucceeded, o.status_decide,
                                     o.status_decide_fail);
    }
  });
  k.invariant = [](const Graph& g) -> std::string {
    if (auto msg = check_plain_reads(g, 2, 42); !msg.empty()) return msg;
    return check_plain_reads(g, 3, 9);
  };
  return k;
}

std::vector<Kernel> protocol_kernels() {
  std::vector<Kernel> out;
  out.push_back(
      make_propagate_counter_kernel(maxreg::RefreshPolicy::kConditional));
  out.push_back(
      make_propagate_counter_kernel(maxreg::RefreshPolicy::kAlwaysTwice));
  out.push_back(make_propagate_snapshot_kernel());
  out.push_back(make_root_read_kernel());
  out.push_back(make_leaf_handoff_kernel());
  out.push_back(make_mcas_publication_kernel());
  return out;
}

ExploreResult check_kernel(const Kernel& kernel, std::size_t max_violations) {
  ExploreOptions opts;
  opts.invariant = kernel.invariant;
  opts.max_violations = max_violations;
  return explore(kernel.program, opts);
}

std::vector<MutationSite> mutation_sites() {
  using maxreg::RefreshPolicy;
  using PO = maxreg::PropagateOrders;
  std::vector<MutationSite> out;

  // `make` builds the kernel from the orders with `site` relaxed.
  auto add = [&](std::string id, std::string note, auto site, auto make,
                 bool pr4 = false) {
    out.push_back(MutationSite{std::move(id), std::move(note), pr4, [=] {
                                 return make(relaxed_at(site));
                               }});
  };

  for (const RefreshPolicy policy :
       {RefreshPolicy::kConditional, RefreshPolicy::kAlwaysTwice}) {
    const bool conditional = policy == RefreshPolicy::kConditional;
    const std::string kname = conditional
                                  ? "propagate-counter/conditional"
                                  : "propagate-counter/always-twice";
    const auto make = [policy](const PO& o) {
      return make_propagate_counter_kernel(policy, o);
    };
    add(kname + ":node_load acq->rlx",
        "the PR-4 bug: a fresh node beside stale child loads lets the "
        "no-change skip drop a sibling's increment or the CAS regress "
        "the monotone aggregate",
        &PO::node_load, make, /*pr4=*/conditional);
    add(kname + ":cas_ok rel->rlx",
        "without the release the installing CAS publishes nothing: the "
        "sibling's acquire node load gets no synchronizes-with edge and "
        "its child loads may be stale",
        &PO::cas_ok, make);
  }

  add("propagate-snapshot:child_load acq->rlx",
      "a relaxed child load sees the leaf but not the payload written "
      "before it: torn snapshot view (data race)",
      &PO::child_load, make_propagate_snapshot_kernel);
  add("propagate-snapshot:leaf_store rel->rlx",
      "a relaxed leaf store publishes nothing: the sibling dereferences "
      "an unpublished payload (data race)",
      &PO::leaf_store, make_propagate_snapshot_kernel);

  add("root-read:root_read acq->rlx",
      "the read fast path sees the installed root but races the data "
      "published before the install",
      &PO::root_read, make_root_read_kernel);
  add("root-read:cas_ok rel->rlx",
      "a relaxed install CAS gives the acquire fast-path load no "
      "release to synchronize with",
      &PO::cas_ok, make_root_read_kernel);

  add("leaf-handoff:leaf_store rel->rlx",
      "the helper observes the leaf but races the writer's payload",
      &PO::leaf_store, make_leaf_handoff_kernel);
  add("leaf-handoff:child_load acq->rlx",
      "a relaxed helper load discards the writer's release: payload race",
      &PO::child_load, make_leaf_handoff_kernel);

  add("mcas-publication:install_ok acq_rel->rlx",
      "a relaxed install CAS publishes no descriptor fields: helpers "
      "read a torn descriptor",
      &McasOrders::install_ok, make_mcas_publication_kernel);
  add("mcas-publication:cell_load acq->rlx",
      "a relaxed helper cell load sees the descriptor pointer but races "
      "its fields",
      &McasOrders::cell_load, make_mcas_publication_kernel);
  add("mcas-publication:status_decide acq_rel->rlx",
      "a relaxed decide CAS publishes no helper-side writes: the owner "
      "races the helper's result",
      &McasOrders::status_decide, make_mcas_publication_kernel);
  add("mcas-publication:status_read acq->rlx",
      "a relaxed owner status load discards the decide CAS's release: "
      "result race",
      &McasOrders::status_read, make_mcas_publication_kernel);

  return out;
}

std::vector<MutationOutcome> run_mutation_driver() {
  std::vector<MutationOutcome> out;
  for (const MutationSite& site : mutation_sites()) {
    const Kernel kernel = site.make();
    const ExploreResult res = check_kernel(kernel, /*max_violations=*/1);
    MutationOutcome mo;
    mo.id = site.id;
    mo.note = site.note;
    mo.pr4_regression = site.pr4_regression;
    mo.violation_count = res.violation_count;
    if (!res.violations.empty()) {
      mo.sample_kind = res.violations.front().kind;
      mo.sample_message = res.violations.front().message;
      mo.sample_dump = res.violations.front().dump;
    }
    out.push_back(std::move(mo));
  }
  return out;
}

}  // namespace ruco::wmm
