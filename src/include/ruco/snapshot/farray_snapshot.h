// Jayanti f-array single-writer snapshot (PODC'02, reference [14]; the
// paper's Section 3 notes the construction "can be made to work also using
// CAS instead" of LL/SC -- this is that CAS variant):
//
//   Scan   : O(1) steps -- pin, read one root pointer to a view, unpin.
//   Update : O(log N) steps -- write own leaf, double-CAS-merge the path,
//            then a constant amount of reclamation.
//
// Together with Corollary 1 this object witnesses that the snapshot
// tradeoff is tight at the f(N) = O(1) end: Scan O(1) forces Update
// Omega(log N), and the f-array meets it.
//
// Every node stores a pointer to a View of its subtree's (value, seq)
// pairs, immutable while reachable.  Views are componentwise seq-monotone,
// so the double-CAS propagation argument of Algorithm A (Lemmas 8-9)
// applies once the CAS is ABA-free.
//
// Views are recycled through the epoch protocol of ruco/snapshot/epoch.h,
// and its grace period is what makes the CAS ABA-free: an update and a scan
// stay pinned from before their first pointer load to after their last
// use, a view displaced from its node is rewritten only after the epoch has
// moved two past the stamp its displacer read after displacing it, and
// that cannot happen while any operation that might still read the view,
// or still expect it in a CAS, is pinned.  So a pointer a pinned operation
// loaded names the same contents until it unpins, and a CAS expecting a
// displaced view fails.
//
// Memory.  Each writer keeps, per depth of its own leaf-to-root path, a
// free list and three limbo lists (by stamp mod 3).  A view that loses its
// CAS was never seen and goes straight back to the free list; the writer
// retires what it displaced -- the `expected` of each winning CAS and its
// own previous leaf view -- and moves a limbo bucket to the free lists in
// O(levels) once its stamp is reclaimable.  No update does more than that;
// the epoch advances after a writer's cursor has found every announce slot
// quiescent or current, kChecksPerUpdate slots per update.  An empty free
// list means a fresh allocation, so progress never waits for reclamation:
// while no operation stalls mid-call, steady state allocates nothing; a
// process stalled while pinned holds the epoch back, and the others
// allocate for as long as it stays stalled.
//
// Contract: one thread per ProcId, for scan as well as update -- a scan
// pins the announce slot of the ProcId it is given, so two threads
// scanning (or updating) as the same ProcId at once would unpin each other.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/runtime/memorder.h"
#include "ruco/runtime/padded.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/snapshot/epoch.h"
#include "ruco/util/tree_shape.h"

namespace ruco::snapshot {

class FArraySnapshot {
 public:
  /// Orders of the view accesses, passed to propagate_twice.  Every load or
  /// write of a view pointer is seq_cst so it joins the pin stores and the
  /// epoch reads in one total order (epoch.h); the CAS failure order is
  /// relaxed because round two reloads everything.
  struct Orders {
    static constexpr std::memory_order leaf_store = runtime::mo_seq_cst;
    static constexpr std::memory_order node_load = runtime::mo_seq_cst;
    static constexpr std::memory_order child_load = runtime::mo_seq_cst;
    static constexpr std::memory_order cas_ok = runtime::mo_seq_cst;
    static constexpr std::memory_order cas_fail = runtime::mo_relaxed;
    static constexpr std::memory_order root_read = runtime::mo_seq_cst;
  };

  /// Announce slots an update checks toward advancing the epoch.
  static constexpr std::uint32_t kChecksPerUpdate = 2;
  /// Steps an update spends on reclamation at most: the pin (epoch load +
  /// announce store), the stamp load, kChecksPerUpdate announce loads, the
  /// advancing CAS of a completed pass, the unpin store.
  static constexpr std::uint64_t kReclaimSteps =
      2 + 1 + kChecksPerUpdate + 1 + 1;

  explicit FArraySnapshot(std::uint32_t num_processes);

  /// Atomically sets segment `proc` to v >= 0.  O(log N) steps.
  void update(ProcId proc, Value v);

  /// All N segments at one instant.  Four steps: pin (2), root load, unpin.
  [[nodiscard]] std::vector<Value> scan(ProcId proc) const;

  /// Scan returning (value, seq) pairs -- used by the monotonicity
  /// property tests.
  [[nodiscard]] std::vector<std::pair<Value, std::uint64_t>> scan_versions(
      ProcId proc) const;

  [[nodiscard]] std::uint32_t num_processes() const noexcept { return n_; }

 private:
  using NodeId = util::TreeShape::NodeId;
  struct Entry {
    Value value = 0;
    std::uint64_t seq = 0;
  };
  struct View {
    std::vector<Entry> entries;  // one per leaf of the node's subtree, in
                                 // left-to-right leaf position order
    NodeId node = 0;             // the node it is built for, for life
    View* next = nullptr;        // list link, touched by its holder only
  };
  struct ViewList {
    View* head = nullptr;
    View* tail = nullptr;
  };
  static constexpr std::size_t kBuckets = 3;  // limbo lists by stamp mod 3
  /// A writer's private state; pools are indexed by node depth, which
  /// names a node of its own path uniquely.
  struct alignas(runtime::kCacheLine) Writer {
    std::uint64_t seq = 0;
    View* leaf = nullptr;       // the view it last stored in its leaf
    View* displaced = nullptr;  // displaced this update, awaiting a stamp
    AdvanceCursor cursor;
    std::array<std::uint64_t, kBuckets> limbo_stamp{};  // 0: bucket empty
    std::vector<View*> ready;     // free lists: views nobody can still read
    std::vector<ViewList> limbo;  // kBuckets x path depths
    std::deque<View> arena;       // the views it allocated
  };
  class NodeCell;

  template <typename Out, typename Copy>
  std::vector<Out> read_root(ProcId proc, Copy copy) const;
  [[nodiscard]] View* take(Writer& w, NodeId node);
  [[nodiscard]] View* merge(Writer& w, const View* l, const View* r);
  void give_back(Writer& w, View* v);
  void retire(Writer& w, std::uint64_t stamp);
  void reclaim(Writer& w, std::uint64_t epoch);
  void splice(Writer& w, std::size_t bucket);

  std::uint32_t n_;
  util::TreeShape shape_;
  std::vector<std::uint32_t> slot_at_;  // root view position -> process
  std::vector<runtime::PaddedShared<View*>> nodes_;
  std::deque<View> initial_views_;  // built at construction
  runtime::PaddedShared<std::uint64_t> epoch_{kFirstEpoch};
  // Scans pin too, so the announce slots are mutable under a const scan.
  mutable std::vector<runtime::PaddedShared<std::uint64_t>> announce_;
  std::vector<Writer> writers_;
};

}  // namespace ruco::snapshot
