// Jayanti f-array single-writer snapshot (PODC'02, reference [14]; the
// paper's Section 3 notes the construction "can be made to work also using
// CAS instead" of LL/SC -- this is that CAS variant):
//
//   Scan   : O(1) steps  -- read one root pointer to an immutable view.
//   Update : O(log N) steps -- write own leaf, double-CAS-merge the path.
//
// Together with Corollary 1 this object witnesses that the snapshot
// tradeoff is tight at the f(N) = O(1) end: Scan O(1) forces Update
// Omega(log N), and the f-array meets it.
//
// Every node stores a pointer to an immutable View of its subtree's
// (value, seq) pairs.  Merging allocates a fresh View from the updating
// process's arena; pointers never repeat, so CAS is ABA-free, and views are
// componentwise seq-monotone, so the double-CAS propagation argument of
// Algorithm A (Lemmas 8-9) applies verbatim.  Views live until the object
// dies: the restricted-use memory model (bounded updates, no reclamation).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/runtime/padded.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/util/tree_shape.h"

namespace ruco::snapshot {

class FArraySnapshot {
 public:
  explicit FArraySnapshot(std::uint32_t num_processes);

  /// Atomically sets segment `proc` to v >= 0.  O(log N) steps.
  void update(ProcId proc, Value v);

  /// All N segments at one instant.  One shared-memory step.
  [[nodiscard]] std::vector<Value> scan(ProcId proc) const;

  /// Scan returning (value, seq) pairs -- used by the monotonicity
  /// property tests.
  [[nodiscard]] std::vector<std::pair<Value, std::uint64_t>> scan_versions(
      ProcId proc) const;

  [[nodiscard]] std::uint32_t num_processes() const noexcept { return n_; }

 private:
  struct Entry {
    Value value = 0;
    std::uint64_t seq = 0;
  };
  struct View {
    std::vector<Entry> entries;  // one per leaf of the node's subtree, in
                                 // left-to-right leaf position order
  };

  [[nodiscard]] const View* concat(ProcId proc, const View* l, const View* r);

  std::uint32_t n_;
  util::TreeShape shape_;
  std::vector<std::uint32_t> slot_at_;  // root view position -> process
  std::vector<runtime::PaddedShared<const View*>> nodes_;
  std::deque<View> initial_views_;          // built at construction
  std::vector<std::deque<View>> arenas_;    // owner-only appenders
  std::vector<runtime::PaddedAtomic<std::uint64_t>> seq_;  // per-writer
};

}  // namespace ruco::snapshot
