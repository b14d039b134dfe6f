#include "ruco/snapshot/farray_snapshot.h"

#include <cassert>
#include <stdexcept>

#include "ruco/maxreg/propagate.h"
#include "ruco/runtime/memorder.h"

namespace ruco::snapshot {

FArraySnapshot::FArraySnapshot(std::uint32_t num_processes)
    : n_{num_processes},
      shape_{util::complete_shape(num_processes)},
      slot_at_{shape_.leaf_order()},
      arenas_(num_processes),
      seq_(num_processes, runtime::PaddedAtomic<std::uint64_t>{0}) {
  if (num_processes == 0) {
    throw std::invalid_argument{"FArraySnapshot: 0 processes"};
  }
  // Build the initial per-node views bottom-up (single-threaded setup).
  std::vector<const View*> built(shape_.node_count(), nullptr);
  // Nodes were appended children-before-parents by the shape builder, so a
  // forward pass sees children already built.
  for (util::TreeShape::NodeId id = 0; id < shape_.node_count(); ++id) {
    View view;
    if (shape_.is_leaf(id)) {
      view.entries = {Entry{0, 0}};
    } else {
      const View* l = built[shape_.left(id)];
      const View* r = built[shape_.right(id)];
      view.entries = l->entries;
      view.entries.insert(view.entries.end(), r->entries.begin(),
                          r->entries.end());
    }
    initial_views_.push_back(std::move(view));
    built[id] = &initial_views_.back();
    nodes_.emplace_back(built[id]);
  }
}

const FArraySnapshot::View* FArraySnapshot::concat(ProcId proc,
                                                   const View* l,
                                                   const View* r) {
  View merged;
  merged.entries.reserve(l->entries.size() + r->entries.size());
  merged.entries = l->entries;
  merged.entries.insert(merged.entries.end(), r->entries.begin(),
                        r->entries.end());
  arenas_[proc].push_back(std::move(merged));
  return &arenas_[proc].back();
}

void FArraySnapshot::update(ProcId proc, Value v) {
  assert(proc < n_);
  if (v < 0) throw std::out_of_range{"FArraySnapshot: negative value"};
  const std::uint64_t s =
      seq_[proc].value.load(std::memory_order_relaxed) + 1;
  seq_[proc].value.store(s, std::memory_order_relaxed);
  View leaf_view;
  leaf_view.entries = {Entry{v, s}};
  arenas_[proc].push_back(std::move(leaf_view));
  const View* leaf_ptr = &arenas_[proc].back();
  const auto leaf = shape_.leaf(proc);
  // Release publishes the freshly built View behind leaf_ptr; every reader
  // of this cell (propagate_twice's acquire child loads, scan's acquire
  // root load) dereferences it.
  nodes_[leaf].store(leaf_ptr, runtime::mo_release);
  maxreg::propagate_twice(
      shape_, maxreg::padded_cells(nodes_), leaf,
      [this, proc](const View* l, const View* r) { return concat(proc, l, r); });
}

std::vector<Value> FArraySnapshot::scan(ProcId /*proc*/) const {
  const View* root = nodes_[shape_.root()].load(runtime::mo_acquire);
  std::vector<Value> values(n_);
  for (std::uint32_t pos = 0; pos < n_; ++pos) {
    values[slot_at_[pos]] = root->entries[pos].value;
  }
  return values;
}

std::vector<std::pair<Value, std::uint64_t>> FArraySnapshot::scan_versions(
    ProcId /*proc*/) const {
  const View* root = nodes_[shape_.root()].load(runtime::mo_acquire);
  std::vector<std::pair<Value, std::uint64_t>> out(n_);
  for (std::uint32_t pos = 0; pos < n_; ++pos) {
    const Entry& e = root->entries[pos];
    out[slot_at_[pos]] = {e.value, e.seq};
  }
  return out;
}

}  // namespace ruco::snapshot
