#include "ruco/snapshot/farray_snapshot.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "ruco/maxreg/propagate.h"

namespace ruco::snapshot {

/// Node n's cell as propagate_twice sees it during writer w's update: the
/// production cell, plus the bookkeeping of each CAS outcome.  A won CAS
/// displaced `expected`, which w retires after its stamp; a lost one
/// published nothing, so its view goes straight back to w's free list.
class FArraySnapshot::NodeCell {
 public:
  NodeCell(FArraySnapshot& self, Writer& w, NodeId n)
      : self_{self}, w_{w}, cell_{self.nodes_[n]} {}

  View* load(std::memory_order mo) const { return cell_.load(mo); }

  bool compare_exchange_strong(View*& expected, View* desired,
                               std::memory_order ok,
                               std::memory_order fail) const {
    View* const displaced = expected;
    if (cell_.compare_exchange_strong(expected, desired, ok, fail)) {
      displaced->next = w_.displaced;
      w_.displaced = displaced;
      return true;
    }
    self_.give_back(w_, desired);
    return false;
  }

 private:
  FArraySnapshot& self_;
  Writer& w_;
  runtime::PaddedShared<View*>& cell_;
};

FArraySnapshot::FArraySnapshot(std::uint32_t num_processes)
    : n_{num_processes},
      shape_{util::complete_shape(num_processes)},
      slot_at_{shape_.leaf_order()},
      announce_(num_processes,
                runtime::PaddedShared<std::uint64_t>{kQuiescent}),
      writers_(num_processes) {
  if (num_processes == 0) {
    throw std::invalid_argument{"FArraySnapshot: 0 processes"};
  }
  // Build the initial per-node views bottom-up (single-threaded setup).
  // Nodes were appended children-before-parents by the shape builder, so a
  // forward pass sees children already built.
  for (NodeId id = 0; id < shape_.node_count(); ++id) {
    View& view = initial_views_.emplace_back();
    view.node = id;
    if (shape_.is_leaf(id)) {
      view.entries = {Entry{0, 0}};
    } else {
      const View& l = initial_views_[shape_.left(id)];
      const View& r = initial_views_[shape_.right(id)];
      view.entries = l.entries;
      view.entries.insert(view.entries.end(), r.entries.begin(),
                          r.entries.end());
    }
    nodes_.emplace_back(&view);
  }
  for (ProcId p = 0; p < n_; ++p) {
    Writer& w = writers_[p];
    const NodeId leaf = shape_.leaf(p);
    const std::size_t depths = shape_.depth(leaf) + 1;
    w.leaf = &initial_views_[leaf];
    w.ready.assign(depths, nullptr);
    w.limbo.assign(kBuckets * depths, ViewList{});
  }
}

FArraySnapshot::View* FArraySnapshot::take(Writer& w, NodeId node) {
  View*& head = w.ready[shape_.depth(node)];
  if (View* v = head) {
    head = v->next;
    return v;
  }
  View& fresh = w.arena.emplace_back();
  fresh.node = node;
  return &fresh;
}

FArraySnapshot::View* FArraySnapshot::merge(Writer& w, const View* l,
                                            const View* r) {
  View* v = take(w, shape_.parent(l->node));
  // A recycled view already has the node's size: no allocation.
  v->entries.resize(l->entries.size() + r->entries.size());
  std::copy(r->entries.begin(), r->entries.end(),
            std::copy(l->entries.begin(), l->entries.end(),
                      v->entries.begin()));
  return v;
}

void FArraySnapshot::give_back(Writer& w, View* v) {
  View*& head = w.ready[shape_.depth(v->node)];
  v->next = head;
  head = v;
}

void FArraySnapshot::retire(Writer& w, std::uint64_t stamp) {
  const std::size_t b = stamp % kBuckets;
  if (w.limbo_stamp[b] != stamp) {
    // A writer's stamps never decrease, so an older stamp in this bucket
    // is at most stamp - 3: reclaimable already.
    if (w.limbo_stamp[b] != 0) splice(w, b);
    w.limbo_stamp[b] = stamp;
  }
  const std::size_t depths = w.ready.size();
  for (View* v = w.displaced; v != nullptr;) {
    View* const next = v->next;
    ViewList& list = w.limbo[b * depths + shape_.depth(v->node)];
    v->next = list.head;
    if (list.head == nullptr) list.tail = v;
    list.head = v;
    v = next;
  }
  w.displaced = nullptr;
}

void FArraySnapshot::reclaim(Writer& w, std::uint64_t epoch) {
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (w.limbo_stamp[b] != 0 && reclaimable(w.limbo_stamp[b], epoch)) {
      splice(w, b);
      w.limbo_stamp[b] = 0;
    }
  }
}

void FArraySnapshot::splice(Writer& w, std::size_t bucket) {
  const std::size_t depths = w.ready.size();
  for (std::size_t d = 0; d < depths; ++d) {
    ViewList& list = w.limbo[bucket * depths + d];
    if (list.head == nullptr) continue;
    list.tail->next = w.ready[d];
    w.ready[d] = list.head;
    list = ViewList{};
  }
}

void FArraySnapshot::update(ProcId proc, Value v) {
  assert(proc < n_);
  if (v < 0) throw std::out_of_range{"FArraySnapshot: negative value"};
  Writer& w = writers_[proc];
  const NodeId leaf = shape_.leaf(proc);
  View* fresh = take(w, leaf);
  fresh->entries.assign(1, Entry{v, ++w.seq});
  pin(epoch_, announce_[proc]);
  nodes_[leaf].store(fresh, Orders::leaf_store);
  w.leaf->next = w.displaced;
  w.displaced = w.leaf;
  w.leaf = fresh;
  maxreg::propagate_twice(
      shape_, [&](NodeId n) { return NodeCell{*this, w, n}; }, leaf,
      [&](const View* l, const View* r) { return merge(w, l, r); },
      maxreg::RefreshPolicy::kConditional, Orders{});
  // The stamp is read after the last displacing CAS (epoch.h).
  const std::uint64_t stamp = epoch_.load(ShippedEpochOrders::epoch_load);
  retire(w, stamp);
  const auto slot = [this](std::uint32_t q) -> auto& { return announce_[q]; };
  reclaim(w, advance(epoch_, slot, n_, w.cursor, stamp, kChecksPerUpdate));
  unpin(announce_[proc]);
}

template <typename Out, typename Copy>
std::vector<Out> FArraySnapshot::read_root(ProcId proc, Copy copy) const {
  assert(proc < n_);
  std::vector<Out> out(n_);
  pin(epoch_, announce_[proc]);
  const View* root = nodes_[shape_.root()].load(Orders::root_read);
  for (std::uint32_t pos = 0; pos < n_; ++pos) {
    out[slot_at_[pos]] = copy(root->entries[pos]);
  }
  unpin(announce_[proc]);
  return out;
}

std::vector<Value> FArraySnapshot::scan(ProcId proc) const {
  return read_root<Value>(proc, [](const Entry& e) { return e.value; });
}

std::vector<std::pair<Value, std::uint64_t>> FArraySnapshot::scan_versions(
    ProcId proc) const {
  return read_root<std::pair<Value, std::uint64_t>>(
      proc, [](const Entry& e) { return std::pair{e.value, e.seq}; });
}

}  // namespace ruco::snapshot
