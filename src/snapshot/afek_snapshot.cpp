#include "ruco/snapshot/afek_snapshot.h"

#include <cassert>
#include <stdexcept>

namespace ruco::snapshot {

AfekSnapshot::AfekSnapshot(std::uint32_t num_processes)
    : n_{num_processes}, arenas_(num_processes) {
  if (num_processes == 0) {
    throw std::invalid_argument{"AfekSnapshot: 0 processes"};
  }
  segments_.assign(num_processes,
                   runtime::PaddedShared<const Record*>{&initial_});
}

std::vector<Value> AfekSnapshot::scan(ProcId /*proc*/) const {
  std::vector<const Record*> first(n_);
  std::vector<const Record*> second(n_);
  std::vector<bool> moved(n_, false);
  for (std::uint32_t i = 0; i < n_; ++i) {
    first[i] = segments_[i].load();
  }
  for (;;) {
    for (std::uint32_t i = 0; i < n_; ++i) {
      second[i] = segments_[i].load();
    }
    bool clean = true;
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (first[i] == second[i]) continue;
      clean = false;
      if (moved[i]) {
        // Segment i changed twice during this scan, so its current record's
        // embedded view was collected entirely within our interval: borrow.
        return second[i]->view;
      }
      moved[i] = true;
    }
    if (clean) {
      std::vector<Value> values;
      values.reserve(n_);
      for (const Record* r : second) values.push_back(r->value);
      return values;
    }
    first.swap(second);
  }
}

void AfekSnapshot::update(ProcId proc, Value v) {
  assert(proc < n_);
  if (v < 0) throw std::out_of_range{"AfekSnapshot: negative value"};
  std::vector<Value> embedded = scan(proc);
  auto& arena = arenas_[proc];
  const std::uint64_t seq = arena.empty() ? 1 : arena.back().seq + 1;
  arena.push_back(Record{v, seq, std::move(embedded)});
  segments_[proc].store(&arena.back());
}

}  // namespace ruco::snapshot
