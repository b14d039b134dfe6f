#include "ruco/snapshot/double_collect_snapshot.h"

#include <cassert>
#include <stdexcept>

namespace ruco::snapshot {

DoubleCollectSnapshot::DoubleCollectSnapshot(std::uint32_t num_processes)
    : n_{num_processes},
      segments_(num_processes, runtime::PaddedShared<Packed>{pack(0, 0)}),
      seq_(num_processes, runtime::PaddedAtomic<std::uint64_t>{0}) {
  if (num_processes == 0) {
    throw std::invalid_argument{"DoubleCollectSnapshot: 0 processes"};
  }
}

void DoubleCollectSnapshot::update(ProcId proc, Value v) {
  assert(proc < n_);
  if (v < 0 || v > kMaxValue) {
    throw std::out_of_range{"DoubleCollectSnapshot: value out of range"};
  }
  // seq_ is single-writer bookkeeping, not a shared-memory step.
  const std::uint64_t s =
      seq_[proc].value.load(std::memory_order_relaxed) + 1;
  if (s > kMaxUpdatesPerProcess) {
    throw std::length_error{"DoubleCollectSnapshot: update bound exceeded"};
  }
  seq_[proc].value.store(s, std::memory_order_relaxed);
  segments_[proc].store(pack(v, s));
}

void DoubleCollectSnapshot::collect(std::vector<Packed>& out) const {
  out.clear();
  for (std::uint32_t i = 0; i < n_; ++i) {
    out.push_back(segments_[i].load());
  }
}

std::vector<Value> DoubleCollectSnapshot::scan(ProcId /*proc*/) const {
  std::vector<Packed> first;
  std::vector<Packed> second;
  first.reserve(n_);
  second.reserve(n_);
  collect(first);
  for (;;) {
    collect(second);
    if (first == second) {
      std::vector<Value> values;
      values.reserve(n_);
      for (const Packed p : second) values.push_back(unpack_value(p));
      return values;
    }
    first.swap(second);
  }
}

}  // namespace ruco::snapshot
