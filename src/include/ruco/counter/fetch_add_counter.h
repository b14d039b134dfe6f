// Hardware fetch_add counter: O(1) read, O(1) increment.  Outside the
// paper's read/write/CAS model (fetch_add is a stronger primitive), included
// to show on real hardware what the model forbids: Theorem 1 proves no
// read/write/CAS counter can match this point of the tradeoff space.
#pragma once

#include "ruco/core/types.h"
#include "ruco/runtime/stepcount.h"

namespace ruco::counter {

class FetchAddCounter {
 public:
  [[nodiscard]] Value read(ProcId proc) const;
  void increment(ProcId proc);

 private:
  runtime::PaddedShared<Value> count_{0};
};

}  // namespace ruco::counter
