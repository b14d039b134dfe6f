// The AAC counter with *value-sensitive* cost and no preset use bound:
// identical tree-of-max-registers structure to counter::MaxRegCounter, but
// the internal nodes are UnboundedAacMaxRegister (AAC composed along a
// Bentley-Yao spine) instead of M-bounded registers.  With C increments
// performed so far:
//
//   CounterRead      : O(log C) steps
//   CounterIncrement : O(log N * log C) steps
//
// -- "restricted use" becomes a property of the execution (costs grow with
// the count actually reached) rather than a constructor parameter.  Still
// reads and writes only.  The memory envelope of the unbounded registers
// (2^26-ish values) is the only hard limit, and it is loud.
#pragma once

#include <cstdint>
#include <limits>

#include "ruco/core/types.h"
#include "ruco/counter/maxreg_counter.h"
#include "ruco/maxreg/unbounded_aac_max_register.h"

namespace ruco::counter {

class UnboundedMaxRegCounter
    : public detail::MaxRegTree<maxreg::UnboundedAacMaxRegister> {
 public:
  /// Read: O(log current-count) steps; increment: O(log N *
  /// log current-count) steps.
  explicit UnboundedMaxRegCounter(std::uint32_t num_processes,
                                  std::uint32_t max_groups = 20)
      : MaxRegTree{num_processes, std::numeric_limits<Value>::max(),
                   max_groups} {}
};

}  // namespace ruco::counter
