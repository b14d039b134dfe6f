#include "ruco/maxreg/aac_max_register.h"

#include <cassert>
#include <stdexcept>

#include "ruco/util/bits.h"

namespace ruco::maxreg {

AacMaxRegister::AacMaxRegister(Value bound)
    : bound_{bound}, levels_{0} {
  if (bound < 1) throw std::invalid_argument{"AacMaxRegister: bound < 1"};
  const std::uint64_t capacity =
      util::next_pow2(static_cast<std::uint64_t>(bound));
  levels_ = util::floor_log2(capacity);
  // Heap-ordered internal nodes 1 .. capacity-1 (index 0 unused).
  switches_ = std::vector<runtime::Shared<std::uint8_t>>(capacity);
}

Value AacMaxRegister::read_max(ProcId /*proc*/) const {
  if (any_write_.load() == 0) return kNoValue;
  std::uint64_t node = 1;
  Value acc = 0;
  Value half = levels_ > 0 ? Value{1} << (levels_ - 1) : 0;
  for (std::uint32_t d = 0; d < levels_; ++d, half >>= 1) {
    if (switches_[node].load() != 0) {
      acc += half;
      node = 2 * node + 1;
    } else {
      node = 2 * node;
    }
  }
  return acc;
}

void AacMaxRegister::write_max(ProcId /*proc*/, Value v) {
  if (v < 0) {
    throw std::out_of_range{"AacMaxRegister::write_max: negative operand"};
  }
  if (v >= bound_) {
    throw std::out_of_range{"AacMaxRegister::write_max: operand >= bound"};
  }
  // Descend by v's bits, remembering right turns; abandon on a set switch at
  // a left turn (a larger value is already fully recorded to our right).
  std::uint64_t node = 1;
  Value half = levels_ > 0 ? Value{1} << (levels_ - 1) : 0;
  std::uint64_t right_turns[64];
  std::size_t num_right_turns = 0;
  Value rest = v;
  for (std::uint32_t d = 0; d < levels_; ++d, half >>= 1) {
    if (rest < half) {
      if (switches_[node].load() != 0) break;  // abandon: dominated
      node = 2 * node;
    } else {
      right_turns[num_right_turns++] = node;
      rest -= half;
      node = 2 * node + 1;
    }
  }
  // Raise the switches of our right turns bottom-up: a switch only rises
  // once the value beneath it is fully recorded.  On abandon this unwinds
  // exactly like the recursive original returning through its callers.
  for (std::size_t i = num_right_turns; i-- > 0;) {
    switches_[right_turns[i]].store(1);
  }
  any_write_.store(1);
}

}  // namespace ruco::maxreg
