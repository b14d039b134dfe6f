#include "ruco/maxreg/unbounded_aac_max_register.h"

#include <cassert>
#include <stdexcept>

#include "ruco/util/bits.h"

namespace ruco::maxreg {

namespace {
constexpr Value group_base(std::uint32_t g) noexcept {
  return (Value{1} << g) - 1;
}
}  // namespace

UnboundedAacMaxRegister::UnboundedAacMaxRegister(std::uint32_t max_groups)
    : max_groups_{max_groups} {
  if (max_groups < 1 || max_groups > 26) {
    throw std::invalid_argument{
        "UnboundedAacMaxRegister: max_groups out of [1, 26]"};
  }
  spine_ = std::vector<runtime::Shared<std::uint8_t>>(max_groups_);
  groups_ = std::vector<std::atomic<AacMaxRegister*>>(max_groups_);
}

UnboundedAacMaxRegister::~UnboundedAacMaxRegister() {
  for (auto& g : groups_) delete g.load();
}

AacMaxRegister& UnboundedAacMaxRegister::group(std::uint32_t g) {
  AacMaxRegister* current = groups_[g].load();
  if (current != nullptr) return *current;
  auto* fresh = new AacMaxRegister{Value{1} << g};
  if (groups_[g].compare_exchange_strong(current, fresh)) return *fresh;
  delete fresh;  // lost the install race; use the winner's
  return *current;
}

const AacMaxRegister* UnboundedAacMaxRegister::group_if_present(
    std::uint32_t g) const {
  return groups_[g].load();
}

std::uint32_t UnboundedAacMaxRegister::group_of(Value v) noexcept {
  return util::floor_log2(static_cast<std::uint64_t>(v) + 1);
}

Value UnboundedAacMaxRegister::read_max(ProcId proc) const {
  // Follow the spine to the deepest group some write has fully reached.
  // A spine switch rises only after the write below it completed, and
  // switches rise bottom-up, so the walk never overshoots into an empty
  // group.
  std::uint32_t g = 0;
  while (g + 1 < max_groups_) {
    if (spine_[g].load() == 0) break;
    ++g;
  }
  const AacMaxRegister* reg = group_if_present(g);
  if (reg == nullptr) return kNoValue;  // nothing ever written here
  const Value inner = reg->read_max(proc);
  if (inner == kNoValue) return kNoValue;
  return group_base(g) + inner;
}

void UnboundedAacMaxRegister::write_max(ProcId proc, Value v) {
  if (v < 0) {
    throw std::out_of_range{
        "UnboundedAacMaxRegister::write_max: negative operand"};
  }
  const std::uint32_t g = group_of(v);
  if (g >= max_groups_) {
    throw std::out_of_range{
        "UnboundedAacMaxRegister: operand exceeds the group envelope"};
  }
  // AAC composition, unrolled along the spine: v lives in the *left* part
  // of spine node g, so check that node's switch before writing; the spine
  // nodes below g were right turns, whose switches rise on the way out.
  if (spine_[g].load() == 0) {
    group(g).write_max(proc, v - group_base(g));
  }
  // Raise the right-turn switches bottom-up (s_{g-1} first): each rises
  // only once everything beneath it is recorded.
  for (std::uint32_t s = g; s-- > 0;) {
    spine_[s].store(1);
  }
}

Value UnboundedAacMaxRegister::max_value() const noexcept {
  return read_max(0);
}

}  // namespace ruco::maxreg
