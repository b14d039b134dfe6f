// Unbounded max register from reads and writes only, with value-sensitive
// cost: both ReadMax and WriteMax(v) run in O(log v) steps (v the operand /
// current maximum).  This is the read/write-only counterpart of Algorithm A:
// it marries the AAC switch-tree composition (reference [2]) with the
// Bentley-Yao B1 layout that Algorithm A uses for its left subtree.
//
// Construction.  Values are split into doubling groups: group g holds
// [2^g - 1, 2^{g+1} - 1).  A rightward spine of one-bit switches hangs one
// AAC-style complete switch subtree per group off its left side; spine
// switch s_g = 1 means "some write reached group > g".  This is exactly the
// AAC composition MaxReg(a+b) = (MaxReg(a), switch, MaxReg(b)) applied
// recursively along the spine, so correctness follows from their
// composition lemma:
//   WriteMax(v): walk the spine to v's group, abandoning if a *later* spine
//     switch is already set (a larger group value exists); do a bounded AAC
//     write inside the group subtree; then raise the spine switches of the
//     groups *below* v's bottom-up.  O(log v) switch accesses.
//   ReadMax: walk the spine to the last set switch, then descend that
//     group's subtree by its switches.  O(log max-so-far).
//
// Capacity and memory.  A group-g subtree needs 2^g one-byte switches
// (that is the inherent space cost of AAC switch trees: an M-bounded
// register stores Theta(M) switches).  Group subtrees are therefore
// allocated *lazily*, on the first write into the group, with a
// CAS-installed pointer (an engineering concern outside the step model --
// the shared-memory algorithm itself stays read/write only).  max_groups
// caps the envelope: writes beyond it throw, loud by design, and the cap
// itself is limited to 26 (a fully-written register then holds at most
// 2^27 switch bytes).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/maxreg/aac_max_register.h"
#include "ruco/runtime/stepcount.h"

namespace ruco::maxreg {

class UnboundedAacMaxRegister {
 public:
  /// Supports operands below 2^(max_groups) - 1.  Each group g costs
  /// 2^g one-byte switches, so max_groups = 20 (the default, values up to
  /// ~10^6) allocates about 2 MiB; raise it if you need bigger operands.
  explicit UnboundedAacMaxRegister(std::uint32_t max_groups = 20);
  ~UnboundedAacMaxRegister();
  UnboundedAacMaxRegister(const UnboundedAacMaxRegister&) = delete;
  UnboundedAacMaxRegister& operator=(const UnboundedAacMaxRegister&) = delete;

  /// O(log v) steps: spine walk + one bounded AAC read inside a group.
  [[nodiscard]] Value read_max(ProcId proc) const;

  /// O(log v) steps.  Throws std::out_of_range if v exceeds the configured
  /// group envelope.
  void write_max(ProcId proc, Value v);

  [[nodiscard]] Value max_value() const noexcept;

 private:
  /// Group of value v: floor(log2(v + 1)); group g spans
  /// [2^g - 1, 2^{g+1} - 1).
  static std::uint32_t group_of(Value v) noexcept;

  /// The group's bounded register, allocating it on first use.
  AacMaxRegister& group(std::uint32_t g);
  /// nullptr if the group has never been written.
  [[nodiscard]] const AacMaxRegister* group_if_present(std::uint32_t g) const;

  std::uint32_t max_groups_;
  // Spine switches: spine_[g] = 1 means a write reached a group > g.
  std::vector<runtime::Shared<std::uint8_t>> spine_;
  // Bounded register over group g's 2^g values, lazily installed (outside
  // the step model, so a plain atomic).
  std::vector<std::atomic<AacMaxRegister*>> groups_;
};

}  // namespace ruco::maxreg
