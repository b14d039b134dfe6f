#include "ruco/maxreg/cas_max_register.h"

#include <cstdint>
#include <stdexcept>

#include "ruco/runtime/backoff.h"
#include "ruco/runtime/memorder.h"
#include "ruco/telemetry/registry.h"

namespace ruco::maxreg {

Value CasMaxRegister::read_max(ProcId /*proc*/) const {
  return cell_.load(runtime::mo_acquire);
}

void CasMaxRegister::write_max(ProcId /*proc*/, Value v) {
  if (v < 0) {
    throw std::out_of_range{"CasMaxRegister::write_max: negative operand"};
  }
  // Memory orders: the cell holds a self-contained Value -- nothing is
  // published through it by dereference -- so the initial load is a hint
  // the CAS re-validates (relaxed), the CAS releases on success (pairs with
  // read_max's acquire), and a failed CAS reloads relaxed: the reloaded
  // value only feeds the monotone `current < v` retest, where per-location
  // coherence already orders it after every value this thread has seen.
  Value current = cell_.load(runtime::mo_relaxed);
  // Batched telemetry: tally the CAS loop in locals and publish once, so a
  // contended retry burst costs one counter write, not one per attempt.
  std::uint64_t attempts = 0;
  bool won = false;
  runtime::Backoff backoff;
  while (current < v) {
    ++attempts;
    if (cell_.compare_exchange_weak(current, v, runtime::mo_release,
                                    runtime::mo_relaxed)) {
      won = true;
      break;
    }
    // compare_exchange reloads `current` on failure; loop re-tests.  Every
    // failure means another writer won -- back off (bounded, pause-hinted)
    // before re-contending the line.
    backoff.pause();
  }
  if (attempts != 0) {
    telemetry::add(telemetry::Metric::kCasAttempts, attempts);
    const std::uint64_t lost = attempts - (won ? 1 : 0);
    if (lost != 0) telemetry::add(telemetry::Metric::kCasFailures, lost);
  }
}

}  // namespace ruco::maxreg
