// Bounded exponential backoff for CAS retry loops.
//
// A failed CAS means another thread succeeded, and an immediate retry mostly
// buys another coherence-traffic loss; spinning a few pause hints first lets
// the winner drain and roughly halves the failed-attempt rate under heavy
// contention.  The backoff is *bounded* (doubling up to a small cap, no
// sleeping, no yielding) so it never trades lock-freedom for latency: a
// retry is delayed by at most kMaxSpins pause instructions, which is
// nanoseconds, and the paper's step-complexity measure is untouched -- a
// pause touches no base object (runtime::Shared), so it is not a step.
#pragma once

#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#include <immintrin.h>
#endif

namespace ruco::runtime {

/// One CPU relaxation hint: tells the core a spin-wait is in progress
/// (x86 `pause`, ARM `yield`), de-prioritizing the hyperthread and saving
/// power without giving up the timeslice.
inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  // No portable hint available; an empty spin iteration is still bounded.
#endif
}

/// Per-operation backoff state: construct at operation start, call pause()
/// after each lost CAS.  Spin count doubles from 1 up to max_spins and
/// stays there -- bounded, so the delay added to any single retry is O(1).
class Backoff {
 public:
  static constexpr std::uint32_t kMaxSpins = 64;

  constexpr explicit Backoff(std::uint32_t max_spins = kMaxSpins) noexcept
      : max_spins_{max_spins} {}

  void pause() noexcept {
    for (std::uint32_t i = 0; i < spins_; ++i) cpu_pause();
    if (spins_ < max_spins_) spins_ *= 2;
  }

  void reset() noexcept { spins_ = 1; }

 private:
  std::uint32_t spins_ = 1;
  std::uint32_t max_spins_;
};

}  // namespace ruco::runtime
