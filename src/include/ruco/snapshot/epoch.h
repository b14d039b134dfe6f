// Epoch-based reclamation: the grace period after which a view that was
// displaced from a shared cell may be rewritten.  This is the one
// implementation of the protocol: snapshot::FArraySnapshot instantiates it
// over runtime::PaddedShared cells (each access one step), and the RC11
// checker's reclaim-handoff kernel (tests/wmm_test.cpp) instantiates the
// same templates over wmm::Atomic cells, as propagate.h is shared.
//
// State: one epoch word E (starts at kFirstEpoch, only ever incremented by
// CAS) and one announce slot per process, holding kQuiescent outside
// operations and the epoch the process pinned at inside one.
//
//   pin        an operation reads E and stores it into its own slot before
//              it loads any shared pointer;
//   unpin      it stores kQuiescent once it has dropped every pointer;
//   stamp      a writer that displaced a view (the `expected` of its
//              winning CAS, or its own previous leaf view) reads E after
//              its last displacing write, and files the view under that
//              stamp s;
//   advance    a process moves E from e to e + 1 only after it has seen,
//              since a read of E that returned e, every slot quiescent or
//              at e.  The check is spread over calls: each call looks at a
//              bounded number of slots (`budget`), so no operation scans
//              all N slots;
//   reclaimable a view stamped s may be rewritten once its writer has read
//              E >= s + 2.
//
// Why s + 2 is a grace period.  Let reader R hold view V: R pinned at e_R
// (store P), then loaded V from a cell (load L).  Writer W overwrote V in
// that cell (D) and stamped s.  P, L, D, every read of E and every advance
// check are seq_cst, so they lie in one total order S that agrees with
// coherence: L read the value D overwrote, so P < L < D < stamp
// in S, and e_R <= s.  Reaching s + 2 needs the advance from s + 1, whose
// pass began with a read of E returning s + 1 -- after the stamp in S -- so
// its check of R's slot comes after P in S and reads P or a later write of
// that slot.  P holds e_R != s + 1, so the check passed only by reading R's
// unpin or a later pin, both sequenced after R's last use of V: that
// release synchronizes with the check, the check is sequenced before the
// advancing CAS, and W's acquire read of E >= s + 2 synchronizes with that
// CAS.  So every access R made to V happens before W rewrites it -- no data
// race, no torn read -- and a CAS by R that still expects V happens before V
// is reinstalled, so it cannot succeed by ABA.  Stamping with the epoch W
// pinned at instead is unsafe: E may have advanced between W's pin and D,
// with R pinned at the newer epoch, and then s + 2 comes one advance early.
//
// No fences.  The pin's store -> load ordering (P before L) comes from P and
// L both being seq_cst operations, not from a seq_cst fence, which GCC
// rejects under -fsanitize=thread with -Werror.  On x86 only the seq_cst
// stores cost anything: the pin, and the caller's seq_cst displacing store.
//
// Progress.  Nothing waits: a process whose pools are empty allocates.  A
// process stalled while pinned holds E within one of its pin epoch, so the
// others stop reclaiming and allocate fresh views until it moves; memory is
// bounded only while no operation stalls mid-call.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "ruco/runtime/memorder.h"

namespace ruco::snapshot {

/// An announce slot's value outside any operation.  Epochs start above it.
inline constexpr std::uint64_t kQuiescent = 0;
inline constexpr std::uint64_t kFirstEpoch = 1;

/// Per-site memory orders of the protocol.  Everything but the unpin is
/// seq_cst: see the file comment.  The wmm checker weakens these.
struct EpochOrders {
  std::memory_order epoch_load = runtime::mo_seq_cst;  // pin, stamp
  std::memory_order pin = runtime::mo_seq_cst;
  std::memory_order check = runtime::mo_seq_cst;    // advance's slot loads
  std::memory_order advance = runtime::mo_seq_cst;  // the CAS, both outcomes
  std::memory_order unpin = runtime::mo_release;
};

/// The EpochOrders defaults as compile-time constants, for production (a
/// memory_order that is not a constant compiles as seq_cst).
struct ShippedEpochOrders {
  static constexpr EpochOrders kOrders{};
  static constexpr std::memory_order epoch_load = kOrders.epoch_load;
  static constexpr std::memory_order pin = kOrders.pin;
  static constexpr std::memory_order check = kOrders.check;
  static constexpr std::memory_order advance = kOrders.advance;
  static constexpr std::memory_order unpin = kOrders.unpin;
};

/// Where one process's advance pass stands: the epoch it is trying to end
/// and the next slot to check.  Private to the process.
struct AdvanceCursor {
  std::uint64_t epoch = 0;
  std::uint32_t next = 0;
};

/// Announces the caller in `slot` at the current epoch, which it returns.
template <typename EpochCell, typename SlotCell,
          typename Orders = ShippedEpochOrders>
std::uint64_t pin(const EpochCell& epoch, SlotCell&& slot,
                  const Orders& o = {}) {
  const auto e = epoch.load(o.epoch_load);
  slot.store(e, o.pin);
  return static_cast<std::uint64_t>(e);
}

template <typename SlotCell, typename Orders = ShippedEpochOrders>
void unpin(SlotCell&& slot, const Orders& o = {}) {
  slot.store(kQuiescent, o.unpin);
}

/// One slice of an advance pass over the `n` slots `slot(0..n-1)`.  `e` is
/// the caller's latest seq_cst read of the epoch (its stamp); a pass for an
/// older epoch is abandoned.  Checks at most `budget` slots, stopping at one
/// pinned at another epoch (retried next call); once all n have passed,
/// CASes the epoch from e to e + 1.  Returns the epoch as the caller now
/// knows it: e, e + 1 after its own CAS, or what a failed CAS read.
template <typename EpochCell, typename SlotAt,
          typename Orders = ShippedEpochOrders>
std::uint64_t advance(EpochCell&& epoch, SlotAt&& slot, std::uint32_t n,
                      AdvanceCursor& cursor, std::uint64_t e,
                      std::uint32_t budget, const Orders& o = {}) {
  if (cursor.epoch != e) cursor = {e, 0};
  for (std::uint32_t k = 0; k < budget && cursor.next < n; ++k) {
    const auto a = static_cast<std::uint64_t>(slot(cursor.next).load(o.check));
    if (a != kQuiescent && a != e) return e;
    ++cursor.next;
  }
  if (cursor.next < n) return e;
  // Any outcome moves the epoch past e, so the next call starts a new pass.
  cursor.next = 0;
  using Word = std::remove_cvref_t<decltype(epoch.load(o.check))>;
  auto expected = static_cast<Word>(e);
  if (epoch.compare_exchange_strong(expected, static_cast<Word>(e + 1),
                                    o.advance, o.advance)) {
    return e + 1;
  }
  return static_cast<std::uint64_t>(expected);
}

/// Whether a view stamped `stamp` may be rewritten by a process whose
/// latest acquire read of the epoch returned `epoch`.
constexpr bool reclaimable(std::uint64_t stamp, std::uint64_t epoch) {
  return epoch >= stamp + 2;
}

}  // namespace ruco::snapshot
