#include "ruco/kcas/mcas.h"

#include <algorithm>
#include <stdexcept>

#include "ruco/runtime/backoff.h"
#include "ruco/runtime/memorder.h"

// Memory orders (DESIGN.md "Hot-path memory orders").  Descriptors are
// cross-thread mutable state published by CASing tagged pointers into
// cells, so the discipline is the classic publication pattern:
//   * any CAS that installs a descriptor pointer: release on success (the
//     descriptor's fields were written before the install) and acquire on
//     failure (the loaded word may itself be somebody else's descriptor we
//     are about to dereference and help);
//   * any plain load whose value may be dereferenced (cell reads, status
//     control reads): acquire;
//   * CASes whose failure value is discarded (rdcss_complete's unpark,
//     phase-2 release CASes): release/relaxed.
// The status word is the linearization point; its decide-CAS is acq_rel so
// the decision both publishes phase-1's acquisitions and orders phase 2
// after every acquisition it saw.
// Orders are named through ruco/runtime/memorder.h so RUCO_SEQCST_ATOMICS
// can collapse them to seq_cst on weak-memory targets.

namespace ruco::kcas {

McasArray::McasArray(std::uint32_t num_cells, Value init,
                     std::uint32_t num_processes)
    : arenas_(num_processes) {
  if (num_cells == 0) throw std::invalid_argument{"McasArray: 0 cells"};
  if (num_processes == 0) {
    throw std::invalid_argument{"McasArray: 0 processes"};
  }
  cells_.assign(num_cells, runtime::PaddedShared<Word>{pack_value(init)});
}

McasArray::Word McasArray::pack_value(Value v) {
  if (v < kMinValue || v > kMaxValue) {
    throw std::out_of_range{"McasArray: value outside 61-bit range"};
  }
  return static_cast<Word>(static_cast<std::uint64_t>(v) << 2);
}

Value McasArray::unpack_value(Word w) noexcept {
  // Arithmetic shift back (sign-preserving for negative values).
  return static_cast<Value>(static_cast<std::int64_t>(w) >> 2);
}

void McasArray::rdcss_complete(RdcssDescriptor* d) {
  const std::uintptr_t control = d->control->load(runtime::mo_acquire);
  Word parked = tag_rdcss(d);
  const Word next =
      control == d->expected_control ? d->desired : d->expected;
  d->cell->compare_exchange_strong(parked, next, runtime::mo_release,
                                   runtime::mo_relaxed);
}

McasArray::Word McasArray::rdcss(RdcssDescriptor* d) {
  runtime::Backoff backoff;
  for (;;) {
    Word current = d->expected;
    if (d->cell->compare_exchange_strong(current, tag_rdcss(d),
                                         runtime::mo_acq_rel,
                                         runtime::mo_acquire)) {
      rdcss_complete(d);
      return d->expected;
    }
    if (is_rdcss(current)) {
      // Someone else's acquisition is parked here: finish it and retry,
      // backing off (bounded) before re-contending the cell.
      rdcss_complete(as_rdcss(current));
      backoff.pause();
      continue;
    }
    return current;  // a plain value or an MCAS descriptor
  }
}

bool McasArray::mcas_help(ProcId proc, McasDescriptor* d) {
  if (d->status.load(runtime::mo_acquire) ==
      static_cast<std::uintptr_t>(Status::kUndecided)) {
    // Phase 1: acquire every word, wedging our descriptor in, unless the
    // operation gets decided under us (the RDCSS control check) or a word
    // no longer matches.
    auto desired_status = static_cast<std::uintptr_t>(Status::kSucceeded);
    for (const McasWord& word : d->words) {
      runtime::Backoff backoff;
      for (;;) {
        RdcssDescriptor* rd = &arenas_[proc].rdcss.emplace_back();
        rd->control = &d->status;
        rd->expected_control =
            static_cast<std::uintptr_t>(Status::kUndecided);
        rd->cell = &cells_[word.index];
        rd->expected = pack_value(word.expected);
        rd->desired = tag_mcas(d);
        const Word content = rdcss(rd);
        if (is_mcas(content)) {
          if (as_mcas(content) != d) {
            // A different MCAS holds the word: help it finish, then retry
            // after a bounded backoff (helping storms thrash the word's
            // line; the helped op has already made our progress).
            mcas_help(proc, as_mcas(content));
            backoff.pause();
            continue;
          }
          break;  // already acquired for d (by a helper)
        }
        if (content != pack_value(word.expected)) {
          desired_status = static_cast<std::uintptr_t>(Status::kFailed);
        }
        break;
      }
      if (desired_status ==
          static_cast<std::uintptr_t>(Status::kFailed)) {
        break;
      }
    }
    auto expected_status =
        static_cast<std::uintptr_t>(Status::kUndecided);
    d->status.compare_exchange_strong(expected_status, desired_status,
                                      runtime::mo_acq_rel,
                                      runtime::mo_acquire);
  }
  // Phase 2: release every word to its decided value.
  const bool success =
      d->status.load(runtime::mo_acquire) ==
      static_cast<std::uintptr_t>(Status::kSucceeded);
  for (const McasWord& word : d->words) {
    Word parked = tag_mcas(d);
    cells_[word.index].compare_exchange_strong(
        parked, pack_value(success ? word.desired : word.expected),
        runtime::mo_release, runtime::mo_relaxed);
  }
  return success;
}

Value McasArray::read(ProcId proc, std::uint32_t index) {
  runtime::Backoff backoff;
  for (;;) {
    const Word w = cells_[index].load(runtime::mo_acquire);
    if (is_rdcss(w)) {
      rdcss_complete(as_rdcss(w));
      backoff.pause();
      continue;
    }
    if (is_mcas(w)) {
      mcas_help(proc, as_mcas(w));
      backoff.pause();
      continue;
    }
    return unpack_value(w);
  }
}

bool McasArray::mcas(ProcId proc, std::vector<McasWord> words) {
  if (words.empty()) return true;
  std::sort(words.begin(), words.end(),
            [](const McasWord& a, const McasWord& b) {
              return a.index < b.index;
            });
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (words[i].index >= cells_.size()) {
      throw std::out_of_range{"McasArray::mcas: index out of range"};
    }
    if (i > 0 && words[i].index == words[i - 1].index) {
      throw std::invalid_argument{"McasArray::mcas: duplicate index"};
    }
    (void)pack_value(words[i].expected);  // range checks, loud
    (void)pack_value(words[i].desired);
  }
  McasDescriptor* d = &arenas_[proc].mcas.emplace_back();
  d->words = std::move(words);
  return mcas_help(proc, d);
}

}  // namespace ruco::kcas
