// Wait-free single-writer atomic snapshot of Afek, Attiya, Dolev, Gafni,
// Merritt & Shavit (JACM'93) -- the classic helping construction referenced
// by the restricted-use snapshot line of work: each Update embeds a full
// Scan into the record it publishes; a Scan that sees the same segment move
// twice may safely borrow that updater's embedded scan (the updater started
// after the scan did).
//
//   Scan   : O(N^2) steps worst case (N+1 double collects of N reads).
//   Update : O(N^2) steps (it performs a Scan, then one write).
//
// Records are allocated from per-process arenas (std::deque gives stable
// addresses; only the owner appends) and live until the snapshot object is
// destroyed -- the restricted-use memory model: bounded updates, no
// reclamation protocol needed.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/runtime/stepcount.h"

namespace ruco::snapshot {

class AfekSnapshot {
 public:
  explicit AfekSnapshot(std::uint32_t num_processes);

  /// Atomically sets segment `proc` to v >= 0.  Performs an embedded scan.
  void update(ProcId proc, Value v);

  /// Wait-free scan; returns all N segments at a single instant.
  [[nodiscard]] std::vector<Value> scan(ProcId proc) const;

  [[nodiscard]] std::uint32_t num_processes() const noexcept { return n_; }

 private:
  struct Record {
    Value value = 0;
    std::uint64_t seq = 0;
    std::vector<Value> view;  // embedded scan; empty only in the initial
                              // record, which is never borrowed
  };

  std::uint32_t n_;
  Record initial_;
  std::vector<runtime::PaddedShared<const Record*>> segments_;
  // Owner-only appenders; deque keeps published records' addresses stable.
  std::vector<std::deque<Record>> arenas_;
};

}  // namespace ruco::snapshot
