// Output checkers behind the benchmark's `failed` count.
//
// Each worker owns one checker per object and feeds it every value it
// wrote and every value it read back; a read that no linearizable
// execution could return is counted as a failed operation.  The final
// checks compare one last read against what all workers wrote.  The
// checkers are pure and single-threaded, so self_test() can drive them
// with hand-made histories that must be rejected.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ruco/core/types.h"

namespace perfbench::check {

using ruco::Value;

/// Max register: a worker's reads never decrease and are at least the
/// worker's own last operand.
struct MaxRegChecker {
  Value last_read = ruco::kNoValue;
  Value last_operand = ruco::kNoValue;
  Value max_operand = ruco::kNoValue;

  void wrote(Value v) {
    last_operand = v;
    max_operand = std::max(max_operand, v);
  }
  [[nodiscard]] bool read(Value r) {
    const bool ok = r >= last_read && r >= last_operand;
    last_read = std::max(last_read, r);
    return ok;
  }
};

/// The final read_max equals the largest operand any worker wrote.
[[nodiscard]] inline bool maxreg_final_ok(
    Value final_read, std::span<const MaxRegChecker> workers) {
  Value expect = ruco::kNoValue;
  for (const auto& w : workers) expect = std::max(expect, w.max_operand);
  return final_read == expect;
}

/// Counter: a worker's reads never decrease and are at least its own
/// increments so far.
struct CounterChecker {
  Value increments = 0;
  Value last_read = 0;

  void incremented() { ++increments; }
  [[nodiscard]] bool read(Value r) {
    const bool ok = r >= last_read && r >= increments;
    last_read = std::max(last_read, r);
    return ok;
  }
};

/// The final read equals the total number of increments.
[[nodiscard]] inline bool counter_final_ok(
    Value final_read, std::span<const CounterChecker> workers) {
  Value total = 0;
  for (const auto& w : workers) total += w.increments;
  return final_read == total;
}

/// Snapshot, for worker `self` among `workers` writers that each write an
/// increasing sequence to their own slot: every scan shows the caller's
/// own last value, and no writer's slot decreases across the caller's
/// successive scans.
struct SnapshotChecker {
  std::size_t self = 0;
  Value own = 0;
  std::vector<Value> last_scan;

  SnapshotChecker(std::size_t self_slot, std::size_t workers)
      : self{self_slot}, last_scan(workers, 0) {}

  void wrote(Value v) { own = v; }
  [[nodiscard]] bool read(std::span<const Value> scan) {
    if (scan.size() < last_scan.size() || scan[self] != own) return false;
    bool ok = true;
    for (std::size_t j = 0; j < last_scan.size(); ++j) {
      ok = ok && scan[j] >= last_scan[j];
      last_scan[j] = std::max(last_scan[j], scan[j]);
    }
    return ok;
  }
};

/// The final scan holds each worker's last value in its slot and 0 in
/// every slot no worker owns.
[[nodiscard]] inline bool snapshot_final_ok(
    std::span<const Value> final_scan,
    std::span<const SnapshotChecker> workers) {
  for (std::size_t j = 0; j < final_scan.size(); ++j) {
    const Value expect = j < workers.size() ? workers[j].own : 0;
    if (final_scan[j] != expect) return false;
  }
  return final_scan.size() >= workers.size();
}

/// Feeds the checkers histories with one planted fault each (a lost
/// increment, a regressing max, a stale own-slot scan, ...) plus their
/// fault-free twins.  Returns an empty string when every faulty history
/// is rejected and every clean one accepted, else the first mismatch.
[[nodiscard]] inline std::string self_test() {
  std::string err;
  const auto expect = [&err](bool got, bool want, const char* what) {
    if (got != want && err.empty()) {
      err = std::string{"checker self-test: "} + what +
            (want ? " was rejected" : " was accepted");
    }
  };

  {  // counter: two workers, 3 + 2 increments
    std::vector<CounterChecker> w(2);
    for (int i = 0; i < 3; ++i) w[0].incremented();
    for (int i = 0; i < 2; ++i) w[1].incremented();
    expect(counter_final_ok(5, w), true, "a correct final count");
    expect(counter_final_ok(4, w), false, "a lost increment");
    CounterChecker r;
    r.incremented();
    r.incremented();
    expect(r.read(1), false, "a read below the reader's own increments");
    CounterChecker m;
    expect(m.read(7), true, "a first read");
    expect(m.read(6), false, "a decreasing count");
  }
  {  // max register
    MaxRegChecker c;
    c.wrote(10);
    expect(c.read(12), true, "a read above the own operand");
    expect(c.read(11), false, "a regressing max");
    MaxRegChecker s;
    s.wrote(10);
    expect(s.read(9), false, "a read below the own last operand");
    std::vector<MaxRegChecker> w(2);
    w[0].wrote(5);
    w[1].wrote(8);
    expect(maxreg_final_ok(8, w), true, "a correct final max");
    expect(maxreg_final_ok(5, w), false, "a final max missing a write");
  }
  {  // snapshot: worker 0 of 2
    SnapshotChecker c{0, 2};
    c.wrote(5);
    const std::vector<Value> fresh{5, 3, 0};
    const std::vector<Value> stale{4, 3, 0};
    const std::vector<Value> regressed{5, 2, 0};
    expect(c.read(fresh), true, "a fresh scan");
    expect(c.read(stale), false, "a stale own-slot scan");
    expect(c.read(regressed), false, "a decreasing foreign slot");
    std::vector<SnapshotChecker> w{SnapshotChecker{0, 2},
                                   SnapshotChecker{1, 2}};
    w[0].wrote(5);
    w[1].wrote(3);
    expect(snapshot_final_ok(fresh, w), true, "a correct final scan");
    expect(snapshot_final_ok(stale, w), false, "a final scan missing a write");
    const std::vector<Value> foreign{5, 3, 1};
    expect(snapshot_final_ok(foreign, w), false,
           "a final scan with a write in an unowned slot");
  }
  return err;
}

}  // namespace perfbench::check
