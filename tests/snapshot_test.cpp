// Production snapshots: shared single-writer snapshot semantics (typed),
// per-implementation step bounds (Corollary 1's frontier), restricted-use
// limits, and threaded stress with linearizability checking.
#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/runtime/thread_harness.h"
#include "ruco/snapshot/afek_snapshot.h"
#include "ruco/snapshot/double_collect_snapshot.h"
#include "ruco/snapshot/farray_snapshot.h"
#include "ruco/util/bits.h"
#include "ruco/util/rng.h"

namespace ruco::snapshot {
namespace {

constexpr std::uint32_t kProcs = 6;

template <typename S>
class SnapshotSemantics : public ::testing::Test {
 public:
  SnapshotSemantics() : snap{kProcs} {}
  S snap;
};

using AllSnapshots =
    ::testing::Types<DoubleCollectSnapshot, AfekSnapshot, FArraySnapshot>;
TYPED_TEST_SUITE(SnapshotSemantics, AllSnapshots);

TYPED_TEST(SnapshotSemantics, FreshScanIsAllZero) {
  const auto view = this->snap.scan(0);
  EXPECT_EQ(view, std::vector<Value>(kProcs, 0));
}

TYPED_TEST(SnapshotSemantics, ScanSeesOwnUpdate) {
  this->snap.update(2, 7);
  const auto view = this->snap.scan(2);
  EXPECT_EQ(view[2], 7);
}

TYPED_TEST(SnapshotSemantics, ScanSeesAllCompletedUpdates) {
  for (ProcId p = 0; p < kProcs; ++p) {
    this->snap.update(p, static_cast<Value>(p) * 10);
  }
  const auto view = this->snap.scan(0);
  for (ProcId p = 0; p < kProcs; ++p) {
    EXPECT_EQ(view[p], static_cast<Value>(p) * 10);
  }
}

TYPED_TEST(SnapshotSemantics, LaterUpdateOverwritesSegment) {
  this->snap.update(1, 5);
  this->snap.update(1, 3);  // snapshots are write, not max: 3 replaces 5
  EXPECT_EQ(this->snap.scan(0)[1], 3);
}

TYPED_TEST(SnapshotSemantics, ViewHasExactlyNSegments) {
  EXPECT_EQ(this->snap.scan(0).size(), kProcs);
}

TYPED_TEST(SnapshotSemantics, SequentialRandomAgainstOracle) {
  util::SplitMix64 rng{77};
  std::vector<Value> oracle(kProcs, 0);
  for (int i = 0; i < 300; ++i) {
    const auto p = static_cast<ProcId>(rng.below(kProcs));
    const Value v = static_cast<Value>(rng.below(1 << 20));
    this->snap.update(p, v);
    oracle[p] = v;
    ASSERT_EQ(this->snap.scan(p), oracle) << "after update " << i;
  }
}

// ----------------------------------------------------------- step bounds

TEST(FArraySnapshotSteps, ScanIsFourSteps) {
  // The root load, bracketed by the pin (epoch load + announce store) and
  // the unpin (announce store) that keep its view from being recycled.
  FArraySnapshot snap{32};
  snap.update(3, 9);
  runtime::StepScope scope;
  (void)snap.scan(0);
  EXPECT_EQ(scope.taken(), 4u);
}

class FArraySnapshotStepsTest
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FArraySnapshotStepsTest, UpdateIsLogN) {
  const std::uint32_t n = GetParam();
  FArraySnapshot snap{n};
  const std::uint64_t levels = util::ceil_log2(n);
  for (int i = 0; i < 10; ++i) {
    runtime::StepScope scope;
    snap.update(static_cast<ProcId>(i % n), i);
    // Two rounds of (node, 2 children, CAS) per level, the leaf write, and
    // at most kReclaimSteps of epoch bookkeeping.
    EXPECT_LE(scope.taken(), 8 * levels + 1 + FArraySnapshot::kReclaimSteps)
        << "N=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FArraySnapshotStepsTest,
                         ::testing::Values(2, 4, 16, 64, 256));

TEST(DoubleCollectSteps, SoloScanIsTwoCollects) {
  DoubleCollectSnapshot snap{16};
  snap.update(0, 1);
  runtime::StepScope scope;
  (void)snap.scan(1);
  EXPECT_EQ(scope.taken(), 32u);  // 2 x N reads, uncontended
}

TEST(DoubleCollectSteps, UpdateIsOneStep) {
  DoubleCollectSnapshot snap{16};
  runtime::StepScope scope;
  snap.update(0, 5);
  EXPECT_EQ(scope.taken(), 1u);
}

TEST(AfekSteps, SoloScanIsTwoCollects) {
  AfekSnapshot snap{16};
  snap.update(0, 1);
  runtime::StepScope scope;
  (void)snap.scan(1);
  EXPECT_EQ(scope.taken(), 32u);
}

TEST(AfekSteps, UpdateEmbedsAScan) {
  AfekSnapshot snap{16};
  runtime::StepScope scope;
  snap.update(0, 5);
  EXPECT_EQ(scope.taken(), 33u);  // embedded scan + the publishing write
}

// ----------------------------------------------------- restricted use

TEST(DoubleCollect, RejectsOversizedValue) {
  DoubleCollectSnapshot snap{4};
  EXPECT_THROW(snap.update(0, DoubleCollectSnapshot::kMaxValue + 1),
               std::out_of_range);
  snap.update(0, DoubleCollectSnapshot::kMaxValue);
  EXPECT_EQ(snap.scan(0)[0], DoubleCollectSnapshot::kMaxValue);
}

TEST(Snapshots, RejectNegativeValues) {
  AfekSnapshot a{2};
  FArraySnapshot f{2};
  DoubleCollectSnapshot d{2};
  EXPECT_THROW(a.update(0, -5), std::out_of_range);
  EXPECT_THROW(f.update(0, -5), std::out_of_range);
  EXPECT_THROW(d.update(0, -5), std::out_of_range);
}

TEST(Snapshots, RejectZeroProcesses) {
  EXPECT_THROW((AfekSnapshot{0}), std::invalid_argument);
  EXPECT_THROW((FArraySnapshot{0}), std::invalid_argument);
  EXPECT_THROW((DoubleCollectSnapshot{0}), std::invalid_argument);
}

TEST(FArraySnapshot, ScanReturnsEachSlotsOwnSegment) {
  // Views list leaves in tree position order, which the scattered leaf
  // placement makes differ from slot order; scan must gather them back.
  for (const std::uint32_t n : {4u, 5u, 8u, 64u}) {
    FArraySnapshot snap{n};
    for (ProcId p = 0; p < n; ++p) {
      for (ProcId k = 0; k <= p; ++k) snap.update(p, 1000 + p);  // seq p+1
    }
    const std::vector<Value> view = snap.scan(0);
    const auto versions = snap.scan_versions(0);
    ASSERT_EQ(view.size(), n);
    ASSERT_EQ(versions.size(), n);
    for (ProcId p = 0; p < n; ++p) {
      EXPECT_EQ(view[p], 1000 + p) << "N=" << n << " slot " << p;
      EXPECT_EQ(versions[p], (std::pair<Value, std::uint64_t>{1000 + p, p + 1}))
          << "N=" << n << " slot " << p;
    }
  }
}

TEST(FArraySnapshot, VersionsAreMonotonePerSegment) {
  // The product-order monotonicity that makes the double-CAS substitution
  // ABA-free (DESIGN.md): successive root views never regress any
  // segment's sequence number.
  FArraySnapshot snap{4};
  std::vector<std::uint64_t> last(4, 0);
  util::SplitMix64 rng{5};
  for (int i = 0; i < 200; ++i) {
    snap.update(static_cast<ProcId>(rng.below(4)),
                static_cast<Value>(rng.below(100)));
    const auto versions = snap.scan_versions(0);
    for (std::size_t s = 0; s < 4; ++s) {
      EXPECT_GE(versions[s].second, last[s]);
      last[s] = versions[s].second;
    }
  }
}

// --------------------------------------------------- threaded stress

template <typename S>
void stress_snapshot_lincheck(std::uint32_t threads, int updates, int scans,
                              std::uint64_t seed) {
  S snap{threads};
  lincheck::Recorder recorder{threads};
  runtime::run_threads(threads, [&](std::size_t t) {
    util::SplitMix64 rng{seed + t};
    const auto proc = static_cast<ProcId>(t);
    int ups = updates;
    int scs = scans;
    while (ups > 0 || scs > 0) {
      const bool do_update = scs == 0 || (ups > 0 && rng.chance(1, 2));
      if (do_update) {
        const Value v = static_cast<Value>(rng.below(1000));
        const auto slot = recorder.begin(proc, "Update", v);
        snap.update(proc, v);
        recorder.end(proc, slot, 0);
        --ups;
      } else {
        const auto slot = recorder.begin(proc, "Scan", 0);
        auto view = snap.scan(proc);
        recorder.end(proc, slot, std::move(view));
        --scs;
      }
    }
  });
  const auto res = lincheck::check_linearizable(
      recorder.harvest(), lincheck::SnapshotSpec{threads});
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.linearizable) << res.message;
}

TEST(SnapshotStress, FArrayLinearizable) {
  stress_snapshot_lincheck<FArraySnapshot>(4, 25, 25, 101);
}

TEST(SnapshotStress, AfekLinearizable) {
  stress_snapshot_lincheck<AfekSnapshot>(4, 25, 25, 102);
}

TEST(SnapshotStress, DoubleCollectLinearizable) {
  stress_snapshot_lincheck<DoubleCollectSnapshot>(4, 25, 25, 103);
}

TEST(SnapshotStress, ScannersAgreeOnOrder) {
  // Two scanner threads (ProcIds 0 and 1) against one updater (2 and 3):
  // collected views must be totally ordered by per-segment versions (a
  // snapshot object's views form a chain).  One thread per ProcId: a scan
  // pins its ProcId's announce slot.
  FArraySnapshot snap{4};
  std::vector<std::vector<std::pair<Value, std::uint64_t>>> views[2];
  runtime::run_threads(3, [&](std::size_t t) {
    if (t == 2) {
      for (int i = 0; i < 500; ++i) {
        snap.update(2, i);
        snap.update(3, i * 2);
      }
    } else {
      auto& mine = views[t];
      mine.reserve(500);
      for (int i = 0; i < 500; ++i) {
        mine.push_back(snap.scan_versions(static_cast<ProcId>(t)));
      }
    }
  });
  const auto leq = [](const auto& a, const auto& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].second > b[i].second) return false;
    }
    return true;
  };
  // Merge both scanners' views; every pair must be comparable.
  std::vector<std::vector<std::pair<Value, std::uint64_t>>> all;
  all.insert(all.end(), views[0].begin(), views[0].end());
  all.insert(all.end(), views[1].begin(), views[1].end());
  for (std::size_t i = 0; i + 1 < all.size(); i += 7) {  // sampled pairs
    for (std::size_t j = i + 1; j < all.size(); j += 11) {
      EXPECT_TRUE(leq(all[i], all[j]) || leq(all[j], all[i]))
          << "incomparable views " << i << "," << j;
    }
  }
}

// One thread per ProcId 0..threads-1, each `pairs` times updating its own
// segment to its call number and scanning (as itself).  Every scan must
// show the caller's latest update, and no segment's seq may fall between
// one thread's scans.  Returns the number of scans that broke either rule.
// `yield` gives the CPU away between pairs, outside any call.
std::uint64_t update_scan_pairs(FArraySnapshot& snap, std::uint32_t threads,
                                int first, int pairs, bool yield = false) {
  std::atomic<std::uint64_t> bad{0};
  runtime::run_threads(threads, [&](std::size_t t) {
    const auto me = static_cast<ProcId>(t);
    std::vector<std::uint64_t> last(snap.num_processes(), 0);
    std::uint64_t mine = 0;
    for (int i = first; i < first + pairs; ++i) {
      snap.update(me, i);
      const auto view = snap.scan_versions(me);
      bool ok = view[me] == std::pair<Value, std::uint64_t>{
                                i, static_cast<std::uint64_t>(i)};
      for (std::size_t s = 0; s < view.size(); ++s) {
        ok = ok && view[s].second >= last[s];
        last[s] = view[s].second;
      }
      if (!ok) ++mine;
      if (yield) std::this_thread::yield();
    }
    bad.fetch_add(mine);
  });
  return bad.load();
}

TEST(SnapshotStress, SustainedReuse) {
  // Long enough that every view is recycled many times over: a view
  // rewritten while a scan still copies it, or reinstalled under a CAS that
  // still expects it, shows up as a torn or regressed scan (or a TSan
  // report).  Call i of slot t writes value i, so seq i goes with value i.
  constexpr std::uint32_t kThreads = 4;
  constexpr int kPairs = 30'000;
  FArraySnapshot snap{8};
  EXPECT_EQ(update_scan_pairs(snap, kThreads, 1, kPairs), 0u);
  const auto final_view = snap.scan_versions(0);
  for (ProcId p = 0; p < 8; ++p) {
    const std::uint64_t want = p < kThreads ? kPairs : 0;
    EXPECT_EQ(final_view[p],
              (std::pair<Value, std::uint64_t>{static_cast<Value>(want), want}))
        << "slot " << p;
  }
}

TEST(FArraySnapshot, HeapDoesNotGrowWithRunLength) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "mallinfo2 does not see the sanitizer's allocator";
#else
  // Without recycling every update leaves its views behind (65-70 MB over
  // this run, about 420 B per update at N = 8); with it, the pools a
  // warm-up fills carry a run four times as long.  The bound holds while no
  // call stalls mid-way (epoch.h, Progress): a thread descheduled while
  // pinned makes the others allocate for as long as it is away.  So the
  // threads yield between calls, where the scheduler then switches them,
  // and the bound leaves room for the preemptions that still land inside a
  // call: at most 0.45 MB on an idle 4-CPU host, 5 MB with the host's CPUs
  // twice oversubscribed.
  constexpr std::uint32_t kThreads = 4;
  constexpr int kWarmup = 10'000;
  constexpr std::size_t kBoundBytes = 16u << 20;
  FArraySnapshot snap{8};
  ASSERT_EQ(update_scan_pairs(snap, kThreads, 1, kWarmup, true), 0u);
  const std::size_t before = mallinfo2().uordblks;
  ASSERT_EQ(
      update_scan_pairs(snap, kThreads, 1 + kWarmup, 4 * kWarmup, true), 0u);
  const std::size_t after = mallinfo2().uordblks;
  EXPECT_LT(after, before + kBoundBytes)
      << "heap grew by " << (after - before) << " B over "
      << 4 * kWarmup * kThreads << " updates";
#endif
}

TEST(SnapshotStress, AfekWaitFreeUnderChurn) {
  // All threads update and scan continuously; every scan terminates (the
  // run itself completing is the assertion) and contains plausible values.
  constexpr std::uint32_t kThreads = 6;
  AfekSnapshot snap{kThreads};
  runtime::run_threads(kThreads, [&snap](std::size_t t) {
    const auto proc = static_cast<ProcId>(t);
    for (int i = 1; i <= 300; ++i) {
      snap.update(proc, i);
      const auto view = snap.scan(proc);
      EXPECT_EQ(view.size(), std::size_t{kThreads});
      EXPECT_GE(view[proc], 1) << "own completed update missing";
    }
  });
}

}  // namespace
}  // namespace ruco::snapshot
