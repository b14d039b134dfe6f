// Cross-module integration: the Corollary 1 reduction end to end, concepts
// conformance, mixed-object workloads, and the production/simulation layers
// exercised together the way the benchmarks use them.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <numeric>

#include "ruco/adversary/counter_adversary.h"
#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/ruco.h"
#include "ruco/sim/schedulers.h"
#include "ruco/simalgos/programs.h"
#include "ruco/simalgos/sim_counters.h"
#include "ruco/util/rng.h"

namespace ruco {
namespace {

// --------------------------------------------------- concept conformance

static_assert(MaxRegisterLike<maxreg::TreeMaxRegister>);
static_assert(MaxRegisterLike<maxreg::AacMaxRegister>);
static_assert(MaxRegisterLike<maxreg::CasMaxRegister>);
static_assert(MaxRegisterLike<maxreg::LockMaxRegister>);
static_assert(MaxRegisterLike<maxreg::UnboundedAacMaxRegister>);
static_assert(CounterLike<counter::FArrayCounter>);
static_assert(CounterLike<counter::MaxRegCounter>);
static_assert(CounterLike<counter::FetchAddCounter>);
static_assert(CounterLike<counter::KcasCounter>);
static_assert(CounterLike<counter::UnboundedMaxRegCounter>);
static_assert(
    CounterLike<counter::SnapshotCounter<snapshot::FArraySnapshot>>);
static_assert(SnapshotLike<snapshot::DoubleCollectSnapshot>);
static_assert(SnapshotLike<snapshot::AfekSnapshot>);
static_assert(SnapshotLike<snapshot::FArraySnapshot>);
static_assert(!MaxRegisterLike<counter::FArrayCounter>);
static_assert(!CounterLike<maxreg::TreeMaxRegister>);

// ------------------------------------------- Corollary 1, both directions

TEST(Corollary1, SnapshotCounterInheritsScanCost) {
  // Counter built on the O(1)-scan f-array snapshot: its read is O(1)
  // steps plus local summing; its increment pays the snapshot's O(log N)
  // update -- i.e. the reduction lands exactly on the f-array counter's
  // point of the tradeoff curve.
  constexpr std::uint32_t n = 64;
  counter::SnapshotCounter<snapshot::FArraySnapshot> via_snapshot{n};
  counter::FArrayCounter direct{n};
  via_snapshot.increment(0);
  direct.increment(0);

  runtime::StepScope r1;
  (void)via_snapshot.read(1);
  const auto via_read_steps = r1.taken();
  runtime::StepScope r2;
  (void)direct.read(1);
  // Both reads are a single root load; the snapshot's scan also pins
  // (epoch load + announce store) and unpins (announce store) around it.
  EXPECT_EQ(via_read_steps, r2.taken() + 3)
      << "a root load plus the scan's three pin/unpin steps";

  runtime::StepScope u1;
  via_snapshot.increment(2);
  const auto via_steps = u1.taken();
  runtime::StepScope u2;
  direct.increment(2);
  const auto direct_steps = u2.taken();
  // Same Theta(log N); the snapshot route pays a constant factor more
  // (views vs sums) but not an asymptotic one.
  EXPECT_LE(via_steps, 2 * direct_steps + 4);
}

TEST(Corollary1, AllSnapshotBackedCountersCountCorrectly) {
  constexpr std::uint32_t kThreads = 4;
  constexpr int kPer = 200;
  counter::SnapshotCounter<snapshot::FArraySnapshot> c1{kThreads};
  counter::SnapshotCounter<snapshot::AfekSnapshot> c2{kThreads};
  runtime::run_threads(kThreads, [&](std::size_t t) {
    for (int i = 0; i < kPer; ++i) {
      c1.increment(static_cast<ProcId>(t));
      c2.increment(static_cast<ProcId>(t));
    }
  });
  EXPECT_EQ(c1.read(0), kThreads * kPer);
  EXPECT_EQ(c2.read(0), kThreads * kPer);
}

// --------------------------------------------- mixed-object workloads

TEST(Integration, MaxRegisterPlusCounterPipeline) {
  // The motivating combo from the introduction: a counter numbers events, a
  // max register publishes the high watermark of processed event ids.
  constexpr std::uint32_t kThreads = 4;
  counter::FArrayCounter sequencer{kThreads};
  maxreg::TreeMaxRegister watermark{kThreads};
  // Watchdog-supervised: if the pipeline ever livelocks, CI gets a loud
  // failure naming the stuck thread instead of a hang.
  runtime::WatchdogOptions watchdog;
  watchdog.deadline = std::chrono::minutes{2};
  const auto run = runtime::run_threads(
      kThreads,
      [&](std::size_t t) {
        for (int i = 0; i < 500; ++i) {
          sequencer.increment(static_cast<ProcId>(t));
          const Value id = sequencer.read(static_cast<ProcId>(t));
          watermark.write_max(static_cast<ProcId>(t), id);
        }
      },
      watchdog);
  ASSERT_TRUE(run.completed_in_time) << run.hang.diagnostic;
  EXPECT_EQ(sequencer.read(0), 2000);
  // The watermark saw some read of the counter; after quiescence it must
  // equal the final count (the last incrementer read >= its own final id...
  // in fact every read happens after the process's own increment, so the
  // max over reads is the max over "count at some instant" = final count
  // only if some process read after the global last increment; at minimum
  // it is >= count/kThreads).
  EXPECT_GE(watermark.read_max(0), 2000 / kThreads);
  EXPECT_LE(watermark.read_max(0), 2000);
}

TEST(Integration, SimAndProductionAgreeOnWorkloadOutcome) {
  // Drive the same deterministic workload through both layers; terminal
  // counter values must agree.
  constexpr std::uint32_t n = 8;
  constexpr int kOpsPerProc = 20;
  counter::FArrayCounter prod{n};
  for (int i = 0; i < kOpsPerProc; ++i) {
    for (ProcId p = 0; p < n; ++p) prod.increment(p);
  }

  sim::Program prog;
  simalgos::SimFArrayCounter twin{prog, n};
  for (ProcId p = 0; p < n; ++p) {
    prog.add_process([&twin](sim::Ctx& ctx) -> sim::Op {
      for (int i = 0; i < kOpsPerProc; ++i) co_await twin.increment(ctx);
      co_return 0;
    });
  }
  sim::System sys{prog};
  sim::run_random(sys, 1234, 1u << 24);
  ASSERT_TRUE(sim::all_done(sys));

  sim::Program probe_prog;  // fresh read through production layer
  EXPECT_EQ(prod.read(0), static_cast<Value>(n) * kOpsPerProc);
  // Sim root object holds the same count.
  EXPECT_EQ(sys.value(twin.root_object()),
            static_cast<Value>(n) * kOpsPerProc);
}

TEST(Integration, RestrictedUseBoundSurvivesConcurrency) {
  // Hammer a MaxRegCounter right at its bound from several threads; the
  // object must either count correctly or throw length_error -- never
  // corrupt.
  constexpr std::uint32_t kThreads = 4;
  constexpr Value kBound = 64;
  counter::MaxRegCounter c{kThreads, kBound};
  std::atomic<int> throws{0};
  runtime::run_threads(kThreads, [&](std::size_t t) {
    for (int i = 0; i < 20; ++i) {
      try {
        c.increment(static_cast<ProcId>(t));
      } catch (const std::length_error&) {
        throws.fetch_add(1);
      }
    }
  });
  const Value final_count = c.read(0);
  EXPECT_EQ(final_count + throws.load(), 80);
  EXPECT_LE(final_count, kBound);
}

// ------------------------------------ step accounting across the stack

TEST(Integration, StepCountsComposeAcrossObjects) {
  maxreg::TreeMaxRegister reg{8};
  counter::FArrayCounter counter{8};
  runtime::StepScope total;
  reg.write_max(0, 3);
  runtime::StepScope counter_only;
  counter.increment(0);
  const auto counter_steps = counter_only.taken();
  reg.write_max(0, 200);
  EXPECT_GT(total.taken(), counter_steps)
      << "outer scope sees all objects' events";
}

// --------------------------------- adversary vs snapshot-counter route

TEST(Integration, AdversaryBoundsHoldAcrossCounterFamilies) {
  // Theorem 1's round bound log_3(N/f(N)) with the measured f: for the
  // f-array f = 1 step, for the AAC counter f = Theta(log U).  Both
  // families' adversary runs must satisfy rounds >= log_3(N / f_measured).
  constexpr std::uint32_t n = 81;
  const auto fa =
      adversary::run_counter_adversary(simalgos::make_farray_counter_program(n));
  const double fa_bound =
      std::log(static_cast<double>(n) /
               static_cast<double>(fa.reader_steps)) /
      std::log(3.0);
  EXPECT_GE(static_cast<double>(fa.rounds), fa_bound);

  const auto mr = adversary::run_counter_adversary(
      simalgos::make_maxreg_counter_program(n, 1 << 10));
  const double mr_bound =
      std::log(static_cast<double>(n) /
               static_cast<double>(mr.reader_steps)) /
      std::log(3.0);
  EXPECT_GE(static_cast<double>(mr.rounds), mr_bound);
}

}  // namespace
}  // namespace ruco
