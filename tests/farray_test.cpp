// Generic f-array: aggregate semantics across combine functions, step
// bounds, threaded stress, and the documented monotonicity requirement
// (including a demonstration of what breaks without it).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "ruco/counter/farray_counter.h"
#include "ruco/farray/farray.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/runtime/thread_harness.h"
#include "ruco/util/bits.h"
#include "ruco/util/rng.h"

namespace ruco::farray {
namespace {

TEST(FArray, MaxAggregate) {
  MaxFArray fa{8, kNoValue};
  EXPECT_EQ(fa.read_aggregate(0), kNoValue);
  fa.update(3, 17);
  fa.update(5, 9);
  EXPECT_EQ(fa.read_aggregate(0), 17);
  EXPECT_EQ(fa.read_slot(0, 3), 17);
  EXPECT_EQ(fa.read_slot(0, 5), 9);
}

TEST(FArray, SumAggregate) {
  SumFArray fa{5, 0};
  for (ProcId s = 0; s < 5; ++s) fa.update(s, static_cast<Value>(s) + 1);
  EXPECT_EQ(fa.read_aggregate(0), 15);
}

TEST(FArray, MinAggregateWithInfinityIdentity) {
  constexpr Value kInf = std::numeric_limits<Value>::max();
  MinFArray fa{4, kInf};
  EXPECT_EQ(fa.read_aggregate(0), kInf);
  fa.update(2, 100);
  fa.update(1, 42);
  EXPECT_EQ(fa.read_aggregate(0), 42);
}

TEST(FArray, OrAggregateUnionsBits) {
  OrFArray fa{4, 0};
  fa.update(0, 0b0001);
  fa.update(1, 0b0100);
  fa.update(3, 0b1000);
  EXPECT_EQ(fa.read_aggregate(0), 0b1101);
}

TEST(FArray, ReadSlotReturnsThatSlotsValue) {
  // Slots are scattered over the leaves; read_slot must still find each.
  for (const std::uint32_t n : {4u, 5u, 8u, 64u}) {
    SumFArray fa{n, 0};
    Value sum = 0;
    for (ProcId s = 0; s < n; ++s) {
      fa.update(s, 1000 + s);
      sum += 1000 + s;
    }
    for (ProcId s = 0; s < n; ++s) {
      EXPECT_EQ(fa.read_slot(0, s), 1000 + s) << "N=" << n << " slot " << s;
    }
    EXPECT_EQ(fa.read_aggregate(0), sum) << "N=" << n;
  }
}

TEST(FArray, SingleSlotIsItsOwnRoot) {
  SumFArray fa{1, 0};
  fa.update(0, 7);
  EXPECT_EQ(fa.read_aggregate(0), 7);
}

TEST(FArray, RejectsZeroSlots) {
  EXPECT_THROW((SumFArray{0, 0}), std::invalid_argument);
  // The f-array counter is a SumFArray and inherits the check.
  EXPECT_THROW((counter::FArrayCounter{0}), std::invalid_argument);
}

class FArrayStepsTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FArrayStepsTest, UpdateLogNReadOne) {
  const std::uint32_t n = GetParam();
  MaxFArray fa{n, kNoValue};
  const std::uint64_t levels = util::ceil_log2(n);
  runtime::StepScope u;
  fa.update(0, 5);
  EXPECT_LE(u.taken(), 8 * levels + 1);
  runtime::StepScope r;
  (void)fa.read_aggregate(0);
  EXPECT_EQ(r.taken(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FArrayStepsTest,
                         ::testing::Values(1, 2, 3, 8, 100, 1024));

TEST(FArray, ThreadedMonotoneMaxConverges) {
  constexpr std::uint32_t kThreads = 8;
  MaxFArray fa{kThreads, kNoValue};
  runtime::run_threads(kThreads, [&fa](std::size_t t) {
    // Monotone per-slot updates, as the contract requires.
    for (Value v = 0; v <= 2000; ++v) {
      fa.update(static_cast<ProcId>(t), v * static_cast<Value>(t + 1));
    }
  });
  EXPECT_EQ(fa.read_aggregate(0), 2000 * 8);
}

TEST(FArray, ThreadedMonotoneSumIsExact) {
  constexpr std::uint32_t kThreads = 8;
  SumFArray fa{kThreads, 0};
  runtime::run_threads(kThreads, [&fa](std::size_t t) {
    for (Value v = 1; v <= 3000; ++v) fa.update(static_cast<ProcId>(t), v);
  });
  EXPECT_EQ(fa.read_aggregate(0), 3000 * 8);
}

TEST(FArray, ThreadedAggregateNeverRegresses) {
  // Under monotone updates the root is monotone too -- the observable form
  // of the ABA-freedom argument.
  MaxFArray fa{4, kNoValue};
  std::vector<Value> observed;
  runtime::run_threads(4, [&](std::size_t t) {
    if (t == 0) {
      observed.reserve(5000);
      for (int i = 0; i < 5000; ++i) {
        observed.push_back(fa.read_aggregate(0));
      }
    } else {
      for (Value v = 0; v < 2000; ++v) {
        fa.update(static_cast<ProcId>(t), v);
      }
    }
  });
  EXPECT_TRUE(std::is_sorted(observed.begin(), observed.end()));
}

TEST(FArray, NonMonotoneUpdatesCanRegressTheAggregate) {
  // Contract demonstration: writing a *smaller* value into a Max f-array
  // (non-monotone use) legitimately lowers slots, and the aggregate is not
  // a linearizable "max of current slots" under concurrency -- sequentially
  // it still converges, which is all we promise here.
  MaxFArray fa{2, kNoValue};
  fa.update(0, 100);
  EXPECT_EQ(fa.read_aggregate(0), 100);
  fa.update(0, 5);  // non-monotone slot write
  // Sequentially the refresh recomputes from the slots: aggregate drops.
  EXPECT_EQ(fa.read_aggregate(0), 5)
      << "sequential refresh tracks slots exactly";
}

TEST(FArray, RandomizedAgainstOracle) {
  util::SplitMix64 rng{404};
  constexpr std::uint32_t n = 6;
  SumFArray fa{n, 0};
  std::vector<Value> slots(n, 0);
  for (int i = 0; i < 500; ++i) {
    const auto s = static_cast<ProcId>(rng.below(n));
    slots[s] += static_cast<Value>(rng.below(50));  // monotone growth
    fa.update(s, slots[s]);
    Value sum = 0;
    for (const Value v : slots) sum += v;
    ASSERT_EQ(fa.read_aggregate(0), sum) << "op " << i;
  }
}

}  // namespace
}  // namespace ruco::farray
