// Golden step counts: exact shared-memory event counts for representative
// operations, pinned so constant-factor regressions (an extra read in a
// hot loop, a lost early-out) fail loudly instead of silently shifting the
// benchmarks.  These are *exact* values of the current algorithms -- when
// an intentional change shifts one, update it deliberately and note why.
#include <gtest/gtest.h>

#include "ruco/ruco.h"

namespace ruco {
namespace {

template <typename F>
std::uint64_t steps(F&& f) {
  runtime::StepScope scope;
  f();
  return scope.taken();
}

TEST(GoldenSteps, TreeMaxRegisterWrites) {
  // N = 16; fresh register per case.  Conditional refresh (see
  // ruco/maxreg/propagate.h): solo, every first-round CAS wins and prunes
  // the second round, so a level costs 4 events (node + 2 children + CAS)
  // instead of the paper-literal 8.  Total = 1 root-fastpath read + 2 leaf
  // events + 4 x depth.
  {
    maxreg::TreeMaxRegister r{16};
    EXPECT_EQ(steps([&] { r.write_max(0, 0); }), 11u);  // leaf 0: depth 2
  }
  {
    maxreg::TreeMaxRegister r{16};
    EXPECT_EQ(steps([&] { r.write_max(0, 1); }), 19u);  // depth 4
  }
  {
    maxreg::TreeMaxRegister r{16};
    EXPECT_EQ(steps([&] { r.write_max(0, 15); }), 23u);  // last B1 leaf
  }
  {
    maxreg::TreeMaxRegister r{16};
    EXPECT_EQ(steps([&] { r.write_max(3, 100); }), 23u);  // TR leaf: depth 5
  }
  {
    // Duplicate operand with the root already covering it: the root-check
    // fast path returns after a single read (was a full helping
    // propagation before the fast path).
    maxreg::TreeMaxRegister r{16};
    r.write_max(0, 5);
    EXPECT_EQ(steps([&] { r.write_max(1, 5); }), 1u);
  }
  {
    maxreg::TreeMaxRegister r{16};
    EXPECT_EQ(steps([&] { (void)r.read_max(0); }), 1u);
  }
}

TEST(GoldenSteps, AacMaxRegister) {
  // M = 1024 (10 levels): reads 11 (any_write + 10 switches); writes 11
  // for both the all-left and all-right extremes (10 switch ops +
  // any_write).
  maxreg::AacMaxRegister r{1024};
  EXPECT_EQ(steps([&] { r.write_max(0, 0); }), 11u);
  EXPECT_EQ(steps([&] { r.write_max(0, 1023); }), 11u);
  EXPECT_EQ(steps([&] { (void)r.read_max(0); }), 11u);
}

TEST(GoldenSteps, UnboundedAacMaxRegister) {
  maxreg::UnboundedAacMaxRegister r{20};
  EXPECT_EQ(steps([&] { r.write_max(0, 0); }), 2u);  // spine check + group 0
  EXPECT_EQ(steps([&] { r.write_max(0, 1000); }), 20u);  // group 9
  EXPECT_EQ(steps([&] { (void)r.read_max(0); }), 20u);
}

TEST(GoldenSteps, Counters) {
  {
    counter::FArrayCounter c{64};  // 6 levels x 4 (conditional) + leaf write
    EXPECT_EQ(steps([&] { c.increment(9); }), 25u);
    EXPECT_EQ(steps([&] { (void)c.read(0); }), 1u);
  }
  {
    counter::MaxRegCounter c{16, 255};  // U = 255: 8-level registers
    EXPECT_EQ(steps([&] { c.increment(0); }), 70u);
    EXPECT_EQ(steps([&] { (void)c.read(1); }), 9u);
  }
  {
    counter::UnboundedMaxRegCounter c{16};
    c.increment(0);
    EXPECT_EQ(steps([&] { c.increment(0); }), 35u);  // count = 2: tiny logs
    EXPECT_EQ(steps([&] { (void)c.read(1); }), 4u);
  }
  {
    counter::FetchAddCounter c;
    EXPECT_EQ(steps([&] { c.increment(0); }), 1u);
    EXPECT_EQ(steps([&] { (void)c.read(0); }), 1u);
  }
}

TEST(GoldenSteps, Snapshots) {
  {
    snapshot::FArraySnapshot s{32};  // 5 levels x 4 (conditional) + leaf write
    EXPECT_EQ(steps([&] { s.update(7, 3); }), 21u);
    EXPECT_EQ(steps([&] { (void)s.scan(0); }), 1u);
  }
  {
    snapshot::AfekSnapshot s{12};
    EXPECT_EQ(steps([&] { s.update(0, 1); }), 25u);  // embedded scan + write
    EXPECT_EQ(steps([&] { (void)s.scan(1); }), 24u);
  }
  {
    snapshot::DoubleCollectSnapshot s{12};
    EXPECT_EQ(steps([&] { s.update(0, 1); }), 1u);
    EXPECT_EQ(steps([&] { (void)s.scan(1); }), 24u);
  }
}

TEST(GoldenSteps, FArrayNoChangeSkipsCas) {
  // Writing the value a slot already holds leaves every path node's
  // aggregate unchanged, so conditional refresh skips all CASes: 1 leaf
  // write + 3 reads per level (node + 2 children, no CAS).
  farray::SumFArray a{8, 0};  // 3 levels
  a.update(0, 5);
  EXPECT_EQ(steps([&] { a.update(0, 5); }), 10u);
}

TEST(GoldenSteps, SoftwareMcas) {
  kcas::McasArray a{4, 0, 2};
  // 2-word MCAS, uncontended: status load + 2 x (RDCSS cas + complete's
  // control load + complete's cas) + status cas + status load + 2 release
  // CASes = 11 cell/status events.
  EXPECT_EQ(steps([&] {
              (void)a.mcas(0, {kcas::McasWord{0, 0, 1},
                               kcas::McasWord{2, 0, 1}});
            }),
            11u);
  EXPECT_EQ(steps([&] { (void)a.read(0, 1); }), 1u);
}

TEST(GoldenSteps, ConstructionTakesNoSteps) {
  // Building an object -- filling its cells, AAC switch trees, the
  // f-array snapshot's initial views -- is setup, not shared-memory events.
  EXPECT_EQ(steps([] { maxreg::TreeMaxRegister r{64}; }), 0u);
  EXPECT_EQ(steps([] { maxreg::AacMaxRegister r{1 << 20}; }), 0u);
  EXPECT_EQ(steps([] { maxreg::UnboundedAacMaxRegister r{20}; }), 0u);
  EXPECT_EQ(steps([] { maxreg::CasMaxRegister r; }), 0u);
  EXPECT_EQ(steps([] { maxreg::LockMaxRegister r; }), 0u);
  EXPECT_EQ(steps([] { farray::MaxFArray a{64, 0}; }), 0u);
  EXPECT_EQ(steps([] { counter::FArrayCounter c{64}; }), 0u);
  EXPECT_EQ(steps([] { counter::MaxRegCounter c{16, 255}; }), 0u);
  EXPECT_EQ(steps([] { counter::UnboundedMaxRegCounter c{16}; }), 0u);
  EXPECT_EQ(steps([] { counter::FetchAddCounter c; }), 0u);
  EXPECT_EQ(steps([] { counter::KcasCounter c{8}; }), 0u);
  EXPECT_EQ(steps([] {
              counter::SnapshotCounter<snapshot::FArraySnapshot> c{8};
            }),
            0u);
  EXPECT_EQ(steps([] { snapshot::FArraySnapshot s{64}; }), 0u);
  EXPECT_EQ(steps([] { snapshot::AfekSnapshot s{12}; }), 0u);
  EXPECT_EQ(steps([] { snapshot::DoubleCollectSnapshot s{12}; }), 0u);
  EXPECT_EQ(steps([] { kcas::McasArray a{16, 7, 4}; }), 0u);
}

}  // namespace
}  // namespace ruco
