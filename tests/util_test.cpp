// Unit tests for the util substrate: bit helpers, tree shapes (complete,
// B1, Algorithm A composite), PRNG, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "ruco/util/bits.h"
#include "ruco/util/rng.h"
#include "ruco/util/stats.h"
#include "ruco/util/tree_shape.h"

namespace ruco::util {
namespace {

// ---------------------------------------------------------------- bits

TEST(Bits, FloorLog2Basics) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(1023), 9u);
  EXPECT_EQ(floor_log2(1024), 10u);
  EXPECT_EQ(floor_log2(UINT64_MAX), 63u);
}

TEST(Bits, FloorLog2ZeroConvention) { EXPECT_EQ(floor_log2(0), 0u); }

TEST(Bits, CeilLog2Basics) {
  EXPECT_EQ(ceil_log2(0), 0u);
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1u << 20), 20u);
  EXPECT_EQ(ceil_log2((1u << 20) + 1), 21u);
}

TEST(Bits, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
}

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1u << 30));
  EXPECT_FALSE(is_pow2((1u << 30) + 1));
}

TEST(Bits, FloorCeilAgreeOnPowersOfTwo) {
  for (std::uint32_t e = 0; e < 40; ++e) {
    const std::uint64_t x = std::uint64_t{1} << e;
    EXPECT_EQ(floor_log2(x), e);
    EXPECT_EQ(ceil_log2(x), e);
  }
}

// --------------------------------------------------------- tree shapes

void check_structure(const TreeShape& shape) {
  // Parent/child links are mutually consistent; exactly one root; every
  // leaf registered in the leaf table; internal nodes have two children.
  std::size_t roots = 0;
  std::size_t leaves = 0;
  for (TreeShape::NodeId n = 0; n < shape.node_count(); ++n) {
    if (shape.parent(n) == TreeShape::kNil) {
      ++roots;
      EXPECT_EQ(n, shape.root());
    } else {
      const auto p = shape.parent(n);
      EXPECT_TRUE(shape.left(p) == n || shape.right(p) == n);
    }
    if (shape.is_leaf(n)) {
      ++leaves;
      EXPECT_NE(shape.leaf_index(n), TreeShape::kNil);
      EXPECT_EQ(shape.leaf(shape.leaf_index(n)), n);
    } else {
      EXPECT_NE(shape.left(n), TreeShape::kNil);
      EXPECT_NE(shape.right(n), TreeShape::kNil);
      EXPECT_EQ(shape.parent(shape.left(n)), n);
      EXPECT_EQ(shape.parent(shape.right(n)), n);
    }
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(leaves, shape.leaf_count());
  // A full binary tree with L leaves has 2L - 1 nodes.
  EXPECT_EQ(shape.node_count(), 2 * shape.leaf_count() - 1);
}

class CompleteShapeTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CompleteShapeTest, StructureAndDepth) {
  const std::uint32_t leaves = GetParam();
  const TreeShape shape = complete_shape(leaves);
  ASSERT_EQ(shape.leaf_count(), leaves);
  check_structure(shape);
  const std::uint32_t max_depth = ceil_log2(leaves);
  for (std::uint32_t i = 0; i < leaves; ++i) {
    EXPECT_LE(shape.depth(shape.leaf(i)), max_depth)
        << "leaf " << i << " of " << leaves;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompleteShapeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 33,
                                           64, 100, 127, 128, 129, 1000,
                                           1024));

class B1ShapeTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(B1ShapeTest, StructureAndLogarithmicLeafDepth) {
  const std::uint32_t leaves = GetParam();
  const TreeShape shape = b1_shape(leaves);
  ASSERT_EQ(shape.leaf_count(), leaves);
  check_structure(shape);
  // Bentley-Yao property: leaf v at depth O(log v) -- the small-value
  // leaves sit near the root.  Bound: depth(v) <= 2*floor_log2(v+1) + 2.
  for (std::uint32_t v = 0; v < leaves; ++v) {
    const auto depth = shape.depth(shape.leaf(v));
    EXPECT_LE(depth, 2 * floor_log2(v + 1) + 2) << "leaf " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, B1ShapeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 9, 15, 16, 17,
                                           100, 1023, 1024, 4096));

TEST(B1Shape, LeafZeroIsNearRoot) {
  // WriteMax(0) must be O(1): leaf 0's depth is a small constant at every
  // size.
  for (const std::uint32_t leaves : {2u, 16u, 1024u, 65536u}) {
    const TreeShape shape = b1_shape(leaves);
    EXPECT_LE(shape.depth(shape.leaf(0)), 2u) << leaves << " leaves";
  }
}

TEST(B1Shape, DepthGrowsWithValueNotSize) {
  // Depth of a fixed leaf v stabilizes as the tree grows: the B1 layout is
  // value-indexed, not size-balanced.
  const TreeShape small = b1_shape(1024);
  const TreeShape large = b1_shape(65536);
  for (const std::uint32_t v : {0u, 1u, 5u, 100u, 1000u}) {
    EXPECT_EQ(small.depth(small.leaf(v)), large.depth(large.leaf(v)))
        << "leaf " << v;
  }
}

TEST(TreeShape, SiblingIsSymmetric) {
  const TreeShape shape = complete_shape(16);
  for (TreeShape::NodeId n = 0; n < shape.node_count(); ++n) {
    const auto s = shape.sibling(n);
    if (n == shape.root()) {
      EXPECT_EQ(s, TreeShape::kNil);
    } else {
      ASSERT_NE(s, TreeShape::kNil);
      EXPECT_EQ(shape.sibling(s), n);
      EXPECT_EQ(shape.parent(s), shape.parent(n));
    }
  }
}

TEST(TreeShape, RejectsZeroLeaves) {
  EXPECT_THROW((void)complete_shape(0), std::invalid_argument);
  EXPECT_THROW((void)b1_shape(0), std::invalid_argument);
}

// -------------------------------------------------------- leaf placement

// Oracle: each ordinal's depth under a plain contiguous left-complete layout
// of ordinals [first, first + count) hanging at `depth`.
void contiguous_depths(std::uint32_t first, std::uint32_t count,
                       std::uint32_t depth, std::vector<std::uint32_t>& out) {
  if (count == 1) {
    out[first] = depth;
    return;
  }
  const auto half = static_cast<std::uint32_t>(next_pow2(count) / 2);
  const std::uint32_t left = half == count ? count / 2 : half;
  contiguous_depths(first, left, depth + 1, out);
  contiguous_depths(first + left, count - left, depth + 1, out);
}

// Depth of the lowest common ancestor of a and b.
std::uint32_t lca_depth(const TreeShape& shape, TreeShape::NodeId a,
                        TreeShape::NodeId b) {
  while (shape.depth(a) > shape.depth(b)) a = shape.parent(a);
  while (shape.depth(b) > shape.depth(a)) b = shape.parent(b);
  while (a != b) {
    a = shape.parent(a);
    b = shape.parent(b);
  }
  return shape.depth(a);
}

TEST(LeafPlacement, CompleteShapeIsADepthPreservingBijection) {
  for (std::uint32_t n = 1; n <= 130; ++n) {
    const TreeShape shape = complete_shape(n);
    std::vector<std::uint32_t> oracle(n);
    contiguous_depths(0, n, 0, oracle);
    std::vector<std::uint32_t> order = shape.leaf_order();
    ASSERT_EQ(order.size(), n);
    std::sort(order.begin(), order.end());
    for (std::uint32_t i = 0; i < n; ++i) {
      EXPECT_EQ(shape.leaf_index(shape.leaf(i)), i) << "N=" << n;
      EXPECT_EQ(order[i], i) << "N=" << n;
      EXPECT_EQ(shape.depth(shape.leaf(i)), oracle[i])
          << "slot " << i << " of " << n;
    }
  }
}

TEST(LeafPlacement, B1ShapeKeepsEveryValueDepth) {
  // B1 hangs group g = [2^g - 1, 2^{g+1} - 1) off a right spine at depth
  // g + 1 (the last group shares the bottom spine node, depth G - 1) and
  // lays each group out as a complete subtree.
  for (const std::uint32_t n : {1u, 2u, 3u, 7u, 8u, 100u, 1024u}) {
    const TreeShape shape = b1_shape(n);
    const std::uint32_t groups = floor_log2(n) + 1;
    std::vector<std::uint32_t> oracle(n);
    for (std::uint32_t g = 0; g < groups; ++g) {
      const std::uint32_t lo = (1u << g) - 1;
      const std::uint32_t hi = std::min((2u << g) - 1, n);
      contiguous_depths(lo, hi - lo, std::min(g + 1, groups - 1), oracle);
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      EXPECT_EQ(shape.depth(shape.leaf(v)), oracle[v])
          << "value " << v << " of " << n;
    }
  }
}

TEST(LeafPlacement, ThreeLeafShapesAreUnchanged) {
  // N = 3 has no power-of-two subtree above two leaves, so the shapes the
  // model-checked 3-process programs run on are node for node the
  // contiguous ones: {parent, left, right} per NodeId.
  using Row = std::vector<int>;
  auto rows = [](const auto& shape) {
    std::vector<Row> out;
    for (TreeShape::NodeId n = 0; n < shape.node_count(); ++n) {
      out.push_back({static_cast<int>(shape.parent(n)),
                     static_cast<int>(shape.left(n)),
                     static_cast<int>(shape.right(n))});
    }
    return out;
  };
  const TreeShape complete = complete_shape(3);
  EXPECT_EQ(rows(complete), (std::vector<Row>{{2, -1, -1},
                                              {2, -1, -1},
                                              {4, 0, 1},
                                              {4, -1, -1},
                                              {-1, 2, 3}}));
  EXPECT_EQ(complete.leaf_order(), (std::vector<std::uint32_t>{0, 1, 2}));
  const AlgorithmATreeShape alg_a{3};
  EXPECT_EQ(rows(alg_a), (std::vector<Row>{{2, -1, -1},
                                           {2, -1, -1},
                                           {4, 0, 1},
                                           {4, -1, -1},
                                           {10, 3, 2},
                                           {7, -1, -1},
                                           {7, -1, -1},
                                           {9, 5, 6},
                                           {9, -1, -1},
                                           {10, 7, 8},
                                           {-1, 4, 9}}));
  const std::vector<TreeShape::NodeId> value_leaves{3, 0, 1};
  const std::vector<TreeShape::NodeId> process_leaves{5, 6, 8};
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(alg_a.value_leaf(i), value_leaves[i]);
    EXPECT_EQ(alg_a.process_leaf(i), process_leaves[i]);
  }
}

TEST(LeafPlacement, LowSlotsShareOnlyTheTopOfA64LeafTree) {
  // Slots 0-3 are what a thread registry hands four threads; their root
  // paths must part within the top two levels.
  const TreeShape shape = complete_shape(64);
  for (std::uint32_t a = 0; a < 4; ++a) {
    for (std::uint32_t b = a + 1; b < 4; ++b) {
      EXPECT_LE(lca_depth(shape, shape.leaf(a), shape.leaf(b)), 1u)
          << "slots " << a << " and " << b;
    }
  }
}

TEST(TreeShape, DepthCountsEdgesToTheRoot) {
  for (const TreeShape& shape : {complete_shape(13), b1_shape(40)}) {
    for (TreeShape::NodeId n = 0; n < shape.node_count(); ++n) {
      std::uint32_t edges = 0;
      for (auto m = n; m != shape.root(); m = shape.parent(m)) ++edges;
      EXPECT_EQ(shape.depth(n), edges) << "node " << n;
    }
  }
}

class AlgorithmAShapeTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(AlgorithmAShapeTest, CompositeLayout) {
  const std::uint32_t n = GetParam();
  const AlgorithmATreeShape shape{n};
  EXPECT_EQ(shape.num_processes(), n);
  // 2N leaves total: N value leaves + N process leaves => 4N - 1 nodes.
  EXPECT_EQ(shape.node_count(), 4 * static_cast<std::size_t>(n) - 1);
  // Figure 4: the root's left subtree is the B1 tree (value leaves), the
  // right subtree the complete tree (process leaves).
  for (std::uint32_t v = 0; v < n; ++v) {
    auto node = shape.value_leaf(v);
    while (shape.parent(node) != shape.root()) node = shape.parent(node);
    EXPECT_EQ(node, shape.left(shape.root())) << "value leaf " << v;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    auto node = shape.process_leaf(i);
    while (shape.parent(node) != shape.root()) node = shape.parent(node);
    EXPECT_EQ(node, shape.right(shape.root())) << "process leaf " << i;
  }
}

TEST_P(AlgorithmAShapeTest, DepthBounds) {
  const std::uint32_t n = GetParam();
  const AlgorithmATreeShape shape{n};
  // Theorem 6's two regimes: value leaves at O(log v), process leaves at
  // O(log N).
  for (std::uint32_t v = 0; v < n; ++v) {
    EXPECT_LE(shape.depth(shape.value_leaf(v)),
              2 * util::floor_log2(v + 1) + 3);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_LE(shape.depth(shape.process_leaf(i)), util::ceil_log2(n) + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AlgorithmAShapeTest,
                         ::testing::Values(1, 2, 3, 4, 8, 13, 64, 100, 512));

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicForSeed) {
  SplitMix64 a{42};
  SplitMix64 b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  SplitMix64 a{1};
  SplitMix64 b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowRespectsBound) {
  SplitMix64 rng{7};
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  SplitMix64 rng{11};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  SplitMix64 rng{3};
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.range(5, 9);
    EXPECT_GE(x, 5u);
    EXPECT_LE(x, 9u);
  }
}

TEST(Rng, ChanceExtremes) {
  SplitMix64 rng{5};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0, 10));
    EXPECT_TRUE(rng.chance(10, 10));
  }
}

// ---------------------------------------------------------------- stats

TEST(Summary, BasicMoments) {
  Summary s;
  for (const std::uint64_t x : {2u, 4u, 4u, 4u, 5u, 5u, 7u, 9u}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_EQ(s.min(), 2u);
  EXPECT_EQ(s.max(), 9u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Summary, EmptyIsSafe) {
  const Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.min(), 0u);
  EXPECT_EQ(s.max(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Samples, Percentiles) {
  Samples s;
  for (std::uint64_t i = 1; i <= 100; ++i) s.add(i);
  EXPECT_EQ(s.percentile(50), 50u);
  EXPECT_EQ(s.percentile(99), 99u);
  EXPECT_EQ(s.percentile(100), 100u);
  EXPECT_EQ(s.percentile(0), 1u);
  EXPECT_EQ(s.min(), 1u);
  EXPECT_EQ(s.max(), 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Samples, EmptyIsSafe) {
  Samples s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.percentile(50), 0u);
  EXPECT_EQ(s.min(), 0u);
  EXPECT_EQ(s.max(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Samples, SingleSample) {
  Samples s;
  s.add(42);
  // Every percentile of a one-sample series is that sample, including the
  // p == 0 edge where nearest-rank would otherwise compute rank 0.
  EXPECT_EQ(s.percentile(0), 42u);
  EXPECT_EQ(s.percentile(50), 42u);
  EXPECT_EQ(s.percentile(100), 42u);
  EXPECT_EQ(s.min(), 42u);
  EXPECT_EQ(s.max(), 42u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(Samples, PercentileClampsOutOfRange) {
  Samples s;
  for (std::uint64_t i = 1; i <= 10; ++i) s.add(i);
  EXPECT_EQ(s.percentile(-5.0), 1u);
  EXPECT_EQ(s.percentile(250.0), 10u);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h{4};
  for (const std::uint64_t x : {0u, 1u, 1u, 3u, 4u, 100u}) h.add(x);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.overflow(), 2u);  // 4 and 100 both land in overflow
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.to_string(), "0:1 1:2 3:1 >=4:2");
}

TEST(Histogram, OverflowBoundary) {
  Histogram h{4};
  h.add(3);  // last in-range bucket
  h.add(4);  // first overflow value
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bucket_count(), 4u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, ZeroBucketsSendsEverythingToOverflow) {
  Histogram h{0};
  h.add(0);
  h.add(7);
  EXPECT_EQ(h.bucket_count(), 0u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.to_string(), ">=0:2");
}

}  // namespace
}  // namespace ruco::util
