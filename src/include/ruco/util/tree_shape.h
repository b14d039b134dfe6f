// Static binary-tree shapes used by the tree-based objects.
//
// A TreeShape is an immutable arena of nodes with parent/child links and a
// leaf table.  Shapes are built once at object construction; the concurrent
// algorithms then index into flat value arrays using NodeId, so the *same*
// shape code drives both the std::atomic production layer and the
// deterministic simulation layer (guaranteeing identical step counts).
//
// Three shapes are provided:
//   * complete_shape(L)  -- a left-complete binary tree with L leaves, the
//     substrate for Jayanti-style f-arrays and the right subtree TR of
//     Algorithm A (Hendler & Khait, PODC'14, Section 5).
//   * b1_shape(L)        -- the Bentley-Yao B1 unbounded-search tree: leaf v
//     sits at depth O(log v), the left subtree TL of Algorithm A.
//   * AlgorithmATreeShape -- the composite tree T of Figure 4: a root whose
//     left child is b1_shape(N) (value leaves) and whose right child is
//     complete_shape(N) (per-process leaves).
//
// Leaf placement.  The paper gives process i "the i-th leaf"; its step
// bounds only ever use the *depth* of a process's leaf, so they hold for
// any depth-preserving bijection from processes to leaves.  The complete
// builder uses one: inside every power-of-two complete subtree it deals the
// ordinals alternately to the left and right child (bit-reversed order),
// and it splits other counts contiguously, as a plain left-complete layout
// would.  Every ordinal keeps the depth the contiguous layout gives it, so
// every step count is unchanged, but in a power-of-two tree processes
// 0..k-1 -- the ones a thread registry hands out first -- part ways within
// the top log2(k) levels instead of running together down to log2(k) levels
// above the leaves.  Leaf ordinals are therefore not in left-to-right order;
// leaf_order() gives that order.
#pragma once

#include <cstdint>
#include <vector>

namespace ruco::util {

class TreeShape {
 public:
  using NodeId = std::uint32_t;
  static constexpr NodeId kNil = UINT32_MAX;

  TreeShape() = default;

  [[nodiscard]] NodeId root() const noexcept { return root_; }
  [[nodiscard]] NodeId parent(NodeId n) const { return nodes_[n].parent; }
  [[nodiscard]] NodeId left(NodeId n) const { return nodes_[n].left; }
  [[nodiscard]] NodeId right(NodeId n) const { return nodes_[n].right; }
  [[nodiscard]] bool is_leaf(NodeId n) const {
    return nodes_[n].left == kNil && nodes_[n].right == kNil;
  }
  /// For leaf nodes: the leaf ordinal (0-based); kNil for internal nodes.
  [[nodiscard]] std::uint32_t leaf_index(NodeId n) const {
    return nodes_[n].leaf;
  }
  /// NodeId of the leaf with ordinal i (0-based).
  [[nodiscard]] NodeId leaf(std::uint32_t i) const { return leaves_[i]; }
  /// The leaf ordinals in left-to-right position order.
  [[nodiscard]] std::vector<std::uint32_t> leaf_order() const;
  [[nodiscard]] std::size_t leaf_count() const noexcept {
    return leaves_.size();
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  /// Number of edges from n up to the root.
  [[nodiscard]] std::uint32_t depth(NodeId n) const {
    return nodes_[n].depth;
  }
  /// The sibling of n, or kNil for the root.
  [[nodiscard]] NodeId sibling(NodeId n) const;

 private:
  friend TreeShape complete_shape(std::uint32_t leaves);
  friend TreeShape b1_shape(std::uint32_t leaves);
  friend class AlgorithmATreeShape;

  struct Node {
    NodeId parent = kNil;
    NodeId left = kNil;
    NodeId right = kNil;
    std::uint32_t leaf = kNil;  // leaf ordinal, kNil for internal nodes
    std::uint32_t depth = 0;    // filled by set_root
  };

  NodeId add_leaf(std::uint32_t leaf_ordinal);
  NodeId add_internal(NodeId left_child, NodeId right_child);
  /// Left-complete tree over the leaf ordinals first + j*stride, j in
  /// [0, count), placed as described at the top of this file.
  NodeId build_complete(std::uint32_t first, std::uint32_t count,
                        std::uint32_t stride = 1);
  /// Bentley-Yao B1 tree over leaf ordinals [0, count).
  NodeId build_b1(std::uint32_t count);
  /// Makes r (the last node added) the root and fills every node's depth.
  void set_root(NodeId r);

  std::vector<Node> nodes_;
  std::vector<NodeId> leaves_;
  NodeId root_ = kNil;
};

/// A left-complete binary tree with `leaves` >= 1 leaves; leaf i at depth
/// <= ceil(log2(leaves)), placed as described at the top of this file.
[[nodiscard]] TreeShape complete_shape(std::uint32_t leaves);

/// The Bentley-Yao B1 tree with `leaves` >= 1 leaves; leaf v at depth
/// <= 2*floor(log2(v+1)) + 2 = O(log v).  Small ordinals are near the root,
/// which is what makes Algorithm A's WriteMax(v) cost O(log v) for v < N.
[[nodiscard]] TreeShape b1_shape(std::uint32_t leaves);

/// The composite tree of Hendler & Khait Figure 4 for N processes:
/// root(left = B1 with N value leaves, right = complete with N process
/// leaves).  WriteMax(v) starts at value_leaf(v) when v < N and at
/// process_leaf(i) otherwise; ReadMax reads the root only.
class AlgorithmATreeShape {
 public:
  using NodeId = TreeShape::NodeId;
  static constexpr NodeId kNil = TreeShape::kNil;

  explicit AlgorithmATreeShape(std::uint32_t num_processes);

  [[nodiscard]] NodeId root() const noexcept { return shape_.root(); }
  [[nodiscard]] NodeId parent(NodeId n) const { return shape_.parent(n); }
  [[nodiscard]] NodeId left(NodeId n) const { return shape_.left(n); }
  [[nodiscard]] NodeId right(NodeId n) const { return shape_.right(n); }
  [[nodiscard]] NodeId sibling(NodeId n) const { return shape_.sibling(n); }
  [[nodiscard]] bool is_leaf(NodeId n) const { return shape_.is_leaf(n); }
  [[nodiscard]] std::uint32_t depth(NodeId n) const { return shape_.depth(n); }
  [[nodiscard]] std::size_t node_count() const { return shape_.node_count(); }
  [[nodiscard]] std::uint32_t num_processes() const noexcept { return n_; }

  /// Leaf for WriteMax(v), v in [0, N): the v-th leaf of the B1 subtree.
  [[nodiscard]] NodeId value_leaf(std::uint64_t v) const;
  /// Leaf for WriteMax by process i when the operand is >= N: process i's
  /// leaf of the complete subtree.
  [[nodiscard]] NodeId process_leaf(std::uint32_t i) const;

 private:
  std::uint32_t n_;
  TreeShape shape_;
  std::vector<NodeId> value_leaves_;    // leaves of TL, by value
  std::vector<NodeId> process_leaves_;  // leaves of TR, by process id
};

}  // namespace ruco::util
