#include "ruco/util/tree_shape.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "ruco/util/bits.h"

namespace ruco::util {

TreeShape::NodeId TreeShape::sibling(NodeId n) const {
  const NodeId p = nodes_[n].parent;
  if (p == kNil) return kNil;
  return nodes_[p].left == n ? nodes_[p].right : nodes_[p].left;
}

TreeShape::NodeId TreeShape::add_leaf(std::uint32_t leaf_ordinal) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node node;
  node.leaf = leaf_ordinal;
  nodes_.push_back(node);
  if (leaf_ordinal >= leaves_.size()) leaves_.resize(leaf_ordinal + 1, kNil);
  leaves_[leaf_ordinal] = id;
  return id;
}

TreeShape::NodeId TreeShape::add_internal(NodeId left_child,
                                          NodeId right_child) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node node;
  node.left = left_child;
  node.right = right_child;
  nodes_.push_back(node);
  nodes_[left_child].parent = id;
  nodes_[right_child].parent = id;
  return id;
}

TreeShape::NodeId TreeShape::build_complete(std::uint32_t first,
                                            std::uint32_t count,
                                            std::uint32_t stride) {
  assert(count >= 1);
  if (count == 1) return add_leaf(first);
  if (is_pow2(count)) {
    // Deal the ordinals alternately, even positions left and odd right
    // (bit-reversed order), so ordinals that are close in number share only
    // the top of the subtree.  All leaves of a power-of-two complete subtree
    // sit at one depth, so the deal moves no ordinal to another depth.
    const NodeId l = build_complete(first, count / 2, 2 * stride);
    const NodeId r = build_complete(first + stride, count / 2, 2 * stride);
    return add_internal(l, r);
  }
  // Left-complete split: the left subtree takes the largest power of two
  // strictly less than count, so every leaf depth is <= ceil(log2(count)).
  const auto half = static_cast<std::uint32_t>(next_pow2(count) / 2);
  const NodeId l = build_complete(first, half, stride);
  const NodeId r = build_complete(first + half * stride, count - half, stride);
  return add_internal(l, r);
}

void TreeShape::set_root(NodeId r) {
  assert(r + std::size_t{1} == nodes_.size());
  root_ = r;
  // Parents are appended after their children, so a descending pass sees
  // every parent's depth before its children's.
  for (std::size_t n = nodes_.size(); n-- > 0;) {
    const NodeId p = nodes_[n].parent;
    nodes_[n].depth = p == kNil ? 0 : nodes_[p].depth + 1;
  }
}

std::vector<std::uint32_t> TreeShape::leaf_order() const {
  std::vector<std::uint32_t> order;
  order.reserve(leaves_.size());
  std::vector<NodeId> stack{root_};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (is_leaf(n)) {
      order.push_back(nodes_[n].leaf);
    } else {
      stack.push_back(nodes_[n].right);
      stack.push_back(nodes_[n].left);
    }
  }
  return order;
}

TreeShape::NodeId TreeShape::build_b1(std::uint32_t count) {
  assert(count >= 1);
  // Group g holds leaf ordinals [2^g - 1, min(2^{g+1} - 1, count)).  Each
  // group is a complete subtree; groups hang off a right-descending spine so
  // leaf v's depth is (its group index) + (depth inside the group subtree)
  // + 1 = O(log v).
  struct Group {
    std::uint32_t first;
    std::uint32_t size;
  };
  std::vector<Group> groups;
  for (std::uint32_t g = 0;; ++g) {
    const std::uint64_t lo = (std::uint64_t{1} << g) - 1;
    if (lo >= count) break;
    const std::uint64_t hi =
        std::min<std::uint64_t>((std::uint64_t{1} << (g + 1)) - 1, count);
    groups.push_back({static_cast<std::uint32_t>(lo),
                      static_cast<std::uint32_t>(hi - lo)});
  }
  NodeId chain = build_complete(groups.back().first, groups.back().size);
  for (std::size_t g = groups.size() - 1; g-- > 0;) {
    const NodeId sub = build_complete(groups[g].first, groups[g].size);
    chain = add_internal(sub, chain);
  }
  return chain;
}

TreeShape complete_shape(std::uint32_t leaves) {
  if (leaves == 0) throw std::invalid_argument{"complete_shape: 0 leaves"};
  TreeShape shape;
  shape.set_root(shape.build_complete(0, leaves));
  return shape;
}

TreeShape b1_shape(std::uint32_t leaves) {
  if (leaves == 0) throw std::invalid_argument{"b1_shape: 0 leaves"};
  TreeShape shape;
  shape.set_root(shape.build_b1(leaves));
  return shape;
}

AlgorithmATreeShape::AlgorithmATreeShape(std::uint32_t num_processes)
    : n_{num_processes} {
  if (num_processes == 0) {
    throw std::invalid_argument{"AlgorithmATreeShape: 0 processes"};
  }
  // Build both subtrees into one arena: TL leaves get ordinals [0, N) (value
  // leaves) and TR leaves get ordinals [N, 2N) (process leaves).
  const NodeId tl = shape_.build_b1(n_);
  const NodeId tr = shape_.build_complete(n_, n_);
  shape_.set_root(shape_.add_internal(tl, tr));
  value_leaves_.reserve(n_);
  process_leaves_.reserve(n_);
  for (std::uint32_t v = 0; v < n_; ++v) {
    value_leaves_.push_back(shape_.leaf(v));
  }
  for (std::uint32_t i = 0; i < n_; ++i) {
    process_leaves_.push_back(shape_.leaf(n_ + i));
  }
}

AlgorithmATreeShape::NodeId AlgorithmATreeShape::value_leaf(
    std::uint64_t v) const {
  assert(v < n_);
  return value_leaves_[static_cast<std::size_t>(v)];
}

AlgorithmATreeShape::NodeId AlgorithmATreeShape::process_leaf(
    std::uint32_t i) const {
  assert(i < n_);
  return process_leaves_[i];
}

}  // namespace ruco::util
