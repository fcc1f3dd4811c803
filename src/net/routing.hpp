// Routing over a tree Topology.
//
// Every topology the simulator builds (build_hierarchy, build_tree,
// build_star) is a tree: the paper's GriPhyN-like hierarchy (§5.1) has a
// single path between any two nodes, so that path is also the shortest.
// Routing keeps O(n) state: one BFS from node 0 records each node's parent,
// the link to it (its uplink) and its depth. A route climbs both endpoints
// to their lowest common ancestor: the source's uplinks in order, then the
// destination's uplinks in reverse. No path and no n x n table is stored;
// `hops` and `next_hop` answer from the same three arrays.
//
// The constructor rejects any graph that is not a tree (disconnected, a
// cycle, parallel links) with a util::SimError naming its node and link
// counts: Topology can assemble such graphs, but Routing does not route
// them. Nothing is mutated after construction, so one Routing may serve
// grids running on several threads. `hops` is used both by the
// closest-replica selection policy and by the DataCascading extension.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/topology.hpp"

namespace chicsim::net {

class Routing {
 public:
  /// Builds the tree state; throws util::SimError unless `topo` is a tree
  /// (connected, link_count == node_count - 1). Keeps no reference to it.
  explicit Routing(const Topology& topo);

  /// Links traversed from src to dst, in order. Empty when src == dst.
  [[nodiscard]] std::vector<LinkId> path(NodeId src, NodeId dst) const;

  /// Call `fn(link)` for each link from src to dst, in path order, without
  /// allocating.
  template <class Fn>
  void for_each_link(NodeId src, NodeId dst, Fn&& fn) const {
    const NodeId top = common_ancestor(src, dst);
    for (NodeId v = src; v != top; v = parent_[v]) fn(uplink_[v]);
    // The destination side runs against the parent pointers: collect it
    // kChunk links at a time, shallowest chunk first, each emitted in
    // reverse. The paper's trees fit in one chunk.
    std::array<LinkId, kChunk> buf{};
    for (std::uint32_t lo = depth_[top] + 1; lo <= depth_[dst]; lo += kChunk) {
      const std::uint32_t hi = std::min<std::uint32_t>(lo + kChunk - 1, depth_[dst]);
      NodeId v = dst;
      while (depth_[v] > hi) v = parent_[v];
      std::size_t k = 0;
      for (; depth_[v] >= lo; v = parent_[v]) buf[k++] = uplink_[v];
      while (k > 0) fn(buf[--k]);
    }
  }

  /// Number of links between src and dst (0 when equal).
  [[nodiscard]] std::size_t hops(NodeId src, NodeId dst) const;

  /// The next node on the route from src toward dst (dst when adjacent;
  /// src when src == dst).
  [[nodiscard]] NodeId next_hop(NodeId src, NodeId dst) const;

 private:
  static constexpr std::uint32_t kChunk = 32;

  /// Lowest common ancestor; throws util::SimError on an out-of-range node.
  [[nodiscard]] NodeId common_ancestor(NodeId a, NodeId b) const;

  std::vector<NodeId> parent_;        ///< kNoNode at the root (node 0)
  std::vector<LinkId> uplink_;        ///< link to parent_; unused at the root
  std::vector<std::uint32_t> depth_;  ///< links from the root
};

}  // namespace chicsim::net
