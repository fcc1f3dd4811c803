// Shortest-path routing over a Topology.
//
// Links are unweighted for routing purposes (the paper's hierarchy has a
// single path between any two sites anyway); we precompute all-pairs
// next-hops with one BFS per node and walk them for a path. No path is
// stored: an n x n table of link vectors would cost tens of megabytes on a
// 1000-site grid, and each caller either walks the links once
// (for_each_link) or copies them once (path). Nothing is mutated after
// construction, so one Routing may serve grids running on several threads.
// `hops` is used both by the closest-replica selection policy and by the
// DataCascading extension.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/topology.hpp"

namespace chicsim::net {

class Routing {
 public:
  /// Precomputes routes; the topology must be connected and must outlive
  /// this object.
  explicit Routing(const Topology& topo);

  /// Links traversed from src to dst, in order. Empty when src == dst.
  [[nodiscard]] std::vector<LinkId> path(NodeId src, NodeId dst) const;

  /// Call `fn(link)` for each link from src to dst, in path order, without
  /// allocating.
  template <class Fn>
  void for_each_link(NodeId src, NodeId dst, Fn&& fn) const {
    NodeId cur = src;
    while (cur != dst) {
      const LinkId l = next_link_[index(cur, dst)];
      fn(l);
      cur = topo_.neighbor_via(l, cur);
    }
  }

  /// Number of links between src and dst (0 when equal).
  [[nodiscard]] std::size_t hops(NodeId src, NodeId dst) const;

  /// The next node on the route from src toward dst (dst when adjacent;
  /// src when src == dst).
  [[nodiscard]] NodeId next_hop(NodeId src, NodeId dst) const;

 private:
  [[nodiscard]] std::size_t index(NodeId src, NodeId dst) const;

  const Topology& topo_;
  std::size_t n_;
  /// next_link_[dst * n + src]: first link on the path, or -1 when src==dst.
  /// Every BFS step moves one hop closer to dst, so walking it terminates.
  /// Destination-major: a walk toward one dst stays in one row.
  std::vector<LinkId> next_link_;
  std::vector<std::uint32_t> hop_count_;
};

}  // namespace chicsim::net
