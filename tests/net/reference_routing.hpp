// Brute-force oracle for net::Routing.
//
// The all-pairs table routing that Routing replaced: one BFS per
// destination fills an n x n table of first links and one of hop counts,
// and a route walks the first links. It works on any connected graph and
// takes, on a tree, the one simple path; test_routing_oracle.cpp requires
// Routing to give the same links, in the same order, for every pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/topology.hpp"

namespace chicsim::net {

class ReferenceRouting {
 public:
  /// The topology must be connected and must outlive this object.
  explicit ReferenceRouting(const Topology& topo);

  [[nodiscard]] std::vector<LinkId> path(NodeId src, NodeId dst) const;

  template <class Fn>
  void for_each_link(NodeId src, NodeId dst, Fn&& fn) const {
    NodeId cur = src;
    while (cur != dst) {
      const LinkId l = next_link_[index(cur, dst)];
      fn(l);
      cur = topo_.neighbor_via(l, cur);
    }
  }

  [[nodiscard]] std::size_t hops(NodeId src, NodeId dst) const;
  [[nodiscard]] NodeId next_hop(NodeId src, NodeId dst) const;

 private:
  [[nodiscard]] std::size_t index(NodeId src, NodeId dst) const;

  const Topology& topo_;
  std::size_t n_;
  /// next_link_[dst * n + src]: first link on the path, or -1 when src==dst.
  std::vector<LinkId> next_link_;
  std::vector<std::uint32_t> hop_count_;
};

}  // namespace chicsim::net
