#include "net/routing.hpp"

#include <string>

#include "util/error.hpp"

namespace chicsim::net {

Routing::Routing(const Topology& topo)
    : parent_(topo.node_count(), kNoNode),
      uplink_(topo.node_count(), 0),
      depth_(topo.node_count(), 0) {
  const std::size_t n = topo.node_count();
  // A connected graph with n - 1 links is a tree; the BFS counts what it
  // reaches.
  std::size_t reached = 0;
  if (n > 0 && topo.link_count() == n - 1) {
    std::vector<NodeId> frontier;
    frontier.reserve(n);
    frontier.push_back(0);
    std::vector<bool> seen(n, false);
    seen[0] = true;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const NodeId u = frontier[head];
      for (LinkId l : topo.links_of(u)) {
        const NodeId v = topo.neighbor_via(l, u);
        if (seen[v]) continue;
        seen[v] = true;
        parent_[v] = u;
        uplink_[v] = l;
        depth_[v] = depth_[u] + 1;
        frontier.push_back(v);
      }
    }
    reached = frontier.size();
  }
  if (n == 0 || reached != n) {
    throw util::SimError("routing requires a tree topology (connected, links = nodes - 1); got " +
                         std::to_string(n) + " nodes and " +
                         std::to_string(topo.link_count()) + " links");
  }
}

NodeId Routing::common_ancestor(NodeId a, NodeId b) const {
  CHICSIM_ASSERT_MSG(a < parent_.size() && b < parent_.size(), "routing endpoint out of range");
  while (depth_[a] > depth_[b]) a = parent_[a];
  while (depth_[b] > depth_[a]) b = parent_[b];
  while (a != b) {
    a = parent_[a];
    b = parent_[b];
  }
  return a;
}

std::vector<LinkId> Routing::path(NodeId src, NodeId dst) const {
  std::vector<LinkId> p;
  p.reserve(hops(src, dst));
  for_each_link(src, dst, [&p](LinkId l) { p.push_back(l); });
  return p;
}

std::size_t Routing::hops(NodeId src, NodeId dst) const {
  const NodeId top = common_ancestor(src, dst);
  return static_cast<std::size_t>(depth_[src]) + depth_[dst] - 2 * std::size_t{depth_[top]};
}

NodeId Routing::next_hop(NodeId src, NodeId dst) const {
  CHICSIM_ASSERT_MSG(src < parent_.size() && dst < parent_.size(),
                     "routing endpoint out of range");
  if (src == dst) return src;
  // Down toward dst when src is its ancestor, up otherwise.
  NodeId v = dst;
  while (depth_[v] > depth_[src] + 1) v = parent_[v];
  return parent_[v] == src ? v : parent_[src];
}

}  // namespace chicsim::net
