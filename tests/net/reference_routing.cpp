#include "reference_routing.hpp"

#include "util/error.hpp"

namespace chicsim::net {

namespace {
constexpr LinkId kNoLink = static_cast<LinkId>(-1);
constexpr std::uint32_t kUnreached = static_cast<std::uint32_t>(-1);
}  // namespace

ReferenceRouting::ReferenceRouting(const Topology& topo) : topo_(topo), n_(topo.node_count()) {
  CHICSIM_ASSERT_MSG(topo.connected(), "routing requires a connected topology");
  next_link_.assign(n_ * n_, kNoLink);
  hop_count_.assign(n_ * n_, kUnreached);

  // One BFS per destination: record, for every source, the first link on a
  // shortest path toward that destination.
  std::vector<NodeId> frontier;
  frontier.reserve(n_);
  for (NodeId dst = 0; dst < n_; ++dst) {
    LinkId* toward = next_link_.data() + static_cast<std::size_t>(dst) * n_;
    std::uint32_t* dist = hop_count_.data() + static_cast<std::size_t>(dst) * n_;
    frontier.assign(1, dst);
    dist[dst] = 0;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const NodeId u = frontier[head];
      for (LinkId l : topo.links_of(u)) {
        const NodeId v = topo.neighbor_via(l, u);
        if (dist[v] == kUnreached) {
          dist[v] = dist[u] + 1;
          toward[v] = l;  // from v, go over l to u (closer to dst)
          frontier.push_back(v);
        }
      }
    }
    CHICSIM_ASSERT(frontier.size() == n_);
  }
}

std::size_t ReferenceRouting::index(NodeId src, NodeId dst) const {
  CHICSIM_ASSERT_MSG(src < n_ && dst < n_, "routing endpoint out of range");
  return static_cast<std::size_t>(dst) * n_ + src;
}

std::vector<LinkId> ReferenceRouting::path(NodeId src, NodeId dst) const {
  std::vector<LinkId> p;
  for_each_link(src, dst, [&p](LinkId l) { p.push_back(l); });
  return p;
}

std::size_t ReferenceRouting::hops(NodeId src, NodeId dst) const {
  return hop_count_[index(src, dst)];
}

NodeId ReferenceRouting::next_hop(NodeId src, NodeId dst) const {
  if (src == dst) return src;
  const LinkId l = next_link_[index(src, dst)];
  CHICSIM_ASSERT(l != kNoLink);
  return topo_.neighbor_via(l, src);
}

}  // namespace chicsim::net
