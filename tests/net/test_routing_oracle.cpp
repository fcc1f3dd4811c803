// Differential oracle: Routing (parents, uplinks and depths of one BFS
// tree) against ReferenceRouting (all-pairs BFS tables).
//
// For every ordered pair of nodes both must give the same path(), the same
// for_each_link sequence, the same hops() and the same next_hop(). The
// trees cover random parent attachment with random labels (so node 0, the
// root Routing picks, sits anywhere), chains deeper than the routing's
// chunk of destination-side links, stars, and build_tree / build_hierarchy
// in the Table-1, `wide` and `fault_recovery` shapes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "reference_routing.hpp"
#include "util/rng.hpp"

namespace chicsim::net {
namespace {

/// A tree with parent[i] the parent of node i (parent[root] ignored),
/// relabelled by `label`; link endpoints are added in random order.
Topology tree_from_parents(util::Rng& rng, const std::vector<std::size_t>& parent,
                           std::size_t root, const std::vector<std::size_t>& label) {
  Topology topo;
  for (std::size_t i = 0; i < parent.size(); ++i) {
    topo.add_node(i % 3 == 0 ? NodeKind::Router : NodeKind::Site, std::to_string(i));
  }
  for (std::size_t i = 0; i < parent.size(); ++i) {
    if (i == root) continue;
    auto a = static_cast<NodeId>(label[i]);
    auto b = static_cast<NodeId>(label[parent[i]]);
    if (rng.chance(0.5)) std::swap(a, b);
    topo.add_link(a, b, rng.uniform(5.0, 100.0));
  }
  return topo;
}

std::vector<std::size_t> identity(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

/// Node i > 0 hangs under a uniformly drawn earlier node; labels shuffled.
Topology random_tree(util::Rng& rng, std::size_t nodes) {
  std::vector<std::size_t> parent(nodes, 0);
  for (std::size_t i = 1; i < nodes; ++i) parent[i] = rng.index(i);
  return tree_from_parents(rng, parent, 0, rng.permutation(nodes));
}

/// The first difference between the two routings over all ordered pairs,
/// or "" when there is none.
std::string first_difference(const Topology& topo) {
  const Routing got(topo);
  const ReferenceRouting ref(topo);
  const auto n = static_cast<NodeId>(topo.node_count());
  std::vector<LinkId> walked;
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      const std::vector<LinkId> want = ref.path(src, dst);
      walked.clear();
      got.for_each_link(src, dst, [&walked](LinkId l) { walked.push_back(l); });
      const char* what = nullptr;
      if (got.path(src, dst) != want) {
        what = "path";
      } else if (walked != want) {
        what = "for_each_link";
      } else if (got.hops(src, dst) != ref.hops(src, dst)) {
        what = "hops";
      } else if (got.next_hop(src, dst) != ref.next_hop(src, dst)) {
        what = "next_hop";
      }
      if (what != nullptr) {
        std::ostringstream os;
        os << what << " differs for " << src << " -> " << dst << " (" << n << " nodes)";
        return os.str();
      }
    }
  }
  return "";
}

TEST(RoutingOracle, RandomTreesMatchAllPairsBfs) {
  util::Rng rng(13);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t nodes = 1 + rng.index(trial < 30 ? 12 : 90);
    EXPECT_EQ(first_difference(random_tree(rng, nodes)), "") << "trial " << trial;
  }
}

TEST(RoutingOracle, DeepChainsMatchAllPairsBfs) {
  util::Rng rng(5);
  // A 330-node chain rooted at one end, labels shuffled but node 0 kept
  // at the end: depths reach 329, ten chunks of destination-side links.
  const std::size_t len = 330;
  std::vector<std::size_t> chain(len);
  for (std::size_t i = 1; i < len; ++i) chain[i] = i - 1;
  std::vector<std::size_t> label = rng.permutation(len);
  for (std::size_t i = 0; i < len; ++i) {
    if (label[i] == 0) std::swap(label[i], label[0]);
  }
  EXPECT_EQ(first_difference(tree_from_parents(rng, chain, 0, label)), "");
  EXPECT_EQ(first_difference(tree_from_parents(rng, chain, 0, identity(len))), "");

  // A Y: a 300-deep arm and a 40-deep arm under a 20-node stem, so both
  // sides of a route are long and cross chunk boundaries.
  std::vector<std::size_t> y(20 + 300 + 40);
  for (std::size_t i = 1; i < 20; ++i) y[i] = i - 1;
  y[20] = 19;
  for (std::size_t i = 21; i < 320; ++i) y[i] = i - 1;
  y[320] = 19;
  for (std::size_t i = 321; i < y.size(); ++i) y[i] = i - 1;
  EXPECT_EQ(first_difference(tree_from_parents(rng, y, 0, identity(y.size()))), "");
}

TEST(RoutingOracle, StarsMatchAllPairsBfs) {
  for (std::size_t sites : {1u, 2u, 3u, 17u, 120u}) {
    EXPECT_EQ(first_difference(build_star(sites, 10.0)), "") << sites << " sites";
  }
}

TEST(RoutingOracle, SimulatorTreesMatchAllPairsBfs) {
  // Table 1 (30 sites, 6 regions), fault_recovery (300 x 12) and wide
  // (1000 x 40), as build_tree and as build_hierarchy (what Grid builds).
  const std::size_t shapes[][2] = {{30, 6}, {300, 12}, {1000, 40}};
  for (const auto& [sites, regions] : shapes) {
    SCOPED_TRACE(std::to_string(sites) + " sites x " + std::to_string(regions));
    EXPECT_EQ(first_difference(build_tree(sites, {{regions, 10.0}}, 10.0)), "");
    EXPECT_EQ(first_difference(build_hierarchy({sites, regions, 10.0})), "");
  }
  EXPECT_EQ(first_difference(build_tree(37, {{2, 100.0}, {3, 50.0}, {2, 20.0}}, 10.0)), "");
}

}  // namespace
}  // namespace chicsim::net
