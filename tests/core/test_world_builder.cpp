#include "core/world_builder.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace chicsim::core {
namespace {

/// The pairwise filter build_neighbor_lists used to run: test every site
/// pair, keep t when the scope is Grid or t shares s's region (a star has
/// no regions, so every site counts as sharing one).
std::vector<std::vector<data::SiteIndex>> pairwise_neighbor_lists(const SimulationConfig& config) {
  std::vector<std::vector<data::SiteIndex>> neighbors(config.num_sites);
  for (std::size_t s = 0; s < config.num_sites; ++s) {
    for (std::size_t t = 0; t < config.num_sites; ++t) {
      if (t == s) continue;
      bool same_region = config.topology == TopologyKind::Star ||
                         t % config.num_regions == s % config.num_regions;
      if (config.ds_neighbor_scope == NeighborScope::Grid || same_region) {
        neighbors[s].push_back(static_cast<data::SiteIndex>(t));
      }
    }
  }
  return neighbors;
}

TEST(WorldBuilder, NeighborListsMatchThePairwiseFilter) {
  // Each scope is stored once and includes the site itself: s's scope
  // minus s is the old per-site list. Site counts that are not multiples
  // of the region count, plus one region per site and a single region.
  const std::size_t shapes[][2] = {{31, 6}, {1000, 40}, {7, 7}, {2, 1}, {1, 1}};
  for (const auto& [sites, regions] : shapes) {
    for (TopologyKind topology : {TopologyKind::Star, TopologyKind::Hierarchy}) {
      for (NeighborScope scope : {NeighborScope::Grid, NeighborScope::Region}) {
        SimulationConfig cfg;
        cfg.num_sites = sites;
        cfg.num_regions = regions;
        cfg.topology = topology;
        cfg.ds_neighbor_scope = scope;
        SCOPED_TRACE(std::to_string(sites) + "/" + std::to_string(regions) + " star=" +
                     std::to_string(topology == TopologyKind::Star) +
                     " grid=" + std::to_string(scope == NeighborScope::Grid));
        const auto scopes = build_neighbor_lists(cfg);
        const auto expected = pairwise_neighbor_lists(cfg);
        const bool one_scope =
            topology == TopologyKind::Star || scope == NeighborScope::Grid;
        ASSERT_EQ(scopes.size(), one_scope ? 1u : regions);
        for (std::size_t s = 0; s < sites; ++s) {
          const std::vector<data::SiteIndex>& list = scopes[s % scopes.size()];
          std::vector<data::SiteIndex> others;
          std::size_t self_count = 0;
          for (data::SiteIndex t : list) {
            if (t == s) {
              ++self_count;
            } else {
              others.push_back(t);
            }
          }
          EXPECT_EQ(self_count, 1u) << "site " << s;
          EXPECT_EQ(others, expected[s]) << "site " << s;
        }
      }
    }
  }
}

}  // namespace
}  // namespace chicsim::core
