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
  // Site counts that are not multiples of the region count, plus one
  // region per site and a single region.
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
        EXPECT_EQ(build_neighbor_lists(cfg), pairwise_neighbor_lists(cfg));
      }
    }
  }
}

}  // namespace
}  // namespace chicsim::core
