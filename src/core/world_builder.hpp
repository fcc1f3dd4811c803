// Deterministic construction of the simulated world from a
// SimulationConfig: topology, sites, DS neighbour lists, the dataset
// catalog and the initial master-replica placement (§5.1). Every function
// draws from its own named RNG substream of config.seed, so the world is
// identical no matter who builds it or in what order.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "data/catalog.hpp"
#include "data/replica_catalog.hpp"
#include "net/topology.hpp"
#include "site/site.hpp"

namespace chicsim::core {

/// Star or hierarchy per the config (substreams: none — purely structural).
[[nodiscard]] net::Topology build_topology(const SimulationConfig& config);

/// Sites with their compute-element counts and speed factors (substreams
/// "sites" and "speeds").
[[nodiscard]] std::vector<site::Site> build_sites(const SimulationConfig& config);

/// The DS's "lists of known sites", one per scope, each ascending: one list
/// of every site for Grid scope (or a star), or one per region for Region
/// scope, dealt round-robin as build_hierarchy deals sites to regions. Site
/// s is in list s % size() and finds itself there.
[[nodiscard]] std::vector<std::vector<data::SiteIndex>> build_neighbor_lists(
    const SimulationConfig& config);

/// The dataset population (substream "datasets").
[[nodiscard]] data::DatasetCatalog build_catalog(const SimulationConfig& config);

/// "initially only one replica per dataset in the system", distributed
/// uniformly across sites (§5.1; substream "placement"). If the drawn site
/// lacks space for the pinned master, falls back to the next site with
/// room; throws util::SimError when no site can hold a master.
void place_master_replicas(const SimulationConfig& config,
                           const data::DatasetCatalog& catalog,
                           std::vector<site::Site>& sites,
                           data::ReplicaCatalog& replicas);

}  // namespace chicsim::core
