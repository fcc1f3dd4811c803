// The information service: the one GridView implementation.
//
// The paper's policies consume only *external information* — site loads,
// replica locations — obtainable from MDS/NWS-style grid information
// services (§3). This service is that boundary made explicit: every policy
// observation goes through here, never through the execution machinery,
// and the machinery itself (FetchPlanner, ReplicationDriver) acts on ground
// truth, exactly as a real grid executes against reality while its
// schedulers see the last published directory state.
//
// Staleness (SimulationConfig::info_staleness_s): with staleness 0 every
// query answers from live state. With staleness S > 0 the dynamic facts —
// site queue lengths and replica locations — are re-published on a fixed
// S-second cadence, like GRIS cache lifetimes of the era: between
// publications every scheduler sees the same frozen snapshot. Snapshots are
// captured lazily, per information family, at the first query inside each
// epoch [k*S, (k+1)*S); static facts (topology, dataset sizes, neighbour
// lists) and the NWS-style congestion probes stay live.
//
// The epoch is computed once per simulated instant: a query compares the
// engine clock with the instant it last checked, and only a new instant
// pays for the floor-division. Replica locations are published
// copy-on-write by the ReplicaCatalog itself (ReplicaCatalog::publish), so a
// publication costs O(datasets changed since the last one), not O(all).
//
// The placement index: with staleness S > 0, published liveness and loads
// are frozen for an epoch, so alive_sites() and least_loaded_alive() are
// answered from lists rebuilt once per epoch from the snapshots (each read
// counts as one view query; the rebuild's reads are internal). With
// staleness 0 every placement changes a queue, so they fall back to the
// GridView default scans, query for query.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/scheduler.hpp"
#include "data/catalog.hpp"
#include "data/replica_catalog.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/transfer_manager.hpp"
#include "sim/engine.hpp"
#include "site/site.hpp"

namespace chicsim::core {

class InfoService final : public GridView {
 public:
  /// All references are non-owning and must outlive the service. With
  /// staleness > 0 the service is the one publisher of `replicas`.
  /// `neighbor_scopes` holds one list per DS scope (build_neighbor_lists):
  /// site s is in scope s % size().
  InfoService(const SimulationConfig& config, const sim::Engine& engine,
              const std::vector<site::Site>& sites, const data::DatasetCatalog& catalog,
              data::ReplicaCatalog& replicas, const net::Topology& topology,
              const net::Routing& routing, const net::TransferManager& transfers,
              const std::vector<std::vector<data::SiteIndex>>& neighbor_scopes);

  // --- GridView ---
  [[nodiscard]] std::size_t num_sites() const override {
    ++view_queries_;
    return sites_.size();
  }
  [[nodiscard]] std::size_t site_load(data::SiteIndex s) const override;
  [[nodiscard]] bool site_alive(data::SiteIndex s) const override;
  [[nodiscard]] std::size_t site_compute_elements(data::SiteIndex s) const override;
  [[nodiscard]] double site_speed_factor(data::SiteIndex s) const override;
  [[nodiscard]] const std::vector<data::SiteIndex>& replica_sites(
      data::DatasetId dataset) const override;
  [[nodiscard]] bool site_has_dataset(data::SiteIndex s,
                                      data::DatasetId dataset) const override;
  [[nodiscard]] util::Megabytes dataset_size_mb(data::DatasetId dataset) const override;
  [[nodiscard]] std::size_t hops(data::SiteIndex a, data::SiteIndex b) const override;
  [[nodiscard]] const std::vector<data::SiteIndex>& neighbors(
      data::SiteIndex s) const override;
  [[nodiscard]] std::size_t path_congestion(data::SiteIndex a,
                                            data::SiteIndex b) const override;
  [[nodiscard]] util::MbPerSec path_bandwidth_mbps(data::SiteIndex a,
                                                   data::SiteIndex b) const override;
  [[nodiscard]] util::SimTime now() const override {
    ++view_queries_;
    return engine_.now();
  }
  [[nodiscard]] const std::vector<data::SiteIndex>& alive_sites() const override;
  [[nodiscard]] const std::vector<data::SiteIndex>& least_loaded_alive() const override;

  /// The publication epoch the current time falls in (diagnostics/tests).
  [[nodiscard]] util::SimTime current_epoch() const;

  /// GridView queries answered so far: the "sites scanned" work counter
  /// (RunMetrics::view_queries). Internal lookups are not counted.
  [[nodiscard]] std::uint64_t view_queries() const { return view_queries_; }

 private:
  /// Bring epoch_ up to the current time (staleness > 0 only).
  void sync_epoch() const {
    if (engine_.now() != checked_at_) start_instant();
  }
  void start_instant() const;

  /// Re-publish the given snapshot family if a new epoch began. Families
  /// refresh independently, each at its first query inside the epoch.
  void refresh_loads() const;
  void refresh_replicas() const;
  void refresh_alive() const;

  /// Replica holders as currently published (live or snapshot), uncounted.
  [[nodiscard]] const std::vector<data::SiteIndex>& published_replicas(
      data::DatasetId dataset) const;

  /// The placement index (staleness > 0 only), uncounted: rebuilt when the
  /// snapshot it was built from is re-published.
  [[nodiscard]] const std::vector<data::SiteIndex>& indexed_alive_sites() const;

  const SimulationConfig& config_;
  const sim::Engine& engine_;
  const std::vector<site::Site>& sites_;
  const data::DatasetCatalog& catalog_;
  data::ReplicaCatalog& replicas_;
  const net::Topology& topology_;
  const net::Routing& routing_;
  const net::TransferManager& transfers_;
  const std::vector<std::vector<data::SiteIndex>>& neighbor_scopes_;

  mutable util::SimTime checked_at_ = -1.0;  ///< the instant epoch_ was computed at
  mutable util::SimTime epoch_ = -1.0;
  mutable std::vector<std::size_t> load_snapshot_;
  mutable util::SimTime load_epoch_ = -1.0;
  mutable util::SimTime replica_epoch_ = -1.0;
  mutable std::vector<std::uint8_t> alive_snapshot_;
  mutable util::SimTime alive_epoch_ = -1.0;
  mutable std::vector<data::SiteIndex> alive_index_;
  mutable util::SimTime alive_index_epoch_ = -1.0;
  mutable std::vector<data::SiteIndex> least_loaded_index_;
  mutable util::SimTime least_loaded_index_epoch_ = -1.0;
  mutable std::uint64_t view_queries_ = 0;
};

}  // namespace chicsim::core
