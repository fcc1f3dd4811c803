#include "core/info_service.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace chicsim::core {

InfoService::InfoService(const SimulationConfig& config, const sim::Engine& engine,
                         const std::vector<site::Site>& sites,
                         const data::DatasetCatalog& catalog,
                         data::ReplicaCatalog& replicas,
                         const net::Topology& topology, const net::Routing& routing,
                         const net::TransferManager& transfers,
                         const std::vector<std::vector<data::SiteIndex>>& neighbor_scopes)
    : config_(config),
      engine_(engine),
      sites_(sites),
      catalog_(catalog),
      replicas_(replicas),
      topology_(topology),
      routing_(routing),
      transfers_(transfers),
      neighbor_scopes_(neighbor_scopes) {}

util::SimTime InfoService::current_epoch() const {
  if (config_.info_staleness_s <= 0.0) return engine_.now();
  sync_epoch();
  return epoch_;
}

void InfoService::start_instant() const {
  checked_at_ = engine_.now();
  epoch_ = std::floor(checked_at_ / config_.info_staleness_s) * config_.info_staleness_s;
}

void InfoService::refresh_loads() const {
  sync_epoch();
  if (load_epoch_ != epoch_) {
    load_snapshot_.resize(sites_.size());
    for (std::size_t i = 0; i < sites_.size(); ++i) load_snapshot_[i] = sites_[i].load();
    load_epoch_ = epoch_;
  }
}

void InfoService::refresh_replicas() const {
  sync_epoch();
  if (replica_epoch_ != epoch_) {
    replicas_.publish();
    replica_epoch_ = epoch_;
  }
}

void InfoService::refresh_alive() const {
  sync_epoch();
  if (alive_epoch_ != epoch_) {
    alive_snapshot_.resize(sites_.size());
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      alive_snapshot_[i] = sites_[i].alive() ? 1 : 0;
    }
    alive_epoch_ = epoch_;
  }
}

bool InfoService::site_alive(data::SiteIndex s) const {
  ++view_queries_;
  CHICSIM_ASSERT_MSG(s < sites_.size(), "site index out of range");
  if (config_.info_staleness_s <= 0.0) return sites_[s].alive();
  refresh_alive();
  return alive_snapshot_[s] != 0;
}

std::size_t InfoService::site_load(data::SiteIndex s) const {
  ++view_queries_;
  CHICSIM_ASSERT_MSG(s < sites_.size(), "site index out of range");
  if (config_.info_staleness_s <= 0.0) return sites_[s].load();
  refresh_loads();
  return load_snapshot_[s];
}

const std::vector<data::SiteIndex>& InfoService::indexed_alive_sites() const {
  refresh_alive();
  if (alive_index_epoch_ != alive_epoch_) {
    collect_alive(
        sites_.size(), [this](data::SiteIndex s) { return alive_snapshot_[s] != 0; },
        alive_index_);
    alive_index_epoch_ = alive_epoch_;
  }
  return alive_index_;
}

const std::vector<data::SiteIndex>& InfoService::alive_sites() const {
  if (config_.info_staleness_s <= 0.0) return GridView::alive_sites();
  ++view_queries_;
  return indexed_alive_sites();
}

const std::vector<data::SiteIndex>& InfoService::least_loaded_alive() const {
  if (config_.info_staleness_s <= 0.0) return GridView::least_loaded_alive();
  ++view_queries_;
  const auto& alive = indexed_alive_sites();
  refresh_loads();
  // Both snapshots were just refreshed, so they share the current epoch.
  if (least_loaded_index_epoch_ != load_epoch_) {
    collect_least_loaded(
        alive, [this](data::SiteIndex s) { return load_snapshot_[s]; }, least_loaded_index_);
    least_loaded_index_epoch_ = load_epoch_;
  }
  return least_loaded_index_;
}

std::size_t InfoService::site_compute_elements(data::SiteIndex s) const {
  ++view_queries_;
  CHICSIM_ASSERT_MSG(s < sites_.size(), "site index out of range");
  return sites_[s].compute().size();
}

double InfoService::site_speed_factor(data::SiteIndex s) const {
  ++view_queries_;
  CHICSIM_ASSERT_MSG(s < sites_.size(), "site index out of range");
  return sites_[s].speed_factor();
}

const std::vector<data::SiteIndex>& InfoService::published_replicas(
    data::DatasetId dataset) const {
  if (config_.info_staleness_s <= 0.0) return replicas_.locations(dataset);
  refresh_replicas();
  return replicas_.published(dataset);
}

const std::vector<data::SiteIndex>& InfoService::replica_sites(
    data::DatasetId dataset) const {
  ++view_queries_;
  return published_replicas(dataset);
}

bool InfoService::site_has_dataset(data::SiteIndex s, data::DatasetId dataset) const {
  ++view_queries_;
  if (config_.info_staleness_s <= 0.0) return replicas_.has(dataset, s);
  const auto& holders = published_replicas(dataset);
  return std::find(holders.begin(), holders.end(), s) != holders.end();
}

util::Megabytes InfoService::dataset_size_mb(data::DatasetId dataset) const {
  ++view_queries_;
  return catalog_.size_mb(dataset);
}

std::size_t InfoService::hops(data::SiteIndex a, data::SiteIndex b) const {
  ++view_queries_;
  return routing_.hops(a, b);
}

const std::vector<data::SiteIndex>& InfoService::neighbors(data::SiteIndex s) const {
  ++view_queries_;
  CHICSIM_ASSERT_MSG(s < sites_.size(), "site index out of range");
  CHICSIM_ASSERT_MSG(!neighbor_scopes_.empty(), "no neighbour scope");
  return neighbor_scopes_[s % neighbor_scopes_.size()];
}

std::size_t InfoService::path_congestion(data::SiteIndex a, data::SiteIndex b) const {
  ++view_queries_;
  if (a == b) return 0;
  std::size_t worst = 0;
  routing_.for_each_link(a, b, [&](net::LinkId l) {
    worst = std::max(worst, transfers_.flows_on_link(l));
  });
  return worst;
}

util::MbPerSec InfoService::path_bandwidth_mbps(data::SiteIndex a, data::SiteIndex b) const {
  ++view_queries_;
  if (a == b) return util::kTimeInfinity;
  util::MbPerSec bw = util::kTimeInfinity;
  routing_.for_each_link(
      a, b, [&](net::LinkId l) { bw = std::min(bw, topology_.link(l).bandwidth_mbps); });
  return bw;
}

}  // namespace chicsim::core
