#include "data/replica_catalog.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace chicsim::data {

ReplicaCatalog::ReplicaCatalog(std::size_t num_datasets) : locations_(num_datasets) {}

void ReplicaCatalog::add(DatasetId dataset, SiteIndex site) {
  CHICSIM_ASSERT_MSG(dataset < locations_.size(), "dataset id out of range");
  auto& sites = locations_[dataset];
  if (std::find(sites.begin(), sites.end(), site) != sites.end()) return;
  save_published(dataset);
  sites.push_back(site);
  ++total_;
}

bool ReplicaCatalog::remove(DatasetId dataset, SiteIndex site) {
  CHICSIM_ASSERT_MSG(dataset < locations_.size(), "dataset id out of range");
  auto& sites = locations_[dataset];
  auto it = std::find(sites.begin(), sites.end(), site);
  if (it == sites.end()) return false;
  save_published(dataset);
  sites.erase(it);
  CHICSIM_ASSERT(total_ > 0);
  --total_;
  return true;
}

bool ReplicaCatalog::has(DatasetId dataset, SiteIndex site) const {
  CHICSIM_ASSERT_MSG(dataset < locations_.size(), "dataset id out of range");
  const auto& sites = locations_[dataset];
  return std::find(sites.begin(), sites.end(), site) != sites.end();
}

const std::vector<SiteIndex>& ReplicaCatalog::locations(DatasetId dataset) const {
  CHICSIM_ASSERT_MSG(dataset < locations_.size(), "dataset id out of range");
  return locations_[dataset];
}

std::size_t ReplicaCatalog::replica_count(DatasetId dataset) const {
  return locations(dataset).size();
}

void ReplicaCatalog::publish() {
  if (saved_slot_.empty()) saved_slot_.assign(locations_.size(), kUnsaved);
  for (DatasetId d : saved_for_) saved_slot_[d] = kUnsaved;
  saved_for_.clear();
}

const std::vector<SiteIndex>& ReplicaCatalog::published(DatasetId dataset) const {
  CHICSIM_ASSERT_MSG(dataset < locations_.size(), "dataset id out of range");
  CHICSIM_ASSERT_MSG(!saved_slot_.empty(), "published() before the first publish()");
  std::uint32_t slot = saved_slot_[dataset];
  return slot == kUnsaved ? locations_[dataset] : saved_[slot];
}

void ReplicaCatalog::save_published(DatasetId dataset) {
  if (saved_slot_.empty() || saved_slot_[dataset] != kUnsaved) return;
  auto slot = static_cast<std::uint32_t>(saved_for_.size());
  if (slot == saved_.size()) saved_.emplace_back();
  saved_[slot] = locations_[dataset];  // reuses the slot's capacity
  saved_slot_[dataset] = slot;
  saved_for_.push_back(dataset);
}

}  // namespace chicsim::data
