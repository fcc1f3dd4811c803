// Replica catalog: which sites currently hold a copy of each dataset.
//
// This models the Grid-wide replica location service (the Globus Replica
// Catalog of the era). External Schedulers query it for JobDataPresent;
// Dataset Schedulers query it before replicating ("the DS may need external
// information like whether the data already exists at a site"); the data
// mover uses it to choose a source for each fetch. In this reproduction it
// is exact and instantaneously consistent, matching the paper's implicit
// assumption; the Grid keeps it in sync with every storage add/evict.
//
// Publication: the information service freezes replica locations per
// epoch by calling publish(); published(d) then answers what locations(d)
// held at that call. The state is copy-on-write: a dataset's holder list is
// saved only on its first add/remove after a publish(), so a publication
// costs O(datasets changed since the last one), and nothing is allocated
// until the first publish().
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace chicsim::data {

/// Site index in the Grid's site table (kept as a plain integer here so
/// that the data library does not depend on the network library).
using SiteIndex = std::uint32_t;
inline constexpr SiteIndex kNoSite = static_cast<SiteIndex>(-1);

class ReplicaCatalog {
 public:
  /// `num_datasets` fixes the id space; sites can be any index.
  explicit ReplicaCatalog(std::size_t num_datasets);

  /// Record that `site` holds `dataset`. Idempotent.
  void add(DatasetId dataset, SiteIndex site);

  /// Record that `site` no longer holds `dataset`. Returns false when it
  /// was not registered.
  bool remove(DatasetId dataset, SiteIndex site);

  [[nodiscard]] bool has(DatasetId dataset, SiteIndex site) const;

  /// Sites holding the dataset, in insertion order (stable for
  /// determinism). May be empty only for never-placed datasets.
  [[nodiscard]] const std::vector<SiteIndex>& locations(DatasetId dataset) const;

  [[nodiscard]] std::size_t replica_count(DatasetId dataset) const;

  /// Total replicas across all datasets.
  [[nodiscard]] std::size_t total_replicas() const { return total_; }

  [[nodiscard]] std::size_t dataset_count() const { return locations_.size(); }

  /// Freeze the current locations: until the next publish(), published(d)
  /// answers locations(d) as of this call.
  void publish();

  /// The dataset's holders at the last publish() (which must have run).
  /// Read the list before the catalog changes: a reference to an unchanged
  /// dataset's list is its live list, and follows later changes.
  [[nodiscard]] const std::vector<SiteIndex>& published(DatasetId dataset) const;

 private:
  static constexpr std::uint32_t kUnsaved = static_cast<std::uint32_t>(-1);

  /// Before the first change since the last publish(), keep a copy of the
  /// dataset's published holders.
  void save_published(DatasetId dataset);

  std::vector<std::vector<SiteIndex>> locations_;
  std::size_t total_ = 0;
  /// Per dataset: its slot in saved_, or kUnsaved when locations_ still
  /// holds the published list. Empty until the first publish().
  std::vector<std::uint32_t> saved_slot_;
  /// Saved published lists; the first saved_for_.size() are in use, and
  /// the rest keep their capacity for the next epoch's changes.
  std::vector<std::vector<SiteIndex>> saved_;
  std::vector<DatasetId> saved_for_;  ///< dataset of each slot in use
};

}  // namespace chicsim::data
