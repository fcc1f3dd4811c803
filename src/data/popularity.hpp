// Dataset popularity tracking (per site).
//
// "The DS at each site keeps track of the popularity of each dataset
// locally available" (§3). We count requests per dataset since the counter
// was last reset; the Dataset Scheduler periodically asks for the datasets
// whose count has crossed its replication threshold and resets the counter
// of each dataset it replicates, so a dataset must earn another burst of
// requests before being replicated again.
//
// An optional exponential decay lets popularity age (the paper keeps
// popularity static over time, so the default half-life is infinite).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "data/dataset.hpp"
#include "util/units.hpp"

namespace chicsim::data {

class PopularityTracker {
 public:
  /// `half_life_s` <= 0 disables decay (paper behaviour).
  explicit PopularityTracker(util::SimTime half_life_s = 0.0);

  /// Record one request for `id` at virtual time `now`; returns the new
  /// count.
  double record(DatasetId id, util::SimTime now);

  /// Decayed request count for `id` as of `now`.
  [[nodiscard]] double count(DatasetId id, util::SimTime now) const;

  /// Lifetime (undecayed) request total across all datasets.
  [[nodiscard]] std::uint64_t total_requests() const { return total_; }

  /// Datasets whose decayed count is >= threshold at `now`, sorted by
  /// descending count (ties by ascending id for determinism).
  [[nodiscard]] std::vector<DatasetId> over_threshold(double threshold,
                                                      util::SimTime now) const;

  /// Reset the counter of one dataset (after replicating it).
  void reset(DatasetId id);

  /// Reset everything.
  void reset_all();

 private:
  struct Cell {
    double count = 0.0;
    util::SimTime last_update = 0.0;
  };

  [[nodiscard]] double decayed(const Cell& cell, util::SimTime now) const;

  util::SimTime half_life_s_;
  // detlint: order-insensitive: per-cell decay is pure; over_threshold() sorts by (count, id) before returning
  std::unordered_map<DatasetId, Cell> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace chicsim::data
