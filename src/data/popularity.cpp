#include "data/popularity.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace chicsim::data {

PopularityTracker::PopularityTracker(util::SimTime half_life_s) : half_life_s_(half_life_s) {}

double PopularityTracker::decayed(const Cell& cell, util::SimTime now) const {
  if (half_life_s_ <= 0.0) return cell.count;
  double dt = now - cell.last_update;
  if (dt <= 0.0) return cell.count;
  return cell.count * std::exp2(-dt / half_life_s_);
}

double PopularityTracker::record(DatasetId id, util::SimTime now) {
  Cell& cell = counts_[id];
  cell.count = decayed(cell, now) + 1.0;
  cell.last_update = now;
  ++total_;
  return cell.count;
}

double PopularityTracker::count(DatasetId id, util::SimTime now) const {
  auto it = counts_.find(id);
  if (it == counts_.end()) return 0.0;
  return decayed(it->second, now);
}

std::vector<DatasetId> PopularityTracker::over_threshold(double threshold,
                                                         util::SimTime now) const {
  std::vector<std::pair<double, DatasetId>> hot;
  for (const auto& [id, cell] : counts_) {
    double c = decayed(cell, now);
    if (c >= threshold) hot.emplace_back(c, id);
  }
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<DatasetId> out;
  out.reserve(hot.size());
  for (const auto& [c, id] : hot) out.push_back(id);
  return out;
}

void PopularityTracker::reset(DatasetId id) { counts_.erase(id); }

void PopularityTracker::reset_all() { counts_.clear(); }

}  // namespace chicsim::data
