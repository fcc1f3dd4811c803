#include "core/es_policies.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace chicsim::core {

// The GridView defaults: the full scans an indexed view must reproduce.

const std::vector<data::SiteIndex>& GridView::alive_sites() const {
  collect_alive(num_sites(), [this](data::SiteIndex s) { return site_alive(s); }, scan_alive_);
  return scan_alive_;
}

const std::vector<data::SiteIndex>& GridView::least_loaded_alive() const {
  collect_least_loaded(
      alive_sites(), [this](data::SiteIndex s) { return site_load(s); }, scan_least_loaded_);
  return scan_least_loaded_;
}

namespace {

/// The decision every placement rule shares: the candidates whose score is
/// within `eps` of the lowest, in candidate order. Each score is computed
/// once; a candidate more than `eps` below the running best restarts the
/// list, one within `eps` of it joins. The caller draws among the ties
/// through its rng, so equal scores never funnel to the lowest index.
template <typename Score>
std::vector<data::SiteIndex> min_ties(const std::vector<data::SiteIndex>& candidates,
                                      Score score, double eps) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<data::SiteIndex> ties;
  for (data::SiteIndex c : candidates) {
    double v = score(c);
    if (v < best - eps) {
      best = v;
      ties.clear();
      ties.push_back(c);
    } else if (v <= best + eps) {
      ties.push_back(c);
    }
  }
  CHICSIM_ASSERT_MSG(!ties.empty(), "placement with no candidates");
  return ties;
}

/// Among `candidates`, keep those with minimal load; return one uniformly
/// at random (deterministic given the rng stream). Placement over every
/// placeable site reads view.least_loaded_alive() instead.
data::SiteIndex least_loaded_of(const std::vector<data::SiteIndex>& candidates,
                                const GridView& view, util::Rng& rng) {
  auto ties = min_ties(
      candidates, [&](data::SiteIndex s) { return static_cast<double>(view.site_load(s)); },
      0.0);
  return ties[rng.index(ties.size())];
}

/// The sites JobDataPresent must score: the placeable replica holders of
/// the job's inputs, ascending and de-duplicated — or every placeable site
/// when scanning only holders could change the answer.
///
/// A site holding none of the inputs scores 0. Once the running best
/// exceeds kEpsilon, a zero-score site can neither reset the best nor tie
/// with it, and the zero-score sites scanned before the first holder are
/// dropped by that holder's reset. So scoring only holders, in the same
/// ascending order, yields the same qualifying list — hence the same site
/// and the same rng draws — whenever (a) every input is larger than
/// kEpsilon, so every holder scores above it, and (b) at least one holder
/// is placeable. Placeable is a member of view.alive_sites(), which is
/// asked only when every holder looks dead. Otherwise the full placeable
/// list is scored.
std::vector<data::SiteIndex> data_present_candidates(const site::Job& job,
                                                     const GridView& view) {
  std::vector<data::SiteIndex> holders;
  for (auto input : job.inputs) {
    if (!(view.dataset_size_mb(input) > util::kEpsilon)) return view.alive_sites();
    const auto& sites = view.replica_sites(input);
    holders.insert(holders.end(), sites.begin(), sites.end());
  }
  if (holders.empty()) return view.alive_sites();
  std::sort(holders.begin(), holders.end());
  holders.erase(std::unique(holders.begin(), holders.end()), holders.end());
  std::size_t alive = 0;
  for (data::SiteIndex s : holders) {
    if (view.site_alive(s)) holders[alive++] = s;
  }
  if (alive > 0) {
    holders.resize(alive);
    return holders;
  }
  // Every holder looks dead: they are placeable only if every site is, and
  // then alive_sites() falls back to the full list, dead holders included.
  const auto& placeable = view.alive_sites();
  if (std::binary_search(placeable.begin(), placeable.end(), holders.front())) return holders;
  return placeable;
}

}  // namespace

data::SiteIndex JobRandomEs::select_site(const site::Job& job, const GridView& view,
                                         util::Rng& rng) {
  (void)job;
  const auto& sites = view.alive_sites();
  return sites[rng.index(sites.size())];
}

data::SiteIndex JobLeastLoadedEs::select_site(const site::Job& job, const GridView& view,
                                              util::Rng& rng) {
  (void)job;
  const auto& ties = view.least_loaded_alive();
  return ties[rng.index(ties.size())];
}

data::SiteIndex JobDataPresentEs::select_site(const site::Job& job, const GridView& view,
                                              util::Rng& rng) {
  CHICSIM_ASSERT_MSG(!job.inputs.empty(), "job without inputs");
  // Score each candidate by locally present input megabytes (negated: the
  // scan keeps minima); the best scorers qualify, the least loaded of them
  // wins.
  auto qualifying = min_ties(
      data_present_candidates(job, view),
      [&](data::SiteIndex site) {
        double mb = 0.0;
        for (auto input : job.inputs) {
          if (view.site_has_dataset(site, input)) mb += view.dataset_size_mb(input);
        }
        return -mb;
      },
      util::kEpsilon);
  return least_loaded_of(qualifying, view, rng);
}

data::SiteIndex JobLocalEs::select_site(const site::Job& job, const GridView& view,
                                        util::Rng& rng) {
  (void)view;
  (void)rng;
  return job.origin_site;
}

double JobAdaptiveEs::estimate_completion_s(const site::Job& job, data::SiteIndex candidate,
                                            const GridView& view) {
  // Queue estimate: waiting jobs share the site's processors; use this
  // job's own (speed-adjusted) runtime as the per-job service-time proxy
  // (the policy has no oracle for other jobs' runtimes).
  double service_s = job.runtime_s / view.site_speed_factor(candidate);
  double per_element_backlog = static_cast<double>(view.site_load(candidate)) /
                               static_cast<double>(view.site_compute_elements(candidate));
  double queue_est = per_element_backlog * service_s;

  // Transfer estimate: each missing input streams from its closest replica
  // at the bottleneck bandwidth degraded by current congestion.
  double transfer_est = 0.0;
  for (auto input : job.inputs) {
    if (view.site_has_dataset(candidate, input)) continue;
    const auto& holders = view.replica_sites(input);
    CHICSIM_ASSERT_MSG(!holders.empty(), "dataset with no replicas");
    data::SiteIndex source = holders.front();
    std::size_t best_hops = view.hops(source, candidate);
    for (auto h : holders) {
      std::size_t d = view.hops(h, candidate);
      if (d < best_hops) {
        best_hops = d;
        source = h;
      }
    }
    double bw = view.path_bandwidth_mbps(source, candidate);
    double flows = 1.0 + static_cast<double>(view.path_congestion(source, candidate));
    transfer_est += view.dataset_size_mb(input) / (bw / flows);
  }
  return std::max(queue_est, transfer_est) + service_s;
}

data::SiteIndex JobAdaptiveEs::select_site(const site::Job& job, const GridView& view,
                                           util::Rng& rng) {
  CHICSIM_ASSERT_MSG(!job.inputs.empty(), "job without inputs");
  // Candidates: run at home, run at the data, or run where it is quiet.
  // A home the view believes is down is not nominated (the two other
  // strategies already filter internally).
  std::vector<data::SiteIndex> candidates;
  if (view.site_alive(job.origin_site)) candidates.push_back(job.origin_site);
  JobDataPresentEs data_present;
  candidates.push_back(data_present.select_site(job, view, rng));
  JobLeastLoadedEs least_loaded;
  candidates.push_back(least_loaded.select_site(job, view, rng));

  // The three strategies may nominate the same site (e.g. the data already
  // lives at the origin); dedupe so a duplicate nomination does not get a
  // double weight in the random tie-break below.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

  auto ties = min_ties(
      candidates, [&](data::SiteIndex c) { return estimate_completion_s(job, c, view); },
      util::kEpsilon);
  return ties[rng.index(ties.size())];
}

data::SiteIndex JobBestEstimateEs::select_site(const site::Job& job, const GridView& view,
                                               util::Rng& rng) {
  CHICSIM_ASSERT_MSG(!job.inputs.empty(), "job without inputs");
  auto ties = min_ties(
      view.alive_sites(),
      [&](data::SiteIndex c) { return JobAdaptiveEs::estimate_completion_s(job, c, view); },
      util::kEpsilon);
  return ties[rng.index(ties.size())];
}

}  // namespace chicsim::core
