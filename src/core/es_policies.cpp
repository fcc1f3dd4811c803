#include "core/es_policies.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace chicsim::core {

namespace {

/// Sites a placement may consider: every site the view believes is alive —
/// or every site when the view believes nothing is (the dispatch guard
/// then holds the job with backoff until something recovers, which beats a
/// policy crash). In a fault-free run this is always the full site list,
/// so the liveness filter perturbs nothing.
std::vector<data::SiteIndex> placeable_sites(const GridView& view) {
  std::vector<data::SiteIndex> alive;
  alive.reserve(view.num_sites());
  for (std::size_t s = 0; s < view.num_sites(); ++s) {
    auto site = static_cast<data::SiteIndex>(s);
    if (view.site_alive(site)) alive.push_back(site);
  }
  if (alive.empty()) {
    alive.resize(view.num_sites());
    for (std::size_t s = 0; s < alive.size(); ++s) alive[s] = static_cast<data::SiteIndex>(s);
  }
  return alive;
}

/// Among `candidates`, keep those with minimal load; return one uniformly
/// at random (deterministic given the rng stream).
data::SiteIndex least_loaded_of(const std::vector<data::SiteIndex>& candidates,
                                const GridView& view, util::Rng& rng) {
  CHICSIM_ASSERT_MSG(!candidates.empty(), "least_loaded_of with no candidates");
  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (auto s : candidates) best = std::min(best, view.site_load(s));
  std::vector<data::SiteIndex> ties;
  for (auto s : candidates) {
    if (view.site_load(s) == best) ties.push_back(s);
  }
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
/// is placeable. Placeable is alive in the view, or any site when the view
/// believes no site is alive; whether any site is alive is only asked when
/// every holder looks dead. Otherwise the full placeable list is scored.
std::vector<data::SiteIndex> data_present_candidates(const site::Job& job,
                                                     const GridView& view) {
  std::vector<data::SiteIndex> holders;
  for (auto input : job.inputs) {
    if (!(view.dataset_size_mb(input) > util::kEpsilon)) return placeable_sites(view);
    const auto& sites = view.replica_sites(input);
    holders.insert(holders.end(), sites.begin(), sites.end());
  }
  if (holders.empty()) return placeable_sites(view);
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
  // Every holder looks dead: they are placeable only if every site is.
  for (std::size_t s = 0; s < view.num_sites(); ++s) {
    if (view.site_alive(static_cast<data::SiteIndex>(s))) return placeable_sites(view);
  }
  return holders;
}

}  // namespace

data::SiteIndex JobRandomEs::select_site(const site::Job& job, const GridView& view,
                                         util::Rng& rng) {
  (void)job;
  std::vector<data::SiteIndex> sites = placeable_sites(view);
  // The full-grid case keeps the historical single-draw shape exactly.
  if (sites.size() == view.num_sites()) {
    return static_cast<data::SiteIndex>(rng.index(view.num_sites()));
  }
  return sites[rng.index(sites.size())];
}

data::SiteIndex JobLeastLoadedEs::select_site(const site::Job& job, const GridView& view,
                                              util::Rng& rng) {
  (void)job;
  return least_loaded_of(placeable_sites(view), view, rng);
}

data::SiteIndex JobDataPresentEs::select_site(const site::Job& job, const GridView& view,
                                              util::Rng& rng) {
  CHICSIM_ASSERT_MSG(!job.inputs.empty(), "job without inputs");
  // Score each candidate by locally present input megabytes; the best
  // scorers qualify, the least loaded of them wins.
  std::vector<data::SiteIndex> qualifying;
  double best_mb = -1.0;
  for (data::SiteIndex site : data_present_candidates(job, view)) {
    double mb = 0.0;
    for (auto input : job.inputs) {
      if (view.site_has_dataset(site, input)) mb += view.dataset_size_mb(input);
    }
    if (mb > best_mb + util::kEpsilon) {
      best_mb = mb;
      qualifying.clear();
      qualifying.push_back(site);
    } else if (mb >= best_mb - util::kEpsilon) {
      qualifying.push_back(site);
    }
  }
  CHICSIM_ASSERT(!qualifying.empty());
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

  double best_est = std::numeric_limits<double>::infinity();
  std::vector<data::SiteIndex> ties;
  for (auto c : candidates) {
    double est = estimate_completion_s(job, c, view);
    if (est < best_est - util::kEpsilon) {
      best_est = est;
      ties.clear();
      ties.push_back(c);
    } else if (est <= best_est + util::kEpsilon) {
      ties.push_back(c);
    }
  }
  CHICSIM_ASSERT(!ties.empty());
  return ties[rng.index(ties.size())];
}

data::SiteIndex JobBestEstimateEs::select_site(const site::Job& job, const GridView& view,
                                               util::Rng& rng) {
  CHICSIM_ASSERT_MSG(!job.inputs.empty(), "job without inputs");
  // Collect the epsilon tie-set and break it through the rng (same shape as
  // least_loaded_of): the previous first-wins scan silently funnelled every
  // tie to the lowest site index, skewing load toward site 0.
  double best_est = std::numeric_limits<double>::infinity();
  std::vector<data::SiteIndex> ties;
  for (data::SiteIndex candidate : placeable_sites(view)) {
    double est = JobAdaptiveEs::estimate_completion_s(job, candidate, view);
    if (est < best_est - util::kEpsilon) {
      best_est = est;
      ties.clear();
      ties.push_back(candidate);
    } else if (est <= best_est + util::kEpsilon) {
      ties.push_back(candidate);
    }
  }
  CHICSIM_ASSERT(!ties.empty());
  return ties[rng.index(ties.size())];
}

}  // namespace chicsim::core
