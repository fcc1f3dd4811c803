#include "core/es_policies.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>

#include "core/grid.hpp"
#include "fake_view.hpp"
#include "util/error.hpp"

namespace chicsim::core {
namespace {

using testing::FakeGridView;
using testing::make_job;

TEST(JobLocal, AlwaysPicksOrigin) {
  FakeGridView view(10, 5);
  util::Rng rng(1);
  JobLocalEs es;
  for (data::SiteIndex origin = 0; origin < 10; ++origin) {
    auto job = make_job(1, origin, {0});
    EXPECT_EQ(es.select_site(job, view, rng), origin);
  }
}

TEST(JobRandom, CoversAllSites) {
  FakeGridView view(5, 1);
  util::Rng rng(2);
  JobRandomEs es;
  std::set<data::SiteIndex> seen;
  auto job = make_job(1, 0, {0});
  for (int i = 0; i < 500; ++i) seen.insert(es.select_site(job, view, rng));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(JobLeastLoaded, PicksUniqueMinimum) {
  FakeGridView view(4, 1);
  view.loads_ = {5, 2, 9, 7};
  util::Rng rng(3);
  JobLeastLoadedEs es;
  auto job = make_job(1, 0, {0});
  for (int i = 0; i < 20; ++i) EXPECT_EQ(es.select_site(job, view, rng), 1u);
}

TEST(JobLeastLoaded, BreaksTiesAmongMinimaOnly) {
  FakeGridView view(4, 1);
  view.loads_ = {3, 0, 0, 5};
  util::Rng rng(4);
  JobLeastLoadedEs es;
  auto job = make_job(1, 0, {0});
  std::set<data::SiteIndex> seen;
  for (int i = 0; i < 200; ++i) seen.insert(es.select_site(job, view, rng));
  EXPECT_EQ(seen, (std::set<data::SiteIndex>{1, 2}));
}

TEST(JobDataPresent, PicksTheHolder) {
  FakeGridView view(6, 3);
  view.place(2, 4);
  util::Rng rng(5);
  JobDataPresentEs es;
  auto job = make_job(1, 0, {2});
  EXPECT_EQ(es.select_site(job, view, rng), 4u);
}

TEST(JobDataPresent, LeastLoadedAmongMultipleHolders) {
  FakeGridView view(6, 3);
  view.place(2, 1);
  view.place(2, 4);
  view.loads_ = {0, 8, 0, 0, 3, 0};
  util::Rng rng(6);
  JobDataPresentEs es;
  auto job = make_job(1, 0, {2});
  for (int i = 0; i < 20; ++i) EXPECT_EQ(es.select_site(job, view, rng), 4u);
}

TEST(JobDataPresent, MultiInputPrefersSiteWithMostInputMegabytes) {
  FakeGridView view(5, 4);
  view.sizes_ = {1500.0, 600.0, 700.0, 100.0};
  view.place(0, 1);  // site 1 holds 1500 MB of inputs
  view.place(1, 2);  // site 2 holds 600 + 700 = 1300 MB
  view.place(2, 2);
  util::Rng rng(7);
  JobDataPresentEs es;
  auto job = make_job(1, 0, {0, 1, 2});
  EXPECT_EQ(es.select_site(job, view, rng), 1u);
}

TEST(JobDataPresent, NoHolderAnywhereFallsBackToLeastLoadedOverall) {
  // Every site scores zero megabytes -> all qualify -> least loaded wins.
  FakeGridView view(4, 1);
  view.loads_ = {2, 0, 4, 4};
  util::Rng rng(8);
  JobDataPresentEs es;
  auto job = make_job(1, 3, {0});
  EXPECT_EQ(es.select_site(job, view, rng), 1u);
}

// ---------------------------------------------------------------------------
// Oracle: the full-grid JobDataPresent scan — every placeable site in index
// order, each probed for every input. The holder scan must choose the same
// site and consume the same rng draws.

std::vector<data::SiteIndex> full_scan_placeable_sites(const GridView& view) {
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

data::SiteIndex full_scan_least_loaded_of(const std::vector<data::SiteIndex>& candidates,
                                          const GridView& view, util::Rng& rng) {
  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (auto s : candidates) best = std::min(best, view.site_load(s));
  std::vector<data::SiteIndex> ties;
  for (auto s : candidates) {
    if (view.site_load(s) == best) ties.push_back(s);
  }
  return ties[rng.index(ties.size())];
}

class FullScanJobDataPresentEs final : public ExternalScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "JobDataPresent"; }
  [[nodiscard]] data::SiteIndex select_site(const site::Job& job, const GridView& view,
                                            util::Rng& rng) override {
    std::vector<data::SiteIndex> qualifying;
    double best_mb = -1.0;
    for (data::SiteIndex site : full_scan_placeable_sites(view)) {
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
    return full_scan_least_loaded_of(qualifying, view, rng);
  }
};

TEST(JobDataPresent, HolderScanMatchesFullScanOracleOnRandomViews) {
  util::Rng gen(2024);
  JobDataPresentEs es;
  FullScanJobDataPresentEs oracle;
  // Sizes repeat and sum exactly (250 + 250 + 500 = 1000) so scores tie;
  // 0 and half an epsilon are the inputs a holder scan cannot score alone.
  const util::Megabytes kSizes[] = {1000.0, 1000.0, 500.0, 250.0, 0.0, 0.5 * util::kEpsilon};
  // How often each edge case came up: every one must be exercised.
  std::size_t dead_holder = 0, every_holder_dead = 0, all_sites_dead = 0, no_holder = 0,
              duplicate_input = 0, tiny_input = 0, tied_best = 0;
  for (std::uint64_t trial = 0; trial < 4000; ++trial) {
    std::size_t sites = 1 + gen.index(10);
    std::size_t datasets = 1 + gen.index(5);
    FakeGridView view(sites, datasets);
    for (auto& size : view.sizes_) size = kSizes[gen.index(std::size(kSizes))];
    for (auto& load : view.loads_) load = gen.index(3);
    for (data::DatasetId d = 0; d < datasets; ++d) {
      for (std::size_t s = 0; s < sites; ++s) {
        if (gen.chance(0.3)) view.place(d, static_cast<data::SiteIndex>(s));
      }
      gen.shuffle(view.replicas_[d]);  // the catalog keeps insertion order
    }
    const bool everything_dead = gen.chance(0.1);
    for (std::size_t s = 0; s < sites; ++s) view.alive_[s] = !everything_dead && gen.chance(0.75);
    std::vector<data::DatasetId> inputs(1 + gen.index(4));
    for (auto& input : inputs) input = static_cast<data::DatasetId>(gen.index(datasets));
    auto job = make_job(trial, static_cast<data::SiteIndex>(gen.index(sites)), inputs);

    std::set<data::SiteIndex> holders;
    for (auto input : inputs) {
      holders.insert(view.replicas_[input].begin(), view.replicas_[input].end());
      if (view.sizes_[input] <= util::kEpsilon) ++tiny_input;
    }
    auto dead = [&](data::SiteIndex s) { return !view.alive_[s]; };
    if (std::any_of(holders.begin(), holders.end(), dead)) ++dead_holder;
    if (!holders.empty() && std::all_of(holders.begin(), holders.end(), dead) &&
        !everything_dead) {
      ++every_holder_dead;
    }
    all_sites_dead += everything_dead ? 1 : 0;
    no_holder += holders.empty() ? 1 : 0;
    if (std::set<data::DatasetId>(inputs.begin(), inputs.end()).size() < inputs.size()) {
      ++duplicate_input;
    }
    std::vector<double> scores;
    for (auto h : holders) {
      double mb = 0.0;
      for (auto input : inputs) {
        if (view.site_has_dataset(h, input)) mb += view.sizes_[input];
      }
      scores.push_back(mb);
    }
    std::sort(scores.rbegin(), scores.rend());
    if (scores.size() > 1 && scores[0] > 0.0 && scores[0] == scores[1]) ++tied_best;

    util::Rng a(trial);
    util::Rng b(trial);
    ASSERT_EQ(es.select_site(job, view, a), oracle.select_site(job, view, b)) << "trial " << trial;
    ASSERT_EQ(a.next_u64(), b.next_u64()) << "rng draws differ, trial " << trial;
  }
  EXPECT_GT(dead_holder, 0u);
  EXPECT_GT(every_holder_dead, 0u);
  EXPECT_GT(all_sites_dead, 0u);
  EXPECT_GT(no_holder, 0u);
  EXPECT_GT(duplicate_input, 0u);
  EXPECT_GT(tiny_input, 0u);
  EXPECT_GT(tied_best, 0u);
}

TEST(JobDataPresent, ScoresOnlyHoldersWhenExact) {
  // 200 sites, one holder: the decision probes site 150 alone.
  FakeGridView view(200, 2);
  view.place(1, 150);
  util::Rng rng(12);
  JobDataPresentEs es;
  EXPECT_EQ(es.select_site(make_job(1, 0, {1}), view, rng), 150u);
  EXPECT_EQ(view.site_probes_, 3u);  // alive, has_dataset, one load read

  // A zero-size input makes non-holders tie with holders: full scan.
  view.sizes_[1] = 0.0;
  view.site_probes_ = 0;
  (void)es.select_site(make_job(2, 0, {1}), view, rng);
  EXPECT_GT(view.site_probes_, 200u);
}

/// Every RunMetrics field except view_queries (the holder scan answers
/// fewer queries by design), as hexfloat text, so any bit difference shows.
std::string fingerprint(const RunMetrics& m) {
  std::string out;
  char buf[64];
  for (double v : {m.makespan_s, m.avg_response_time_s, m.p95_response_time_s,
                   m.response_summary.mean, m.response_summary.stddev,
                   m.response_summary.min, m.response_summary.max, m.avg_placement_wait_s,
                   m.avg_queue_wait_s, m.avg_data_wait_s, m.avg_compute_s,
                   m.avg_output_wait_s, m.avg_data_per_job_mb, m.avg_fetch_per_job_mb,
                   m.avg_replication_per_job_mb, m.avg_output_per_job_mb, m.total_mb_hops,
                   m.idle_fraction, m.utilization, m.avg_link_busy_fraction,
                   m.max_link_busy_fraction}) {
    std::snprintf(buf, sizeof buf, "%a;", v);
    out += buf;
  }
  for (std::uint64_t v :
       {m.jobs_completed, static_cast<std::uint64_t>(m.response_summary.count),
        m.remote_fetches, m.replications, m.local_data_hits, m.local_data_misses,
        m.cache_evictions, m.jobs_run_at_origin, m.site_crashes, m.site_recoveries,
        m.jobs_resubmitted, m.transfer_retries, m.output_retries, m.transfers_aborted,
        m.catalog_invalidations, m.events_executed, m.event_pushes, m.event_cancels,
        m.peak_heap_size, m.queue_compactions, m.reallocations, m.flows_rescheduled,
        m.reschedules_skipped, m.rate_recomputes_skipped}) {
    out += std::to_string(v) + ";";
  }
  return out;
}

TEST(JobDataPresent, HolderScanRunsBitIdenticalToFullScanOracle) {
  for (DsAlgorithm ds : paper_ds_algorithms()) {
    for (bool faults : {false, true}) {
      for (double staleness : {0.0, 120.0}) {
        SimulationConfig cfg;
        cfg.es = EsAlgorithm::JobDataPresent;
        cfg.ds = ds;
        cfg.seed = 31;
        cfg.total_jobs = 2400;
        cfg.info_staleness_s = staleness;
        if (faults) {
          cfg.fault_site_crash_rate_per_hour = 0.5;
          cfg.fault_site_downtime_s = 1800.0;
          cfg.fault_transfer_fail_prob = 0.05;
          cfg.fault_catalog_loss_rate_per_hour = 30.0;
        }
        SCOPED_TRACE(std::string(to_string(ds)) + (faults ? " faults" : " no faults") +
                     " staleness " + std::to_string(staleness));
        Grid holder_scan(cfg);
        holder_scan.run();
        Grid full_scan(cfg);
        full_scan.set_external_scheduler(std::make_unique<FullScanJobDataPresentEs>());
        full_scan.run();
        EXPECT_EQ(fingerprint(holder_scan.metrics()), fingerprint(full_scan.metrics()));
        EXPECT_LT(holder_scan.metrics().view_queries, full_scan.metrics().view_queries);
        if (faults) {
          EXPECT_GT(holder_scan.metrics().site_crashes, 0u);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Oracles for the placement index: JobRandom, JobLeastLoaded and
// JobBestEstimate as full scans of every site, each load read afresh. The
// indexed policies (GridView::alive_sites / least_loaded_alive, answered
// from the InfoService's per-epoch cache when staleness > 0) must run
// bit-identically to them.

class FullScanJobRandomEs final : public ExternalScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "JobRandom"; }
  [[nodiscard]] data::SiteIndex select_site(const site::Job& job, const GridView& view,
                                            util::Rng& rng) override {
    (void)job;
    std::vector<data::SiteIndex> sites = full_scan_placeable_sites(view);
    return sites[rng.index(sites.size())];
  }
};

class FullScanJobLeastLoadedEs final : public ExternalScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "JobLeastLoaded"; }
  [[nodiscard]] data::SiteIndex select_site(const site::Job& job, const GridView& view,
                                            util::Rng& rng) override {
    (void)job;
    return full_scan_least_loaded_of(full_scan_placeable_sites(view), view, rng);
  }
};

class FullScanJobBestEstimateEs final : public ExternalScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "JobBestEstimate"; }
  [[nodiscard]] data::SiteIndex select_site(const site::Job& job, const GridView& view,
                                            util::Rng& rng) override {
    double best = std::numeric_limits<double>::infinity();
    std::vector<data::SiteIndex> ties;
    for (data::SiteIndex site : full_scan_placeable_sites(view)) {
      double est = JobAdaptiveEs::estimate_completion_s(job, site, view);
      if (est < best - util::kEpsilon) {
        best = est;
        ties.assign(1, site);
      } else if (est <= best + util::kEpsilon) {
        ties.push_back(site);
      }
    }
    return ties[rng.index(ties.size())];
  }
};

std::unique_ptr<ExternalScheduler> full_scan_oracle(EsAlgorithm es) {
  switch (es) {
    case EsAlgorithm::JobRandom:
      return std::make_unique<FullScanJobRandomEs>();
    case EsAlgorithm::JobLeastLoaded:
      return std::make_unique<FullScanJobLeastLoadedEs>();
    case EsAlgorithm::JobBestEstimate:
      return std::make_unique<FullScanJobBestEstimateEs>();
    default:
      return nullptr;
  }
}

TEST(EsIndex, IndexedPoliciesRunBitIdenticalToFullScanOracles) {
  for (EsAlgorithm es :
       {EsAlgorithm::JobRandom, EsAlgorithm::JobLeastLoaded, EsAlgorithm::JobBestEstimate}) {
    for (DsAlgorithm ds : paper_ds_algorithms()) {
      for (bool faults : {false, true}) {
        for (double staleness : {0.0, 120.0}) {
          SimulationConfig cfg;
          cfg.es = es;
          cfg.ds = ds;
          cfg.seed = 37;
          cfg.total_jobs = 2400;
          cfg.info_staleness_s = staleness;
          if (faults) {
            cfg.fault_site_crash_rate_per_hour = 0.5;
            cfg.fault_site_downtime_s = 1800.0;
            cfg.fault_transfer_fail_prob = 0.05;
            cfg.fault_catalog_loss_rate_per_hour = 30.0;
          }
          SCOPED_TRACE(std::string(to_string(es)) + " " + to_string(ds) +
                       (faults ? " faults" : " no faults") + " staleness " +
                       std::to_string(staleness));
          Grid indexed(cfg);
          indexed.run();
          Grid full_scan(cfg);
          full_scan.set_external_scheduler(full_scan_oracle(es));
          full_scan.run();
          EXPECT_EQ(fingerprint(indexed.metrics()), fingerprint(full_scan.metrics()));
          EXPECT_LT(indexed.metrics().view_queries, full_scan.metrics().view_queries);
          if (faults) {
            EXPECT_GT(indexed.metrics().site_crashes, 0u);
          }
        }
      }
    }
  }
}

TEST(EsIndex, JobLeastLoadedDecisionIsOneQueryWhenStale) {
  SimulationConfig cfg;
  cfg.es = EsAlgorithm::JobLeastLoaded;
  cfg.ds = DsAlgorithm::DataDoNothing;  // no DS queries in the count
  cfg.total_jobs = 600;
  cfg.info_staleness_s = 120.0;
  Grid grid(cfg);
  grid.run();
  // One least_loaded_alive() read per placement; placements are the jobs
  // plus the resubmissions (none without faults).
  EXPECT_EQ(grid.metrics().view_queries, 600u);
}

TEST(JobAdaptive, PrefersDataSiteWhenNetworkIsSlow) {
  FakeGridView view(4, 2);
  view.place(0, 2);
  view.bandwidth_ = 1.0;   // 1 MB/s: moving 1 GB costs 1000 s
  view.congestion_ = 3;
  util::Rng rng(9);
  JobAdaptiveEs es;
  auto job = make_job(1, 0, {0}, 300.0);
  EXPECT_EQ(es.select_site(job, view, rng), 2u);
}

TEST(JobAdaptive, RunsLocallyWhenDataIsCheapAndDataSiteIsBusy) {
  FakeGridView view(4, 2);
  view.place(0, 2);
  view.loads_ = {0, 0, 50, 0};  // data site is deeply backlogged
  view.bandwidth_ = 1000.0;     // near-free data movement
  util::Rng rng(10);
  JobAdaptiveEs es;
  auto job = make_job(1, 0, {0}, 300.0);
  data::SiteIndex chosen = es.select_site(job, view, rng);
  EXPECT_NE(chosen, 2u);
}

TEST(JobAdaptive, EstimateMatchesHandComputation) {
  FakeGridView view(3, 1);
  view.loads_ = {4, 0, 0};
  view.compute_elements_ = {2, 2, 2};
  view.place(0, 1);
  view.bandwidth_ = 10.0;
  view.congestion_ = 1;
  auto job = make_job(1, 0, {0}, 300.0);
  // Candidate 0: queue = (4/2)*300 = 600; transfer = 1000/(10/2) = 200;
  // est = max(600, 200) + 300 = 900.
  EXPECT_NEAR(JobAdaptiveEs::estimate_completion_s(job, 0, view), 900.0, 1e-9);
  // Candidate 1 (holds the data): est = max(0, 0) + 300 = 300.
  EXPECT_NEAR(JobAdaptiveEs::estimate_completion_s(job, 1, view), 300.0, 1e-9);
}

TEST(JobBestEstimate, ScansEverySiteAndPicksTheGlobalMinimum) {
  FakeGridView view(5, 1);
  view.place(0, 2);
  view.bandwidth_ = 1.0;  // expensive data movement: data site must win
  util::Rng rng(12);
  JobBestEstimateEs es;
  auto job = make_job(1, 0, {0}, 300.0);
  EXPECT_EQ(es.select_site(job, view, rng), 2u);
}

TEST(JobBestEstimate, ExploitsFasterProcessorsWhenDataIsCheap) {
  FakeGridView view(4, 1);
  view.place(0, 1);
  view.bandwidth_ = 10000.0;  // data movement nearly free
  view.speeds_ = {1.0, 1.0, 3.0, 1.0};  // site 2 is 3x faster
  util::Rng rng(13);
  JobBestEstimateEs es;
  auto job = make_job(1, 0, {0}, 300.0);
  EXPECT_EQ(es.select_site(job, view, rng), 2u);
}

TEST(JobBestEstimate, BreaksTiesUniformlyInsteadOfFavoringSiteZero) {
  // Regression: the scan used to ignore the rng and keep the first site
  // within epsilon of the minimum, funnelling every tied decision to the
  // lowest index. A symmetric grid (no data anywhere, equal loads and
  // speeds) makes every site an exact tie, so all of them must be reachable.
  FakeGridView view(5, 1);
  view.place(0, 0);
  view.place(0, 1);
  view.place(0, 2);
  view.place(0, 3);
  view.place(0, 4);  // data everywhere: transfer estimate is 0 at all sites
  util::Rng rng(14);
  JobBestEstimateEs es;
  auto job = make_job(1, 0, {0}, 300.0);
  std::set<data::SiteIndex> seen;
  for (int i = 0; i < 300; ++i) seen.insert(es.select_site(job, view, rng));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(JobAdaptive, BreaksTiesBetweenDistinctCandidatesViaRng) {
  // Origin (0) and the least-loaded pick tie on the estimate when data is
  // everywhere and loads are equal; the choice must not always be the
  // first candidate in scan order.
  FakeGridView view(3, 1);
  view.place(0, 0);
  view.place(0, 1);
  view.place(0, 2);
  util::Rng rng(15);
  JobAdaptiveEs es;
  auto job = make_job(1, 0, {0}, 300.0);
  std::set<data::SiteIndex> seen;
  for (int i = 0; i < 300; ++i) seen.insert(es.select_site(job, view, rng));
  EXPECT_GT(seen.size(), 1u);
}

TEST(JobAdaptive, SpeedFactorsScaleTheEstimate) {
  FakeGridView view(2, 1);
  view.place(0, 1);
  view.speeds_ = {2.0, 1.0};
  auto job = make_job(1, 0, {0}, 300.0);
  // Candidate 0 runs at double speed: est = 150 + transfer considerations.
  double est_fast = JobAdaptiveEs::estimate_completion_s(job, 0, view);
  double est_data = JobAdaptiveEs::estimate_completion_s(job, 1, view);
  EXPECT_NEAR(est_data, 300.0, 1e-9);        // data local, nominal speed
  EXPECT_NEAR(est_fast, 150.0 + 100.0, 1e-9);  // 1000 MB at 10 MB/s wait vs run
}

TEST(EsPolicies, NamesMatchAlgorithms) {
  EXPECT_STREQ(JobRandomEs{}.name(), "JobRandom");
  EXPECT_STREQ(JobLeastLoadedEs{}.name(), "JobLeastLoaded");
  EXPECT_STREQ(JobDataPresentEs{}.name(), "JobDataPresent");
  EXPECT_STREQ(JobLocalEs{}.name(), "JobLocal");
  EXPECT_STREQ(JobAdaptiveEs{}.name(), "JobAdaptive");
  EXPECT_STREQ(JobBestEstimateEs{}.name(), "JobBestEstimate");
}

TEST(EsPolicies, JobWithoutInputsIsRejectedByDataAwarePolicies) {
  FakeGridView view(3, 1);
  util::Rng rng(11);
  auto job = make_job(1, 0, {});
  JobDataPresentEs data_present;
  EXPECT_THROW((void)data_present.select_site(job, view, rng), util::SimError);
  JobAdaptiveEs adaptive;
  EXPECT_THROW((void)adaptive.select_site(job, view, rng), util::SimError);
}

}  // namespace
}  // namespace chicsim::core
