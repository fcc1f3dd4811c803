// The Dataset Scheduler runs only at hot sites: when a DS declares a
// popularity_threshold(), the ReplicationDriver evaluates it only at sites
// holding a dataset whose count reached it. A skipped call must have been a
// no-op, so a DS that declares nothing (and is evaluated everywhere) must
// produce the same run, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithms.hpp"
#include "core/experiment.hpp"
#include "core/factory.hpp"
#include "core/grid.hpp"
#include "core/replication_driver.hpp"

namespace chicsim::core {
namespace {

SimulationConfig hot_config() {
  SimulationConfig cfg;
  cfg.num_users = 24;
  cfg.num_sites = 12;
  cfg.num_regions = 3;
  cfg.num_datasets = 60;
  cfg.total_jobs = 480;
  cfg.storage_capacity_mb = 15000.0;
  cfg.replication_threshold = 3.0;
  return cfg;
}

/// Forwards to a built-in DS but declares no threshold, so the driver
/// evaluates it at every site on every tick.
class Undeclared final : public DatasetScheduler {
 public:
  explicit Undeclared(std::unique_ptr<DatasetScheduler> inner) : inner_(std::move(inner)) {}
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  void evaluate(ReplicationContext& ctx, util::Rng& rng) override {
    inner_->evaluate(ctx, rng);
  }
  void on_remote_fetch(ReplicationContext& ctx, data::DatasetId dataset,
                       data::SiteIndex requester, util::Rng& rng) override {
    inner_->on_remote_fetch(ctx, dataset, requester, rng);
  }

 private:
  std::unique_ptr<DatasetScheduler> inner_;
};

RunMetrics run(const SimulationConfig& cfg, bool undeclared) {
  Grid grid(cfg);
  if (undeclared) {
    grid.set_dataset_scheduler(std::make_unique<Undeclared>(
        make_dataset_scheduler(cfg.ds, cfg.replication_threshold)));
  }
  grid.run();
  return grid.metrics();
}

/// Exact equality on every RunMetrics field except view_queries: a skipped
/// evaluation may have made queries (DataRandom asks num_sites(),
/// DataLeastLoaded its neighbours) before finding nothing to act on.
void expect_same_run(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.avg_response_time_s, b.avg_response_time_s);
  EXPECT_EQ(a.p95_response_time_s, b.p95_response_time_s);
  EXPECT_EQ(a.response_summary.count, b.response_summary.count);
  EXPECT_EQ(a.response_summary.mean, b.response_summary.mean);
  EXPECT_EQ(a.response_summary.stddev, b.response_summary.stddev);
  EXPECT_EQ(a.response_summary.min, b.response_summary.min);
  EXPECT_EQ(a.response_summary.max, b.response_summary.max);
  EXPECT_EQ(a.avg_placement_wait_s, b.avg_placement_wait_s);
  EXPECT_EQ(a.avg_queue_wait_s, b.avg_queue_wait_s);
  EXPECT_EQ(a.avg_data_wait_s, b.avg_data_wait_s);
  EXPECT_EQ(a.avg_compute_s, b.avg_compute_s);
  EXPECT_EQ(a.avg_output_wait_s, b.avg_output_wait_s);
  EXPECT_EQ(a.avg_data_per_job_mb, b.avg_data_per_job_mb);
  EXPECT_EQ(a.avg_fetch_per_job_mb, b.avg_fetch_per_job_mb);
  EXPECT_EQ(a.avg_replication_per_job_mb, b.avg_replication_per_job_mb);
  EXPECT_EQ(a.avg_output_per_job_mb, b.avg_output_per_job_mb);
  EXPECT_EQ(a.total_mb_hops, b.total_mb_hops);
  EXPECT_EQ(a.idle_fraction, b.idle_fraction);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.avg_link_busy_fraction, b.avg_link_busy_fraction);
  EXPECT_EQ(a.max_link_busy_fraction, b.max_link_busy_fraction);
  EXPECT_EQ(a.remote_fetches, b.remote_fetches);
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.local_data_hits, b.local_data_hits);
  EXPECT_EQ(a.local_data_misses, b.local_data_misses);
  EXPECT_EQ(a.cache_evictions, b.cache_evictions);
  EXPECT_EQ(a.jobs_run_at_origin, b.jobs_run_at_origin);
  EXPECT_EQ(a.site_crashes, b.site_crashes);
  EXPECT_EQ(a.site_recoveries, b.site_recoveries);
  EXPECT_EQ(a.jobs_resubmitted, b.jobs_resubmitted);
  EXPECT_EQ(a.transfer_retries, b.transfer_retries);
  EXPECT_EQ(a.output_retries, b.output_retries);
  EXPECT_EQ(a.transfers_aborted, b.transfers_aborted);
  EXPECT_EQ(a.catalog_invalidations, b.catalog_invalidations);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.event_pushes, b.event_pushes);
  EXPECT_EQ(a.event_cancels, b.event_cancels);
  EXPECT_EQ(a.peak_heap_size, b.peak_heap_size);
  EXPECT_EQ(a.queue_compactions, b.queue_compactions);
  EXPECT_EQ(a.reallocations, b.reallocations);
  EXPECT_EQ(a.flows_rescheduled, b.flows_rescheduled);
  EXPECT_EQ(a.reschedules_skipped, b.reschedules_skipped);
  EXPECT_EQ(a.rate_recomputes_skipped, b.rate_recomputes_skipped);
}

/// Runs `cfg` with the plain policy and with its undeclared wrapper;
/// returns whether the skipped evaluations were visible in view_queries.
bool expect_skipping_changes_nothing(const SimulationConfig& cfg) {
  SCOPED_TRACE(std::string(to_string(cfg.es)) + " + " + to_string(cfg.ds) + ", seed " +
               std::to_string(cfg.seed) + ", staleness " +
               std::to_string(cfg.info_staleness_s));
  RunMetrics hot_only = run(cfg, /*undeclared=*/false);
  RunMetrics everywhere = run(cfg, /*undeclared=*/true);
  expect_same_run(hot_only, everywhere);
  EXPECT_LE(hot_only.view_queries, everywhere.view_queries);
  return hot_only.view_queries < everywhere.view_queries;
}

TEST(DsHotSites, SkippedEvaluationsChangeNothingAcrossPaperMatrix) {
  std::size_t skipped = 0, replications = 0;
  for (double staleness : {0.0, 120.0}) {
    for (EsAlgorithm es : paper_es_algorithms()) {
      for (DsAlgorithm ds : paper_ds_algorithms()) {
        for (std::uint64_t seed : {1, 2}) {
          SimulationConfig cfg = hot_config();
          cfg.info_staleness_s = staleness;
          cfg.es = es;
          cfg.ds = ds;
          cfg.seed = seed;
          skipped += expect_skipping_changes_nothing(cfg) ? 1 : 0;
          replications += run(cfg, false).replications;
        }
      }
    }
  }
  // Not vacuous: the DS acted, and evaluations were skipped.
  EXPECT_GT(replications, 0u);
  EXPECT_GT(skipped, 0u);
}

TEST(DsHotSites, SkippedEvaluationsChangeNothingUnderDecay) {
  // Counts decay between the flag and the tick, so a flagged site may
  // have nothing hot left when it is evaluated.
  std::size_t skipped = 0;
  for (DsAlgorithm ds : {DsAlgorithm::DataRandom, DsAlgorithm::DataLeastLoaded,
                         DsAlgorithm::DataBestClient}) {
    SimulationConfig cfg = hot_config();
    cfg.es = EsAlgorithm::JobRandom;
    cfg.ds = ds;
    cfg.popularity_half_life_s = 600.0;
    skipped += expect_skipping_changes_nothing(cfg) ? 1 : 0;
  }
  EXPECT_GT(skipped, 0u);
}

TEST(DsHotSites, SkippedEvaluationsChangeNothingUnderFaults) {
  // Crashes wipe caches and catalog loss removes entries, while the DS
  // still runs (and DataRandom draws) at dead sites.
  for (DsAlgorithm ds : {DsAlgorithm::DataRandom, DsAlgorithm::DataLeastLoaded}) {
    SimulationConfig cfg = hot_config();
    cfg.es = EsAlgorithm::JobLeastLoaded;
    cfg.ds = ds;
    cfg.fault_site_crash_rate_per_hour = 0.5;
    cfg.fault_site_downtime_s = 1800.0;
    cfg.fault_transfer_fail_prob = 0.05;
    cfg.fault_catalog_loss_rate_per_hour = 30.0;
    RunMetrics m = run(cfg, false);
    EXPECT_GT(m.site_crashes, 0u);
    EXPECT_GT(m.catalog_invalidations, 0u);
    EXPECT_TRUE(expect_skipping_changes_nothing(cfg));
  }
}

/// One evaluate() call as the spy saw it.
struct Call {
  util::SimTime at = 0.0;
  data::SiteIndex site = data::kNoSite;
  bool hot = false;  ///< whether the site held a dataset at or over the threshold
};

/// Records every evaluation and, with `reset`, resets what is hot, like
/// the built-in policies do after acting.
class SpyDs final : public DatasetScheduler {
 public:
  SpyDs(double threshold, bool declare, std::vector<Call>& calls, bool reset = true)
      : threshold_(threshold), declare_(declare), reset_(reset), calls_(calls) {}
  [[nodiscard]] const char* name() const override { return "Spy"; }
  [[nodiscard]] std::optional<double> popularity_threshold() const override {
    if (declare_) return threshold_;
    return std::nullopt;
  }
  void evaluate(ReplicationContext& ctx, util::Rng& rng) override {
    (void)rng;
    std::vector<data::DatasetId> hot = ctx.popular_datasets(threshold_);
    calls_.push_back({ctx.view().now(), ctx.self(), !hot.empty()});
    if (!reset_) return;
    for (data::DatasetId d : hot) ctx.reset_popularity(d);
  }

 private:
  double threshold_;
  bool declare_;
  bool reset_;
  std::vector<Call>& calls_;
};

std::vector<Call> spy_run(bool declare) {
  SimulationConfig cfg = hot_config();
  cfg.es = EsAlgorithm::JobRandom;  // remote fetches make sites hot
  cfg.storage_capacity_mb = 1e9;    // nothing is evicted: a flagged site stays hot
  std::vector<Call> calls;
  Grid grid(cfg);
  grid.set_dataset_scheduler(
      std::make_unique<SpyDs>(cfg.replication_threshold, declare, calls));
  grid.run();
  return calls;
}

TEST(DsHotSites, EvaluatesExactlyTheHotSitesInAscendingOrder) {
  const std::size_t num_sites = hot_config().num_sites;
  std::vector<Call> declared = spy_run(true);
  std::vector<Call> everywhere = spy_run(false);

  // Undeclared: every site, ascending, on every tick.
  ASSERT_FALSE(everywhere.empty());
  ASSERT_EQ(everywhere.size() % num_sites, 0u);
  for (std::size_t i = 0; i < everywhere.size(); ++i) {
    EXPECT_EQ(everywhere[i].site, i % num_sites);
    EXPECT_EQ(everywhere[i].at, everywhere[i - i % num_sites].at);
  }

  // Declared: only hot sites, ascending within a tick.
  ASSERT_FALSE(declared.empty());
  EXPECT_LT(declared.size(), everywhere.size());
  for (std::size_t i = 0; i < declared.size(); ++i) {
    EXPECT_TRUE(declared[i].hot) << "site " << declared[i].site << " at " << declared[i].at;
    if (i > 0 && declared[i].at == declared[i - 1].at) {
      EXPECT_LT(declared[i - 1].site, declared[i].site);
    }
  }

  // The spy acts the same either way, so both runs see the same hot sites:
  // the declared run evaluated exactly the hot ones.
  std::set<std::pair<util::SimTime, data::SiteIndex>> hot_everywhere, evaluated;
  for (const Call& c : everywhere) {
    if (c.hot) hot_everywhere.insert({c.at, c.site});
  }
  for (const Call& c : declared) evaluated.insert({c.at, c.site});
  EXPECT_EQ(evaluated, hot_everywhere);
}

TEST(DsHotSites, FlagFollowsEveryWayASiteGetsHot) {
  SimulationConfig cfg = hot_config();
  Grid grid(cfg);
  std::vector<Call> calls;
  grid.set_dataset_scheduler(std::make_unique<SpyDs>(3.0, true, calls, /*reset=*/false));
  ReplicationDriver& driver = grid.replication();
  const data::DatasetId d = 0;
  const data::SiteIndex holder = grid.replicas().locations(d).front();
  const auto other = static_cast<data::SiteIndex>((holder + 1) % cfg.num_sites);
  auto sweep = [&] {
    calls.clear();
    driver.evaluate_all();
    std::vector<data::SiteIndex> sites;
    for (const Call& c : calls) sites.push_back(c.site);
    return sites;
  };
  using Sites = std::vector<data::SiteIndex>;

  // Below the threshold nothing is evaluated; the access that reaches it
  // flags the serving site.
  driver.note_access(d, holder, holder, data::kNoSite);
  driver.note_access(d, holder, holder, data::kNoSite);
  EXPECT_EQ(sweep(), Sites{});
  driver.note_access(d, holder, holder, data::kNoSite);
  EXPECT_EQ(sweep(), Sites{holder});
  // The spy left the dataset hot, so the site stays flagged.
  EXPECT_EQ(sweep(), Sites{holder});

  // Counts at a site that does not hold the dataset flag it, but it has
  // nothing to push: one evaluation clears the flag.
  for (int i = 0; i < 3; ++i) driver.note_access(d, other, other, data::kNoSite);
  EXPECT_EQ(sweep(), (Sites{std::min(holder, other), std::max(holder, other)}));
  ASSERT_FALSE(calls.empty());
  EXPECT_EQ(sweep(), Sites{holder});
  // A copy landing there makes that count count: flagged again.
  driver.store_replica(other, d);
  EXPECT_EQ(sweep(), (Sites{std::min(holder, other), std::max(holder, other)}));
  for (const Call& c : calls) EXPECT_TRUE(c.hot);
}

TEST(DsHotSites, NeverEvaluatingDsIsNeverCalled) {
  std::vector<Call> calls;
  class Never final : public DatasetScheduler {
   public:
    explicit Never(std::vector<Call>& calls) : calls_(calls) {}
    [[nodiscard]] const char* name() const override { return "Never"; }
    [[nodiscard]] std::optional<double> popularity_threshold() const override {
      return kNeverEvaluate;
    }
    void evaluate(ReplicationContext& ctx, util::Rng& rng) override {
      (void)rng;
      calls_.push_back({0.0, ctx.self(), false});
    }

   private:
    std::vector<Call>& calls_;
  };
  SimulationConfig cfg = hot_config();
  cfg.es = EsAlgorithm::JobRandom;
  Grid grid(cfg);
  grid.set_dataset_scheduler(std::make_unique<Never>(calls));
  grid.run();
  EXPECT_GT(grid.metrics().remote_fetches, 0u);
  EXPECT_TRUE(calls.empty());
}

}  // namespace
}  // namespace chicsim::core
