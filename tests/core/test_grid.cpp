#include "core/grid.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/error.hpp"
#include "workload/trace.hpp"

namespace chicsim::core {
namespace {

/// A small grid that runs in milliseconds but still exercises every moving
/// part (multiple regions, contention, caching, replication).
SimulationConfig small_config() {
  SimulationConfig cfg;
  cfg.num_users = 12;
  cfg.num_sites = 6;
  cfg.num_regions = 3;
  cfg.num_datasets = 40;
  cfg.total_jobs = 120;
  cfg.storage_capacity_mb = 20000.0;
  cfg.seed = 7;
  return cfg;
}

TEST(Grid, RunsToCompletionAndCountsEveryJob) {
  Grid grid(small_config());
  grid.run();
  const RunMetrics& m = grid.metrics();
  EXPECT_EQ(m.jobs_completed, 120u);
  EXPECT_GT(m.makespan_s, 0.0);
  EXPECT_GT(m.avg_response_time_s, 0.0);
}

TEST(Grid, MetricsBeforeRunThrow) {
  Grid grid(small_config());
  EXPECT_THROW((void)grid.metrics(), util::SimError);
}

TEST(Grid, RunTwiceThrows) {
  Grid grid(small_config());
  grid.run();
  EXPECT_THROW(grid.run(), util::SimError);
}

TEST(Grid, EveryDatasetHasExactlyOneInitialReplica) {
  Grid grid(small_config());
  const auto& replicas = grid.replicas();
  for (data::DatasetId d = 0; d < grid.datasets().size(); ++d) {
    EXPECT_EQ(replicas.replica_count(d), 1u);
  }
  EXPECT_EQ(replicas.total_replicas(), grid.datasets().size());
}

TEST(Grid, SiteComputeElementsWithinConfiguredRange) {
  SimulationConfig cfg = small_config();
  Grid grid(cfg);
  for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) {
    EXPECT_GE(grid.site_at(s).compute().size(), cfg.min_compute_elements);
    EXPECT_LE(grid.site_at(s).compute().size(), cfg.max_compute_elements);
  }
}

TEST(Grid, JobLocalRunsEverythingAtOrigin) {
  SimulationConfig cfg = small_config();
  cfg.es = EsAlgorithm::JobLocal;
  Grid grid(cfg);
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_run_at_origin, cfg.total_jobs);
  for (site::JobId id = 1; id <= cfg.total_jobs; ++id) {
    EXPECT_EQ(grid.job(id).exec_site, grid.job(id).origin_site);
  }
}

TEST(Grid, DataDoNothingNeverReplicates) {
  SimulationConfig cfg = small_config();
  cfg.ds = DsAlgorithm::DataDoNothing;
  Grid grid(cfg);
  grid.run();
  EXPECT_EQ(grid.metrics().replications, 0u);
  EXPECT_DOUBLE_EQ(grid.metrics().avg_replication_per_job_mb, 0.0);
}

TEST(Grid, ActiveReplicationActuallyReplicates) {
  SimulationConfig cfg = small_config();
  cfg.es = EsAlgorithm::JobDataPresent;
  cfg.ds = DsAlgorithm::DataRandom;
  cfg.replication_threshold = 3.0;
  Grid grid(cfg);
  grid.run();
  EXPECT_GT(grid.metrics().replications, 0u);
  EXPECT_GT(grid.metrics().avg_replication_per_job_mb, 0.0);
  // Replication grows the replica population beyond the initial one-each.
  EXPECT_GT(grid.replicas().total_replicas(), grid.datasets().size());
}

TEST(Grid, JobDataPresentWithoutReplicationMovesNoData) {
  SimulationConfig cfg = small_config();
  cfg.es = EsAlgorithm::JobDataPresent;
  cfg.ds = DsAlgorithm::DataDoNothing;
  Grid grid(cfg);
  grid.run();
  // Jobs always run where the data already is: nothing to fetch, nothing
  // replicated (Figure 3b's near-zero bar).
  EXPECT_EQ(grid.metrics().remote_fetches, 0u);
  EXPECT_DOUBLE_EQ(grid.metrics().avg_data_per_job_mb, 0.0);
}

TEST(Grid, SameSeedSameResults) {
  SimulationConfig cfg = small_config();
  cfg.es = EsAlgorithm::JobLeastLoaded;
  cfg.ds = DsAlgorithm::DataLeastLoaded;
  Grid a(cfg);
  a.run();
  Grid b(cfg);
  b.run();
  EXPECT_DOUBLE_EQ(a.metrics().avg_response_time_s, b.metrics().avg_response_time_s);
  EXPECT_DOUBLE_EQ(a.metrics().avg_data_per_job_mb, b.metrics().avg_data_per_job_mb);
  EXPECT_DOUBLE_EQ(a.metrics().makespan_s, b.metrics().makespan_s);
  EXPECT_EQ(a.metrics().replications, b.metrics().replications);
  EXPECT_EQ(a.engine().events_executed(), b.engine().events_executed());
}

TEST(Grid, DifferentSeedsDifferentWorlds) {
  SimulationConfig cfg = small_config();
  Grid a(cfg);
  a.run();
  cfg.seed = 8;
  Grid b(cfg);
  b.run();
  EXPECT_NE(a.metrics().avg_response_time_s, b.metrics().avg_response_time_s);
}

TEST(Grid, GridViewAnswersAreConsistent) {
  SimulationConfig cfg = small_config();
  Grid grid(cfg);
  EXPECT_EQ(grid.info().num_sites(), cfg.num_sites);
  for (data::DatasetId d = 0; d < grid.datasets().size(); ++d) {
    const auto& sites = grid.info().replica_sites(d);
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_TRUE(grid.info().site_has_dataset(sites[0], d));
    EXPECT_DOUBLE_EQ(grid.info().dataset_size_mb(d), grid.datasets().size_mb(d));
    // The holder's storage backs the catalog claim.
    EXPECT_TRUE(grid.site_at(sites[0]).storage().contains(d));
  }
}

TEST(Grid, NeighborsGridScopeListsEveryoneElse) {
  SimulationConfig cfg = small_config();
  cfg.ds_neighbor_scope = NeighborScope::Grid;
  Grid grid(cfg);
  for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) {
    EXPECT_EQ(grid.info().neighbors(s).size(), cfg.num_sites - 1);
  }
}

TEST(Grid, NeighborsRegionScopeListsSiblings) {
  SimulationConfig cfg = small_config();  // 6 sites, 3 regions -> 1 sibling
  cfg.ds_neighbor_scope = NeighborScope::Region;
  Grid grid(cfg);
  for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) {
    ASSERT_EQ(grid.info().neighbors(s).size(), 1u);
    EXPECT_EQ(grid.info().neighbors(s)[0] % cfg.num_regions, s % cfg.num_regions);
  }
}

TEST(Grid, HopsMatchHierarchy) {
  SimulationConfig cfg = small_config();
  Grid grid(cfg);
  // Sites 0 and 3 share region 0 (6 sites round-robin over 3 regions).
  EXPECT_EQ(grid.info().hops(0, 3), 2u);
  EXPECT_EQ(grid.info().hops(0, 1), 4u);
  EXPECT_EQ(grid.info().hops(2, 2), 0u);
}

TEST(Grid, StarTopologyRunsAndFlattensNeighbourhoods) {
  SimulationConfig cfg = small_config();
  cfg.topology = TopologyKind::Star;
  cfg.ds_neighbor_scope = NeighborScope::Region;  // meaningless on a star
  Grid grid(cfg);
  // One hub + 6 sites.
  EXPECT_EQ(grid.topology().node_count(), 7u);
  for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) {
    EXPECT_EQ(grid.info().neighbors(s).size(), cfg.num_sites - 1);
    for (data::SiteIndex t = 0; t < cfg.num_sites; ++t) {
      if (t != s) {
        EXPECT_EQ(grid.info().hops(s, t), 2u);
      }
    }
  }
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs);
  grid.audit();
}

TEST(Grid, UserFocusChangesTheWorkloadButStaysDeterministic) {
  SimulationConfig cfg = small_config();
  cfg.user_focus = 1.0;
  Grid a(cfg);
  Grid b(cfg);
  a.run();
  b.run();
  EXPECT_DOUBLE_EQ(a.metrics().avg_response_time_s, b.metrics().avg_response_time_s);

  cfg.user_focus = 0.0;
  Grid community(cfg);
  community.run();
  EXPECT_NE(community.metrics().avg_response_time_s, a.metrics().avg_response_time_s);
}

TEST(Grid, TraceReplayMatchesGeneratedRun) {
  SimulationConfig cfg = small_config();
  Grid original(cfg);

  // Export the workload the grid generated, then replay it.
  workload::WorkloadConfig wcfg;
  wcfg.num_users = cfg.num_users;
  wcfg.jobs_per_user = cfg.jobs_per_user();
  wcfg.num_sites = cfg.num_sites;
  wcfg.geometric_p = cfg.geometric_p;
  util::Rng rng = util::Rng::substream(cfg.seed, "workload");
  util::Rng drng = util::Rng::substream(cfg.seed, "datasets");
  auto catalog =
      data::DatasetCatalog::generate_uniform(cfg.num_datasets, cfg.min_dataset_mb,
                                             cfg.max_dataset_mb, drng);
  workload::Workload workload(wcfg, catalog, rng);

  Grid replayed(cfg, std::move(workload));
  original.run();
  replayed.run();
  EXPECT_DOUBLE_EQ(original.metrics().avg_response_time_s,
                   replayed.metrics().avg_response_time_s);
}

/// Replay a one-user trace against small_config()'s world (6 sites, 40
/// datasets) and return the SimError text, or "" when construction works.
std::string trace_replay_error(const std::string& rows) {
  SimulationConfig cfg = small_config();
  cfg.num_users = 1;
  cfg.total_jobs = 2;
  std::istringstream in("job_id,user,origin_site,runtime_s,inputs\n" + rows);
  try {
    Grid grid(cfg, workload::load_trace(in));
  } catch (const util::SimError& e) {
    return e.what();
  }
  return "";
}

TEST(Grid, TraceReplayRejectsOutOfRangeOriginSite) {
  EXPECT_EQ(trace_replay_error("1,0,0,10,1\n2,0,5,10,1\n"), "");
  std::string err = trace_replay_error("1,0,0,10,1\n2,0,6,10,1\n");
  EXPECT_NE(err.find("job 2: origin site 6 out of range"), std::string::npos) << err;
}

TEST(Grid, TraceReplayRejectsOutOfRangeDataset) {
  EXPECT_EQ(trace_replay_error("1,0,0,10,39\n2,0,1,10,1\n"), "");
  std::string err = trace_replay_error("1,0,0,10,3;40\n2,0,1,10,1\n");
  EXPECT_NE(err.find("job 1: dataset 40 out of range"), std::string::npos) << err;
}

TEST(Grid, StalenessZeroStillCompletes) {
  SimulationConfig cfg = small_config();
  cfg.info_staleness_s = 0.0;
  cfg.es = EsAlgorithm::JobLeastLoaded;
  Grid grid(cfg);
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs);
}

TEST(Grid, AllEsDsCombinationsComplete) {
  for (EsAlgorithm es : all_es_algorithms()) {
    for (DsAlgorithm ds : all_ds_algorithms()) {
      SimulationConfig cfg = small_config();
      cfg.total_jobs = 60;
      cfg.es = es;
      cfg.ds = ds;
      cfg.replication_threshold = 3.0;
      Grid grid(cfg);
      grid.run();
      EXPECT_EQ(grid.metrics().jobs_completed, 60u)
          << to_string(es) << "+" << to_string(ds);
    }
  }
}

TEST(Grid, AllLsPoliciesComplete) {
  for (LsAlgorithm ls : {LsAlgorithm::Fifo, LsAlgorithm::FifoSkip, LsAlgorithm::Sjf}) {
    SimulationConfig cfg = small_config();
    cfg.ls = ls;
    Grid grid(cfg);
    grid.run();
    EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs) << to_string(ls);
  }
}

TEST(Grid, AllReplicaSelectionsComplete) {
  for (ReplicaSelection rs : {ReplicaSelection::Closest, ReplicaSelection::Random,
                              ReplicaSelection::LeastLoadedSource}) {
    SimulationConfig cfg = small_config();
    cfg.replica_selection = rs;
    Grid grid(cfg);
    grid.run();
    EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs) << to_string(rs);
  }
}

TEST(Grid, TinyStorageStillCompletesViaTransientEntries) {
  SimulationConfig cfg = small_config();
  // Storage fits a couple of files only; masters are spread thin and LRU
  // churns constantly, falling back to transient placement when pinned +
  // referenced entries crowd a site.
  cfg.num_datasets = 12;
  cfg.storage_capacity_mb = 4000.0;
  cfg.es = EsAlgorithm::JobRandom;
  Grid grid(cfg);
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs);
  EXPECT_GT(grid.metrics().cache_evictions, 0u);
}

TEST(Grid, ImpossibleMasterPlacementThrows) {
  SimulationConfig cfg = small_config();
  cfg.num_datasets = 200;
  cfg.storage_capacity_mb = 2000.0;  // 6 sites x 2 GB < 200 datasets
  EXPECT_THROW(Grid{cfg}, util::SimError);
}

TEST(Grid, InvalidConfigRejectedAtConstruction) {
  SimulationConfig cfg = small_config();
  cfg.total_jobs = 121;  // not divisible by 12 users
  EXPECT_THROW(Grid{cfg}, util::SimError);
}

}  // namespace
}  // namespace chicsim::core
