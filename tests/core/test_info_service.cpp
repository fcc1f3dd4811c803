// Tests of the information-service semantics of core::InfoService (reached
// through its grid.info() seam): exact load with staleness 0, epoch-snapshot
// load with staleness > 0, and the network occupancy metrics derived from
// link busy-time integrals, the placement index against the GridView
// default scans, and stale loads and replica locations against a
// brute-force snapshot per epoch. Replica-location staleness through the
// Grid is covered in test_services.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "core/info_service.hpp"

namespace chicsim::core {
namespace {

SimulationConfig info_config() {
  SimulationConfig cfg;
  cfg.num_users = 12;
  cfg.num_sites = 6;
  cfg.num_regions = 3;
  cfg.num_datasets = 30;
  cfg.total_jobs = 120;
  cfg.storage_capacity_mb = 20000.0;
  cfg.seed = 81;
  return cfg;
}

TEST(InfoService, ExactModeTracksLiveQueues) {
  SimulationConfig cfg = info_config();
  cfg.info_staleness_s = 0.0;
  Grid grid(cfg);
  // Pre-run: loads are zero and the view must agree at all times.
  for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) {
    EXPECT_EQ(grid.info().site_load(s), grid.site_at(s).load());
  }
  // Probe live agreement mid-run.
  int checks = 0;
  for (double t : {100.0, 1000.0, 3000.0}) {
    grid.engine().schedule_at(t, [&grid, &cfg, &checks] {
      for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) {
        ASSERT_EQ(grid.info().site_load(s), grid.site_at(s).load());
      }
      ++checks;
    });
  }
  grid.run();
  EXPECT_GT(checks, 0);
}

TEST(InfoService, StaleModeFreezesLoadsWithinAnEpoch) {
  SimulationConfig cfg = info_config();
  cfg.info_staleness_s = 500.0;
  Grid grid(cfg);
  // Two probes inside the same publication epoch must see identical
  // snapshots even though real queues moved in between.
  std::vector<std::size_t> first;
  std::vector<std::size_t> second;
  grid.engine().schedule_at(600.0, [&] {
    for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) first.push_back(grid.info().site_load(s));
  });
  grid.engine().schedule_at(990.0, [&] {
    for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) second.push_back(grid.info().site_load(s));
  });
  grid.run();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first, second);
}

TEST(InfoService, StaleSnapshotsRefreshAcrossEpochs) {
  SimulationConfig cfg = info_config();
  cfg.info_staleness_s = 200.0;
  cfg.es = EsAlgorithm::JobLeastLoaded;  // keeps querying the view
  Grid grid(cfg);
  // Record the snapshot early and late; the burst at t=0 drains over the
  // run, so a refreshed snapshot must eventually differ.
  std::vector<std::size_t> early;
  std::vector<std::size_t> late;
  grid.engine().schedule_at(250.0, [&] {
    for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) early.push_back(grid.info().site_load(s));
  });
  grid.engine().schedule_at(5000.0, [&] {
    for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) late.push_back(grid.info().site_load(s));
  });
  grid.run();
  ASSERT_FALSE(early.empty());
  ASSERT_FALSE(late.empty());
  EXPECT_NE(early, late);
}

TEST(InfoService, NetworkOccupancyMetricsAreCoherent) {
  SimulationConfig cfg = info_config();
  cfg.es = EsAlgorithm::JobRandom;  // plenty of traffic
  Grid grid(cfg);
  grid.run();
  const RunMetrics& m = grid.metrics();
  EXPECT_GT(m.avg_link_busy_fraction, 0.0);
  EXPECT_GE(m.max_link_busy_fraction, m.avg_link_busy_fraction);
  EXPECT_LE(m.max_link_busy_fraction, 1.0 + 1e-9);
}

TEST(InfoService, NoTrafficMeansIdleLinks) {
  SimulationConfig cfg = info_config();
  cfg.es = EsAlgorithm::JobDataPresent;
  cfg.ds = DsAlgorithm::DataDoNothing;  // jobs at the data, nothing moves
  Grid grid(cfg);
  grid.run();
  EXPECT_DOUBLE_EQ(grid.metrics().avg_link_busy_fraction, 0.0);
  EXPECT_DOUBLE_EQ(grid.metrics().max_link_busy_fraction, 0.0);
}

/// A standalone InfoService over sites whose queues and liveness a test
/// sets directly, with the engine clock moved by run_until.
struct IndexWorld {
  explicit IndexWorld(std::size_t n, double staleness, std::size_t datasets = 1)
      : topology(net::build_hierarchy({n, 1, 10.0})),
        routing(topology),
        transfers(engine, topology, routing),
        replicas(datasets),
        neighbors(n) {
    config.num_sites = n;
    config.info_staleness_s = staleness;
    for (std::size_t d = 0; d < datasets; ++d) catalog.add("d" + std::to_string(d), 1000.0);
    for (std::size_t s = 0; s < n; ++s) {
      sites.emplace_back(static_cast<data::SiteIndex>(s), 2, 10000.0);
    }
    info = std::make_unique<InfoService>(config, engine, sites, catalog, replicas, topology,
                                         routing, transfers, neighbors);
  }

  void set_load(data::SiteIndex s, std::size_t load) {
    while (sites[s].load() < load) sites[s].enqueue(next_job++);
    while (sites[s].load() > load) sites[s].remove_from_queue(sites[s].queue().back());
  }

  SimulationConfig config;
  sim::Engine engine;
  std::vector<site::Site> sites;
  data::DatasetCatalog catalog;
  net::Topology topology;
  net::Routing routing;
  net::TransferManager transfers;
  data::ReplicaCatalog replicas;
  std::vector<std::vector<data::SiteIndex>> neighbors;
  std::unique_ptr<InfoService> info;
  site::JobId next_job = 1;
};

TEST(InfoService, PlacementIndexMatchesDefaultScanOnRandomViews) {
  util::Rng gen(77);
  constexpr double kStaleness = 120.0;
  // How often each edge case came up: every one must be exercised.
  std::size_t some_dead = 0, all_dead = 0, tied = 0, changed_within_epoch = 0,
              at_boundary = 0, epochs_crossed = 0;
  for (std::uint64_t trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + gen.index(12);
    const double staleness = gen.chance(0.2) ? 0.0 : kStaleness;
    IndexWorld w(n, staleness);
    util::SimTime t = 0.0;
    for (int step = 0; step < 25; ++step) {
      // Next query time: the same instant, inside the epoch, exactly on
      // the next epoch boundary, or a few epochs on.
      const double epoch_start = std::floor(t / kStaleness) * kStaleness;
      switch (gen.index(4)) {
        case 0:
          break;
        case 1:
          t = std::min(t + gen.uniform(0.0, 30.0), epoch_start + kStaleness * 0.99);
          break;
        case 2:
          t = epoch_start + kStaleness;
          ++at_boundary;
          break;
        default:
          t = epoch_start + kStaleness * static_cast<double>(1 + gen.index(3)) +
              gen.uniform(0.0, kStaleness * 0.9);
          break;
      }
      epochs_crossed += t >= epoch_start + kStaleness ? 1 : 0;
      w.engine.run_until(t);
      // Ground truth moves: crashes, recoveries and queue changes land at
      // any time, inside an epoch included, and sometimes every site dies.
      const bool everything_dead = gen.chance(0.1);
      for (data::SiteIndex s = 0; s < n; ++s) {
        if (everything_dead) {
          w.sites[s].set_alive(false);
        } else if (gen.chance(0.3)) {
          w.sites[s].set_alive(!w.sites[s].alive());
        }
        if (gen.chance(0.5)) w.set_load(s, gen.index(3));
      }
      changed_within_epoch += t < epoch_start + kStaleness && step > 0 ? 1 : 0;

      // Either query may come first in the epoch: snapshots are captured
      // at the first read, so the order must not matter.
      const bool index_first = gen.chance(0.5);
      std::vector<data::SiteIndex> scan_alive, scan_least, index_alive, index_least;
      auto scan = [&] {
        scan_alive = w.info->GridView::alive_sites();
        scan_least = w.info->GridView::least_loaded_alive();
      };
      auto index = [&] {
        std::uint64_t before = w.info->view_queries();
        index_alive = w.info->alive_sites();
        if (staleness > 0.0) {
          EXPECT_EQ(w.info->view_queries(), before + 1);
        }
        before = w.info->view_queries();
        index_least = w.info->least_loaded_alive();
        if (staleness > 0.0) {
          EXPECT_EQ(w.info->view_queries(), before + 1);
        }
      };
      if (index_first) {
        index();
        scan();
      } else {
        scan();
        index();
      }
      SCOPED_TRACE("trial " + std::to_string(trial) + " step " + std::to_string(step) +
                   " t " + std::to_string(t));
      ASSERT_EQ(index_alive, scan_alive);
      ASSERT_EQ(index_least, scan_least);
      if (scan_alive.size() < n) ++some_dead;
      bool none_alive = true;
      for (data::SiteIndex s = 0; s < n; ++s) none_alive &= !w.info->site_alive(s);
      all_dead += none_alive ? 1 : 0;
      tied += scan_least.size() > 1 ? 1 : 0;
    }
  }
  EXPECT_GT(some_dead, 0u);
  EXPECT_GT(all_dead, 0u);
  EXPECT_GT(tied, 0u);
  EXPECT_GT(changed_within_epoch, 0u);
  EXPECT_GT(at_boundary, 0u);
  EXPECT_GT(epochs_crossed, 0u);
}

TEST(InfoService, PlacementIndexIsFrozenWithinAnEpoch) {
  // A crash and a recovery inside one epoch, and a queue that grows, are
  // invisible until the next publication, which lands exactly on k*S.
  IndexWorld w(4, 100.0);
  w.set_load(0, 2);
  w.set_load(1, 1);
  w.set_load(2, 1);
  w.set_load(3, 3);
  w.engine.run_until(10.0);
  EXPECT_EQ(w.info->least_loaded_alive(), (std::vector<data::SiteIndex>{1, 2}));
  w.engine.run_until(40.0);
  w.sites[1].set_alive(false);
  w.set_load(2, 5);
  EXPECT_EQ(w.info->alive_sites(), (std::vector<data::SiteIndex>{0, 1, 2, 3}));
  EXPECT_EQ(w.info->least_loaded_alive(), (std::vector<data::SiteIndex>{1, 2}));
  w.engine.run_until(70.0);
  w.sites[1].set_alive(true);
  w.sites[3].set_alive(false);
  EXPECT_EQ(w.info->least_loaded_alive(), (std::vector<data::SiteIndex>{1, 2}));
  w.engine.run_until(100.0);  // the boundary itself starts the next epoch
  EXPECT_EQ(w.info->alive_sites(), (std::vector<data::SiteIndex>{0, 1, 2}));
  EXPECT_EQ(w.info->least_loaded_alive(), (std::vector<data::SiteIndex>{1}));
  for (auto& site : w.sites) site.set_alive(false);
  w.engine.run_until(200.0);  // nothing alive: every site is placeable
  EXPECT_EQ(w.info->alive_sites(), (std::vector<data::SiteIndex>{0, 1, 2, 3}));
  EXPECT_EQ(w.info->least_loaded_alive(), (std::vector<data::SiteIndex>{1}));
}

TEST(InfoService, StaleViewMatchesASnapshotTakenAtTheFamilysFirstQuery) {
  // Brute force: each family (loads, replica locations) is deep-copied
  // from ground truth at its first query inside an epoch; every stale
  // answer must come from that copy, however ground truth moved since.
  util::Rng gen(120);
  constexpr double kStaleness = 120.0;
  std::size_t same_instant = 0, at_boundary = 0, wipes = 0, lagging = 0;
  for (std::uint64_t trial = 0; trial < 150; ++trial) {
    const std::size_t n = 2 + gen.index(6);
    const std::size_t datasets = 1 + gen.index(5);
    IndexWorld w(n, kStaleness, datasets);
    for (data::DatasetId d = 0; d < datasets; ++d) {
      w.replicas.add(d, static_cast<data::SiteIndex>(gen.index(n)));
    }
    double load_epoch = -1.0, replica_epoch = -1.0;
    std::vector<std::size_t> load_oracle;
    std::vector<std::vector<data::SiteIndex>> replica_oracle;
    auto epoch_now = [&] {
      return std::floor(w.engine.now() / kStaleness) * kStaleness;
    };
    auto mutate = [&] {
      for (int k = 0; k < 3; ++k) {
        const auto d = static_cast<data::DatasetId>(gen.index(datasets));
        const auto s = static_cast<data::SiteIndex>(gen.index(n));
        if (gen.chance(0.5)) {
          w.replicas.add(d, s);
        } else {
          (void)w.replicas.remove(d, s);
        }
        w.set_load(s, gen.index(4));
      }
      if (gen.chance(0.15)) {
        // A crash wipe: the site loses every copy it held and its queue.
        const auto s = static_cast<data::SiteIndex>(gen.index(n));
        for (data::DatasetId d = 0; d < datasets; ++d) (void)w.replicas.remove(d, s);
        w.set_load(s, 0);
        ++wipes;
      }
    };
    auto check_loads = [&] {
      if (load_epoch != epoch_now()) {
        load_oracle.clear();
        for (data::SiteIndex s = 0; s < n; ++s) load_oracle.push_back(w.sites[s].load());
        load_epoch = epoch_now();
      }
      for (data::SiteIndex s = 0; s < n; ++s) ASSERT_EQ(w.info->site_load(s), load_oracle[s]);
    };
    auto check_replicas = [&] {
      const bool first = replica_epoch != epoch_now();
      if (first) {
        replica_oracle.clear();
        for (data::DatasetId d = 0; d < datasets; ++d) {
          replica_oracle.push_back(w.replicas.locations(d));
        }
        replica_epoch = epoch_now();
      }
      // Probe membership first, so that an epoch's first query is
      // sometimes site_has_dataset rather than replica_sites.
      for (data::DatasetId d = 0; d < datasets; ++d) {
        for (data::SiteIndex s = 0; s < n; ++s) {
          const auto& want = replica_oracle[d];
          ASSERT_EQ(w.info->site_has_dataset(s, d),
                    std::find(want.begin(), want.end(), s) != want.end());
        }
        ASSERT_EQ(w.info->replica_sites(d), replica_oracle[d]);
        lagging += replica_oracle[d] != w.replicas.locations(d) ? 1 : 0;
      }
    };
    util::SimTime t = 0.0;
    for (int step = 0; step < 30; ++step) {
      const double epoch_start = std::floor(t / kStaleness) * kStaleness;
      switch (gen.index(4)) {
        case 0:
          ++same_instant;
          break;
        case 1:
          t = std::min(t + gen.uniform(0.0, 30.0), epoch_start + kStaleness * 0.99);
          break;
        case 2:
          t = epoch_start + kStaleness;
          ++at_boundary;
          break;
        default:
          t = epoch_start + kStaleness * static_cast<double>(1 + gen.index(3)) +
              gen.uniform(0.0, kStaleness * 0.9);
          break;
      }
      w.engine.run_until(t);
      SCOPED_TRACE("trial " + std::to_string(trial) + " step " + std::to_string(step) +
                   " t " + std::to_string(t));
      // Ground truth moves between queries at one instant as well.
      mutate();
      if (gen.chance(0.5)) {
        check_loads();
        mutate();
        check_replicas();
      } else {
        check_replicas();
        mutate();
        check_loads();
      }
      mutate();
      check_replicas();
      check_loads();
      ASSERT_EQ(w.info->current_epoch(), epoch_now());
    }
  }
  EXPECT_GT(same_instant, 0u);
  EXPECT_GT(at_boundary, 0u);
  EXPECT_GT(wipes, 0u);
  EXPECT_GT(lagging, 0u);
}

}  // namespace
}  // namespace chicsim::core
