// Source-replica selection (FetchPlanner::choose_source) against the
// reference it replaced: probe every catalogued holder against storage,
// reconcile every lie, then pick among the live holders. The planner probes
// only datasets the fault injector flagged and, under Closest, skips the
// liveness and load of holders farther than the running best; it must pick
// the same source, leave the same catalog and emit the same
// CatalogInvalidated events in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/fetch_planner.hpp"
#include "core/grid.hpp"
#include "core/replication_driver.hpp"
#include "fake_view.hpp"

namespace chicsim::core {
namespace {

/// What the probe-every-holder selection did: the source and the holders
/// reconciled out of the catalog, in order.
struct ReferenceChoice {
  data::SiteIndex source = data::kNoSite;
  std::vector<data::SiteIndex> invalidated;
};

/// The probe-every-holder choose_source, verbatim apart from its inputs.
ReferenceChoice reference_choose_source(data::ReplicaCatalog& replicas,
                                        const std::vector<site::Site>& sites,
                                        const net::Routing& routing,
                                        ReplicaSelection selection, util::Rng& rng,
                                        data::DatasetId dataset, data::SiteIndex dest) {
  const auto& holders = replicas.locations(dataset);
  std::vector<data::SiteIndex> live;
  ReferenceChoice out;
  for (data::SiteIndex h : holders) {
    if (!sites[h].storage().contains(dataset)) {
      out.invalidated.push_back(h);
      continue;
    }
    if (!sites[h].alive()) continue;
    live.push_back(h);
  }
  for (data::SiteIndex h : out.invalidated) EXPECT_TRUE(replicas.remove(dataset, h));
  if (live.empty()) return out;
  if (selection == ReplicaSelection::Random) {
    out.source = live[rng.index(live.size())];
    return out;
  }
  const bool closest = selection == ReplicaSelection::Closest;
  auto key = [&](data::SiteIndex h) {
    std::size_t hops = routing.hops(h, dest);
    std::size_t load = sites[h].load();
    return closest ? std::make_tuple(hops, load, h) : std::make_tuple(load, hops, h);
  };
  out.source = live.front();
  auto best_key = key(out.source);
  for (data::SiteIndex h : live) {
    auto k = key(h);
    if (k < best_key) {
      out.source = h;
      best_key = k;
    }
  }
  return out;
}

/// Records the holders of CatalogInvalidated events.
class InvalidationLog final : public GridObserver {
 public:
  void on_event(const GridEvent& e) override {
    if (e.type == GridEventType::CatalogInvalidated) holders.push_back(e.site_a);
  }
  std::vector<data::SiteIndex> holders;
};

/// A standalone planner over sites whose storage, liveness and queues a
/// test sets directly. Datasets are 600 MB and sites hold 1000 MB, so a
/// site with one referenced copy can take a second only transiently.
struct SourceWorld {
  SourceWorld(std::size_t n, std::size_t regions, std::size_t datasets,
              ReplicaSelection selection, std::uint64_t seed)
      : topology(net::build_hierarchy({n, regions, 10.0})),
        routing(topology),
        transfers(engine, topology, routing),
        replicas(datasets),
        view(n, datasets) {
    config.num_sites = n;
    config.num_datasets = datasets;
    config.replica_selection = selection;
    config.seed = seed;
    for (std::size_t d = 0; d < datasets; ++d) catalog.add("d" + std::to_string(d), 600.0);
    for (std::size_t s = 0; s < n; ++s) {
      sites.emplace_back(static_cast<data::SiteIndex>(s), 2, 1000.0);
    }
    bus.set_clock([this] { return engine.now(); });
    bus.add_observer(&log);
    replication = std::make_unique<ReplicationDriver>(config, engine, sites, catalog, replicas,
                                                      transfers, view, bus);
    planner = std::make_unique<FetchPlanner>(config, engine, sites, catalog, replicas, routing,
                                             transfers, *replication, bus);
  }

  void set_load(data::SiteIndex s, std::size_t load) {
    while (sites[s].load() < load) sites[s].enqueue(next_job++);
    while (sites[s].load() > load) sites[s].remove_from_queue(sites[s].queue().back());
  }

  SimulationConfig config;
  sim::Engine engine;
  net::Topology topology;
  net::Routing routing;
  net::TransferManager transfers;
  data::DatasetCatalog catalog;
  data::ReplicaCatalog replicas;
  std::vector<site::Site> sites;
  testing::FakeGridView view;
  EventBus bus;
  InvalidationLog log;
  std::unique_ptr<ReplicationDriver> replication;
  std::unique_ptr<FetchPlanner> planner;
  site::JobId next_job = 1;
};

TEST(SourceSelection, MatchesProbeEveryHolderReferenceOnRandomStates) {
  util::Rng gen(4242);
  // How often each edge case came up: every one must be exercised.
  std::size_t live_lie = 0, dead_lie = 0, dead_holder = 0, hop_tie = 0, load_tie = 0,
              transient = 0, no_source = 0, flag_kept = 0;
  for (ReplicaSelection selection : {ReplicaSelection::Closest, ReplicaSelection::Random,
                                     ReplicaSelection::LeastLoadedSource}) {
    for (std::uint64_t trial = 0; trial < 150; ++trial) {
      const std::size_t n = 3 + gen.index(10);
      const std::size_t datasets = 1 + gen.index(3);
      SourceWorld w(n, 1 + gen.index(3), datasets, selection, trial);
      util::Rng reference_rng = util::Rng::substream(trial, "fetch");
      std::vector<std::pair<data::SiteIndex, data::DatasetId>> refs;  ///< jobs' references

      // Each site holds at most one copy. Sites 0..datasets-1 hold the
      // pinned masters, which never go; catalog order is shuffled.
      std::vector<data::SiteIndex> order(n);
      for (std::size_t s = 0; s < n; ++s) order[s] = static_cast<data::SiteIndex>(s);
      gen.shuffle(order);
      for (data::SiteIndex s : order) {
        if (s < datasets) {
          w.sites[s].storage().add_master(s, 600.0);
          w.replicas.add(s, s);
        } else if (gen.chance(0.8)) {
          auto d = static_cast<data::DatasetId>(gen.index(datasets));
          (void)w.sites[s].storage().add_replica(d, 600.0);
          w.replicas.add(d, s);
        }
      }

      for (int round = 0; round < 12; ++round) {
        // Ground truth moves between selections.
        for (data::SiteIndex s = 0; s < n; ++s) {
          if (gen.chance(0.2)) w.sites[s].set_alive(!w.sites[s].alive());
          if (gen.chance(0.4)) w.set_load(s, gen.index(3));
        }
        auto d = static_cast<data::DatasetId>(gen.index(datasets));
        const auto& holders = w.replicas.locations(d);
        if (gen.chance(0.4)) {
          // Catalog loss, as the fault injector does it: the first live
          // holder whose copy can go loses it silently, and the dataset is
          // flagged. A later crash turns it into a lie at a dead holder.
          for (data::SiteIndex h : holders) {
            if (!w.sites[h].alive()) continue;
            if (!w.sites[h].storage().evict(d)) continue;
            w.planner->note_catalog_lie(d);
            break;
          }
        }
        if (gen.chance(0.3)) {
          // A copy lands again at a lying holder: durably when there is
          // room, transiently when the site's other copy is referenced.
          for (data::SiteIndex h : holders) {
            data::StorageManager& storage = w.sites[h].storage();
            if (storage.contains(d)) continue;
            if (storage.entry_count() == 0 && datasets > 1 && gen.chance(0.7)) {
              // Another dataset landed there first, durably and catalogued.
              auto other = static_cast<data::DatasetId>((d + 1) % datasets);
              (void)storage.add_replica(other, 600.0);
              w.replicas.add(other, h);
            }
            for (data::DatasetId other : storage.held()) {
              storage.acquire(other);
              refs.emplace_back(h, other);
            }
            (void)storage.add_replica(d, 600.0);
            if (!storage.holds_durable(d)) {
              ++transient;
              storage.acquire(d);  // the waiting job's reference
              refs.emplace_back(h, d);
            }
            break;
          }
        }
        if (gen.chance(0.3)) {
          // Jobs finish: every reference drops, and transient copies with it.
          for (auto [site, held] : refs) w.sites[site].storage().release(held);
          refs.clear();
        }

        // The selection asks for any dataset: a lie may outlive rounds.
        d = static_cast<data::DatasetId>(gen.index(datasets));
        const auto dest = static_cast<data::SiteIndex>(gen.index(n));
        // Edge-case bookkeeping, on the state both selections see.
        std::vector<std::size_t> hops_seen, loads_seen;
        for (data::SiteIndex h : w.replicas.locations(d)) {
          bool present = w.sites[h].storage().contains(d);
          if (!present && w.sites[h].alive()) ++live_lie;
          if (!present && !w.sites[h].alive()) ++dead_lie;
          if (present && !w.sites[h].alive()) ++dead_holder;
          if (present && w.sites[h].alive()) {
            hops_seen.push_back(w.routing.hops(h, dest));
            loads_seen.push_back(w.sites[h].load());
          }
        }
        std::sort(hops_seen.begin(), hops_seen.end());
        std::sort(loads_seen.begin(), loads_seen.end());
        hop_tie += std::adjacent_find(hops_seen.begin(), hops_seen.end()) != hops_seen.end();
        load_tie += std::adjacent_find(loads_seen.begin(), loads_seen.end()) != loads_seen.end();

        data::ReplicaCatalog expected_catalog = w.replicas;
        ReferenceChoice expected = reference_choose_source(
            expected_catalog, w.sites, w.routing, selection, reference_rng, d, dest);
        w.log.holders.clear();
        const bool was_flagged = w.planner->may_lie(d);
        data::SiteIndex got = w.planner->choose_source(d, dest);

        SCOPED_TRACE(std::string(to_string(selection)) + " trial " + std::to_string(trial) +
                     " round " + std::to_string(round));
        ASSERT_EQ(got, expected.source);
        ASSERT_EQ(w.log.holders, expected.invalidated);
        for (data::DatasetId e = 0; e < datasets; ++e) {
          ASSERT_EQ(w.replicas.locations(e), expected_catalog.locations(e)) << "dataset " << e;
        }
        no_source += got == data::kNoSite ? 1 : 0;
        flag_kept += was_flagged && w.planner->may_lie(d) ? 1 : 0;
        if (!expected.invalidated.empty()) {
          EXPECT_TRUE(was_flagged);
        }
      }
    }
  }
  EXPECT_GT(live_lie, 0u);
  EXPECT_GT(dead_lie, 0u);
  EXPECT_GT(dead_holder, 0u);
  EXPECT_GT(hop_tie, 0u);
  EXPECT_GT(load_tie, 0u);
  EXPECT_GT(transient, 0u);
  EXPECT_GT(no_source, 0u);
  EXPECT_GT(flag_kept, 0u);
}

/// After every grid event, every catalogued holder of a dataset the
/// planner has not flagged holds its copy. ReplicaEvicted is skipped: it is
/// emitted between a batch of storage drops (an eviction round, a crash
/// wipe) and the catalog removals that follow one by one.
class UnflaggedCatalogIsTruthful final : public GridObserver {
 public:
  explicit UnflaggedCatalogIsTruthful(const Grid& grid) : grid_(grid) {}
  void on_event(const GridEvent& e) override {
    if (e.type == GridEventType::ReplicaEvicted) return;
    ++checks;
    const auto& replicas = grid_.replicas();
    for (data::DatasetId d = 0; d < replicas.dataset_count(); ++d) {
      if (grid_.fetch_planner().may_lie(d)) continue;
      for (data::SiteIndex h : replicas.locations(d)) {
        if (!grid_.site_at(h).storage().contains(d)) {
          ++violations;
          ADD_FAILURE() << "unflagged dataset " << d << " catalogued at " << h
                        << " without a copy, t = " << e.time;
        }
      }
    }
  }
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;

 private:
  const Grid& grid_;
};

TEST(SourceSelection, UnflaggedDatasetsNeverLieDuringCatalogLossRuns) {
  for (ReplicaSelection selection : {ReplicaSelection::Closest, ReplicaSelection::Random,
                                     ReplicaSelection::LeastLoadedSource}) {
    for (DsAlgorithm ds : paper_ds_algorithms()) {
      SimulationConfig cfg;
      cfg.ds = ds;
      cfg.es = EsAlgorithm::JobRandom;  // spreads fetches over the grid
      cfg.replica_selection = selection;
      cfg.seed = 53;
      cfg.total_jobs = 1200;
      cfg.storage_capacity_mb = 20000.0;  // eviction and transient pressure
      cfg.fault_site_crash_rate_per_hour = 0.5;
      cfg.fault_site_downtime_s = 1800.0;
      cfg.fault_catalog_loss_rate_per_hour = 120.0;
      SCOPED_TRACE(std::string(to_string(selection)) + " " + to_string(ds));
      Grid grid(cfg);
      UnflaggedCatalogIsTruthful check(grid);
      grid.add_observer(&check);
      grid.run();
      EXPECT_GT(grid.fault_stats().catalog_corruptions, 0u);
      EXPECT_GT(grid.metrics().catalog_invalidations, 0u);
      EXPECT_GT(check.checks, 0u);
      EXPECT_EQ(check.violations, 0u);
    }
  }
}

}  // namespace
}  // namespace chicsim::core
