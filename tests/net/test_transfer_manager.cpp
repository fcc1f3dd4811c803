#include "net/transfer_manager.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace chicsim::net {
namespace {

struct World {
  explicit World(Topology t, SharePolicy policy = SharePolicy::EqualShare,
                 ReallocationMode mode = ReallocationMode::Incremental)
      : topo(std::move(t)), routing(topo), tm(engine, topo, routing, policy, mode) {}

  sim::Engine engine;
  Topology topo;
  Routing routing;
  TransferManager tm;
};

World star_world(std::size_t sites, double bw, SharePolicy policy = SharePolicy::EqualShare) {
  return World(build_star(sites, bw), policy);
}

TEST(TransferManager, SingleTransferTakesSizeOverBandwidth) {
  World w = star_world(3, 10.0);
  double done_at = -1.0;
  w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { done_at = w.engine.now(); });
  w.engine.run();
  // 1000 MB over a 2-hop path whose bottleneck is 10 MB/s -> 100 s.
  EXPECT_NEAR(done_at, 100.0, 1e-6);
}

TEST(TransferManager, CoLocatedEndpointsAreRejected) {
  // A local input never touches the network (the fetch planner reads it
  // from storage), so a transfer to its own source is a caller bug.
  World w = star_world(2, 10.0);
  EXPECT_THROW((void)w.tm.start(1, 1, 500.0, TransferPurpose::JobFetch, [](TransferId) {}),
               util::SimError);
  EXPECT_EQ(w.tm.active_count(), 0u);
  EXPECT_EQ(w.tm.stats().transfers_started, 0u);
}

TEST(TransferManager, OutOfRangeEndpointIsRejectedBeforeAnyState) {
  World w = star_world(2, 10.0);
  EXPECT_THROW((void)w.tm.start(0, 99, 500.0, TransferPurpose::JobFetch, [](TransferId) {}),
               util::SimError);
  EXPECT_EQ(w.tm.stats().transfers_started, 0u);
  // The manager is still whole: the next transfer runs normally.
  double done_at = -1.0;
  w.tm.start(0, 1, 100.0, TransferPurpose::JobFetch, [&](TransferId) { done_at = w.engine.now(); });
  w.engine.run();
  EXPECT_NEAR(done_at, 10.0, 1e-9);
  EXPECT_EQ(w.tm.active_count(), 0u);
}

TEST(TransferManager, TwoFlowsOnSharedLinkHalveBandwidth) {
  World w = star_world(3, 10.0);
  // Both flows leave site 0, sharing the site0-hub link.
  std::map<TransferId, double> done;
  TransferId t1 =
      w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch,
                 [&](TransferId id) { done[id] = w.engine.now(); });
  TransferId t2 =
      w.tm.start(0, 2, 1000.0, TransferPurpose::JobFetch,
                 [&](TransferId id) { done[id] = w.engine.now(); });
  EXPECT_NEAR(w.tm.current_rate(t1), 5.0, 1e-9);
  EXPECT_NEAR(w.tm.current_rate(t2), 5.0, 1e-9);
  w.engine.run();
  EXPECT_NEAR(done[t1], 200.0, 1e-6);
  EXPECT_NEAR(done[t2], 200.0, 1e-6);
}

TEST(TransferManager, RatesRecoverWhenAFlowFinishes) {
  World w = star_world(3, 10.0);
  double done_small = -1.0;
  double done_big = -1.0;
  w.tm.start(0, 1, 250.0, TransferPurpose::JobFetch,
             [&](TransferId) { done_small = w.engine.now(); });
  w.tm.start(0, 2, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { done_big = w.engine.now(); });
  w.engine.run();
  // Shared phase at 5 MB/s: small done at t=50 with 750 MB left on big;
  // big then runs at 10 MB/s: 50 + 75 = 125 s.
  EXPECT_NEAR(done_small, 50.0, 1e-6);
  EXPECT_NEAR(done_big, 125.0, 1e-6);
}

TEST(TransferManager, LateArrivalSlowsExistingFlow) {
  World w = star_world(3, 10.0);
  double done_first = -1.0;
  w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { done_first = w.engine.now(); });
  w.engine.schedule_at(50.0, [&] {
    w.tm.start(0, 2, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
  });
  w.engine.run();
  // 50 s alone (500 MB), then 500 MB at 5 MB/s = 100 s -> 150 s.
  EXPECT_NEAR(done_first, 150.0, 1e-6);
}

TEST(TransferManager, DisjointPathsDoNotInterfere) {
  World w(build_hierarchy({6, 3, 10.0}));
  // Sites 0 and 3 share region0; sites 1 and 4 share region1. The two
  // transfers use disjoint two-hop paths.
  double d1 = -1.0;
  double d2 = -1.0;
  w.tm.start(0, 3, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { d1 = w.engine.now(); });
  w.tm.start(1, 4, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { d2 = w.engine.now(); });
  w.engine.run();
  EXPECT_NEAR(d1, 100.0, 1e-6);
  EXPECT_NEAR(d2, 100.0, 1e-6);
}

TEST(TransferManager, NoContentionPolicyIgnoresSharing) {
  World w = star_world(3, 10.0, SharePolicy::NoContention);
  double d1 = -1.0;
  double d2 = -1.0;
  w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { d1 = w.engine.now(); });
  w.tm.start(0, 2, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { d2 = w.engine.now(); });
  w.engine.run();
  EXPECT_NEAR(d1, 100.0, 1e-6);
  EXPECT_NEAR(d2, 100.0, 1e-6);
}

TEST(TransferManager, MaxMinMatchesEqualShareOnSymmetricPattern) {
  // Star with hub; flows: A: 0->1, B: 0->2, C: 3->1 (all links 10 MB/s).
  // Water-filling freezes everything at 5 MB/s (L0 and L1 saturate with
  // two flows each and every flow crosses one of them) — identical to the
  // equal-share allocation on this symmetric pattern.
  World w = star_world(4, 10.0, SharePolicy::MaxMin);
  TransferId a = w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
  TransferId b = w.tm.start(0, 2, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
  TransferId c = w.tm.start(3, 1, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
  EXPECT_NEAR(w.tm.current_rate(a), 5.0, 1e-9);
  EXPECT_NEAR(w.tm.current_rate(b), 5.0, 1e-9);
  EXPECT_NEAR(w.tm.current_rate(c), 5.0, 1e-9);
  w.engine.run();
}

TEST(TransferManager, MaxMinGivesUnbottleneckedFlowTheSlack) {
  // Flows: A: 0->1, C: 3->1, D: 3->1 duplicate path via second id,
  // B: 0->2. Link 1-hub carries A, C, D; link 0-hub carries A and B.
  // Equal share: B = min(10/2, 10) = 5 MB/s.
  // Max-min: fill to 10/3; L1 saturates freezing A, C, D; B then rises to
  // 10 - 10/3 = 6.67 MB/s on L0.
  World eq = star_world(4, 10.0, SharePolicy::EqualShare);
  World mm = star_world(4, 10.0, SharePolicy::MaxMin);
  auto build = [](World& w) {
    w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
    w.tm.start(3, 1, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
    w.tm.start(3, 1, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
    return w.tm.start(0, 2, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
  };
  TransferId f_eq = build(eq);
  TransferId f_mm = build(mm);
  EXPECT_NEAR(eq.tm.current_rate(f_eq), 5.0, 1e-9);
  EXPECT_NEAR(mm.tm.current_rate(f_mm), 10.0 - 10.0 / 3.0, 1e-9);
  eq.engine.run();
  mm.engine.run();
}

// Property: at audit instants under random concurrent load, the sum of
// flow rates crossing each link never exceeds its capacity, and every
// active remote flow has a positive rate (both policies).
TEST(TransferManager, PropertyLinkCapacityNeverExceeded) {
  struct LiveFlow {
    TransferId id;
    NodeId src;
    NodeId dst;
  };
  for (SharePolicy policy : {SharePolicy::EqualShare, SharePolicy::MaxMin}) {
    World w(build_hierarchy({10, 3, 10.0}), policy);
    util::Rng rng(7);
    auto live = std::make_shared<std::vector<LiveFlow>>();
    for (int i = 0; i < 40; ++i) {
      double at = rng.uniform(0.0, 200.0);
      auto src = static_cast<NodeId>(rng.index(10));
      NodeId dst = src;
      while (dst == src) dst = static_cast<NodeId>(rng.index(10));
      double size = rng.uniform(100.0, 2000.0);
      w.engine.schedule_at(at, [&w, live, src, dst, size] {
        TransferId id = w.tm.start(src, dst, size, TransferPurpose::JobFetch,
                                   [live](TransferId done) {
                                     std::erase_if(*live, [done](const LiveFlow& f) {
                                       return f.id == done;
                                     });
                                   });
        live->push_back(LiveFlow{id, src, dst});
      });
    }
    int audits = 0;
    for (double t = 10.0; t < 600.0; t += 10.0) {
      w.engine.schedule_at(t, [&w, live, &audits] {
        std::vector<double> link_rate(w.topo.link_count(), 0.0);
        for (const LiveFlow& f : *live) {
          double rate = w.tm.current_rate(f.id);
          EXPECT_GT(rate, 0.0);
          for (LinkId l : w.routing.path(f.src, f.dst)) link_rate[l] += rate;
        }
        for (LinkId l = 0; l < w.topo.link_count(); ++l) {
          EXPECT_LE(link_rate[l], w.topo.link(l).bandwidth_mbps + 1e-6);
        }
        ++audits;
      });
    }
    w.engine.run();
    EXPECT_GT(audits, 0);
    EXPECT_EQ(w.tm.active_count(), 0u);
    EXPECT_EQ(w.tm.stats().transfers_completed, w.tm.stats().transfers_started);
  }
}

// Property: total delivered megabytes equal the sum of requested sizes for
// remote transfers, under random concurrent load.
TEST(TransferManager, PropertyDeliveredBytesMatchRequests) {
  World w(build_hierarchy({8, 2, 25.0}));
  util::Rng rng(11);
  double expected_mb = 0.0;
  for (int i = 0; i < 60; ++i) {
    double at = rng.uniform(0.0, 100.0);
    auto src = static_cast<NodeId>(rng.index(8));
    NodeId dst = src;
    while (dst == src) dst = static_cast<NodeId>(rng.index(8));
    double size = rng.uniform(10.0, 500.0);
    expected_mb += size;
    w.engine.schedule_at(at, [&w, src, dst, size] {
      w.tm.start(src, dst, size, TransferPurpose::JobFetch, [](TransferId) {});
    });
  }
  w.engine.run();
  EXPECT_NEAR(w.tm.stats().total_delivered_mb(), expected_mb, 1e-3);
  // mb-hops is at least total mb (every remote path has >= 1 link; here 2+).
  EXPECT_GE(w.tm.stats().delivered_mb_hops, expected_mb);
}

TEST(TransferManager, PurposeAccounting) {
  World w = star_world(3, 10.0);
  w.tm.start(0, 1, 100.0, TransferPurpose::JobFetch, [](TransferId) {});
  w.tm.start(0, 2, 300.0, TransferPurpose::Replication, [](TransferId) {});
  w.engine.run();
  const auto& s = w.tm.stats();
  EXPECT_NEAR(s.delivered_mb[static_cast<std::size_t>(TransferPurpose::JobFetch)], 100.0,
              1e-6);
  EXPECT_NEAR(s.delivered_mb[static_cast<std::size_t>(TransferPurpose::Replication)], 300.0,
              1e-6);
}

TEST(TransferManager, LinkBusyTimeAccumulates) {
  World w = star_world(3, 10.0);
  w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
  w.engine.run();
  // Path uses links 0 (site0-hub) and 1 (site1-hub) for 100 s each.
  double busy0 = w.tm.link_busy_time(0);
  double busy1 = w.tm.link_busy_time(1);
  EXPECT_NEAR(busy0, 100.0, 1e-6);
  EXPECT_NEAR(busy1, 100.0, 1e-6);
  EXPECT_NEAR(w.tm.link_busy_time(2), 0.0, 1e-9);
}

TEST(TransferManager, CompletionCallbackCanStartNewTransfer) {
  World w = star_world(3, 10.0);
  double second_done = -1.0;
  w.tm.start(0, 1, 100.0, TransferPurpose::JobFetch, [&](TransferId) {
    w.tm.start(1, 2, 100.0, TransferPurpose::JobFetch,
               [&](TransferId) { second_done = w.engine.now(); });
  });
  w.engine.run();
  EXPECT_NEAR(second_done, 20.0, 1e-6);  // 10 + 10 seconds
}

TEST(TransferManager, ZeroSizeTransferCompletesImmediately) {
  World w = star_world(2, 10.0);
  double done = -1.0;
  w.tm.start(0, 1, 0.0, TransferPurpose::Other, [&](TransferId) { done = w.engine.now(); });
  w.engine.run();
  EXPECT_NEAR(done, 0.0, 1e-9);
}

TEST(TransferManager, NegativeSizeThrows) {
  World w = star_world(2, 10.0);
  EXPECT_THROW(w.tm.start(0, 1, -1.0, TransferPurpose::Other, [](TransferId) {}),
               util::SimError);
}

TEST(TransferManager, MissingCallbackThrows) {
  World w = star_world(2, 10.0);
  EXPECT_THROW(w.tm.start(0, 1, 1.0, TransferPurpose::Other, TransferManager::CompletionFn{}),
               util::SimError);
}

TEST(TransferManager, DegradationSlowsInFlightTransfer) {
  World w = star_world(2, 10.0);
  double done = -1.0;
  w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { done = w.engine.now(); });
  // Halve the first link's bandwidth after 50 s: 500 MB moved, then
  // 500 MB at 5 MB/s -> finish at 150 s.
  w.engine.schedule_at(50.0, [&] { w.tm.set_bandwidth_scale(0, 0.5); });
  w.engine.run();
  EXPECT_NEAR(done, 150.0, 1e-6);
  EXPECT_DOUBLE_EQ(w.tm.bandwidth_scale(0), 0.5);
}

TEST(TransferManager, RestorationSpeedsTransferBackUp) {
  World w = star_world(2, 10.0);
  double done = -1.0;
  w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { done = w.engine.now(); });
  w.engine.schedule_at(0.0, [&] { w.tm.set_bandwidth_scale(0, 0.1); });
  // 40 s at 1 MB/s = 40 MB, then restored: 960 MB at 10 MB/s = 96 s.
  w.engine.schedule_at(40.0, [&] { w.tm.set_bandwidth_scale(0, 1.0); });
  w.engine.run();
  EXPECT_NEAR(done, 136.0, 1e-6);
}

TEST(TransferManager, DegradationAppliesToAllPolicies) {
  for (SharePolicy policy :
       {SharePolicy::EqualShare, SharePolicy::MaxMin, SharePolicy::NoContention}) {
    World w = star_world(2, 10.0, policy);
    double done = -1.0;
    w.tm.start(0, 1, 100.0, TransferPurpose::JobFetch,
               [&](TransferId) { done = w.engine.now(); });
    w.engine.schedule_at(0.0, [&] { w.tm.set_bandwidth_scale(0, 0.5); });
    w.engine.run();
    EXPECT_NEAR(done, 20.0, 1e-6);  // 100 MB at 5 MB/s
  }
}

TEST(TransferManager, InvalidScaleRejected) {
  World w = star_world(2, 10.0);
  EXPECT_THROW(w.tm.set_bandwidth_scale(0, 0.0), util::SimError);
  EXPECT_THROW(w.tm.set_bandwidth_scale(0, -1.0), util::SimError);
  EXPECT_THROW(w.tm.set_bandwidth_scale(99, 0.5), util::SimError);
}

TEST(TransferManager, RemainingMbTracksProgress) {
  World w = star_world(2, 10.0);
  TransferId id = w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
  w.engine.run_until(30.0);
  EXPECT_NEAR(w.tm.remaining_mb(id), 700.0, 1e-6);
  EXPECT_TRUE(w.tm.active(id));
  w.engine.run();
  EXPECT_FALSE(w.tm.active(id));
}

TEST(TransferManager, IncrementalSkipsFlowsOnDisjointPaths) {
  // Sites 0,3 share region 0; sites 1,4 share region 1: the two transfers
  // use disjoint two-hop paths, so neither start nor finish of the second
  // flow may touch the first flow's rate or completion event.
  World w(build_hierarchy({6, 3, 10.0}));
  double d1 = -1.0;
  double d2 = -1.0;
  w.tm.start(0, 3, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { d1 = w.engine.now(); });
  w.engine.schedule_at(50.0, [&] {
    w.tm.start(1, 4, 1000.0, TransferPurpose::JobFetch,
               [&](TransferId) { d2 = w.engine.now(); });
  });
  w.engine.run();
  EXPECT_NEAR(d1, 100.0, 1e-6);
  EXPECT_NEAR(d2, 150.0, 1e-6);
  const auto& s = w.tm.stats();
  // Each flow was rescheduled exactly once (at its own start). The other
  // flow's start/finish reallocations skip it without even recomputing its
  // rate: once when flow 2 starts, once when flow 1 finishes.
  EXPECT_EQ(s.flows_rescheduled, 2u);
  EXPECT_EQ(s.rate_recomputes_skipped, 2u);
  EXPECT_EQ(s.reschedules_skipped, 0u);
}

TEST(TransferManager, FullModeKeepsEventWhenRateIsUnchanged) {
  // NoContention: each flow runs at the bottleneck capacity regardless of
  // sharing, so the second start recomputes the first flow's rate (Full
  // recomputes everything) but finds it unchanged and keeps the event.
  World w(build_star(3, 10.0), SharePolicy::NoContention, ReallocationMode::Full);
  double d1 = -1.0;
  w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { d1 = w.engine.now(); });
  w.engine.schedule_at(10.0, [&] {
    w.tm.start(0, 2, 500.0, TransferPurpose::JobFetch, [](TransferId) {});
  });
  w.engine.run();
  EXPECT_NEAR(d1, 100.0, 1e-6);
  const auto& s = w.tm.stats();
  EXPECT_EQ(s.flows_rescheduled, 2u);      // one initial schedule per flow
  EXPECT_GE(s.reschedules_skipped, 2u);    // flow 1 kept at start+finish of flow 2
  EXPECT_EQ(s.rate_recomputes_skipped, 0u);  // Full never skips the recompute
}

TEST(TransferManager, ModesAgreeOnCompletionTimes) {
  for (SharePolicy policy :
       {SharePolicy::EqualShare, SharePolicy::MaxMin, SharePolicy::NoContention}) {
    std::vector<std::vector<double>> completions;
    for (ReallocationMode mode : {ReallocationMode::Full, ReallocationMode::Incremental}) {
      World w(build_hierarchy({10, 3, 10.0}), policy, mode);
      util::Rng rng(21);
      auto done = std::make_shared<std::vector<double>>();
      for (int i = 0; i < 40; ++i) {
        double at = rng.uniform(0.0, 200.0);
        auto src = static_cast<NodeId>(rng.index(10));
        NodeId dst = src;
        while (dst == src) dst = static_cast<NodeId>(rng.index(10));
        double size = rng.uniform(100.0, 2000.0);
        w.engine.schedule_at(at, [&w, done, src, dst, size] {
          w.tm.start(src, dst, size, TransferPurpose::JobFetch,
                     [&w, done](TransferId) { done->push_back(w.engine.now()); });
        });
      }
      w.engine.run();
      EXPECT_EQ(done->size(), 40u);
      completions.push_back(*done);
    }
    // Full and Incremental are bit-identical.
    ASSERT_EQ(completions[0].size(), completions[1].size());
    for (std::size_t i = 0; i < completions[0].size(); ++i) {
      EXPECT_DOUBLE_EQ(completions[0][i], completions[1][i]);
    }
  }
}

}  // namespace
}  // namespace chicsim::net
