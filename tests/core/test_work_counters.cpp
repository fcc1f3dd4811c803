// Deterministic work counters pinned to committed values.
//
// Event, calendar and reallocation counts are pure functions of the
// configuration and seed, so unlike wall time they gate exactly: any change
// to how much work the engine or the network does shows up here as a diff.
// A change that alters them on purpose re-captures the values and says why.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/grid.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/transfer_manager.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace chicsim::core {
namespace {

struct WorkCounters {
  std::uint64_t events_executed = 0;
  std::uint64_t event_pushes = 0;
  std::uint64_t event_cancels = 0;
  std::uint64_t peak_heap_size = 0;
  std::uint64_t reallocations = 0;
  std::uint64_t flows_rescheduled = 0;
  std::uint64_t reschedules_skipped = 0;
  std::uint64_t rate_recomputes_skipped = 0;
};

void expect_counters(const WorkCounters& got, const WorkCounters& want) {
  EXPECT_EQ(got.events_executed, want.events_executed);
  EXPECT_EQ(got.event_pushes, want.event_pushes);
  EXPECT_EQ(got.event_cancels, want.event_cancels);
  EXPECT_EQ(got.peak_heap_size, want.peak_heap_size);
  EXPECT_EQ(got.reallocations, want.reallocations);
  EXPECT_EQ(got.flows_rescheduled, want.flows_rescheduled);
  EXPECT_EQ(got.reschedules_skipped, want.reschedules_skipped);
  EXPECT_EQ(got.rate_recomputes_skipped, want.rate_recomputes_skipped);
}

TEST(WorkCounters, Table1JobDataPresentDataLeastLoaded) {
  SimulationConfig cfg;
  cfg.es = EsAlgorithm::JobDataPresent;
  cfg.ds = DsAlgorithm::DataLeastLoaded;
  cfg.seed = 101;
  Grid grid(cfg);
  grid.run();
  const RunMetrics& m = grid.metrics();
  expect_counters({m.events_executed, m.event_pushes, m.event_cancels, m.peak_heap_size,
                   m.reallocations, m.flows_rescheduled, m.reschedules_skipped,
                   m.rate_recomputes_skipped},
                  {12628, 14031, 1402, 121, 814, 1808, 819, 2306});
}

// The transfer-churn workload of bench_micro_engine --engine-json: 2048
// flows over the Table 1 hierarchy, all started at t=0, Incremental mode.
// Every completion reallocates, so flows walked (the three flow counters
// summed) is 2048^2 = 4194304 — what reschedule-everything would push.
TEST(WorkCounters, TransferChurn2048Flows) {
  sim::Engine engine;
  net::Topology topo = net::build_hierarchy({30, 6, 10.0});
  net::Routing routing(topo);
  net::TransferManager tm(engine, topo, routing);
  util::Rng rng(3);
  for (int i = 0; i < 2048; ++i) {
    auto src = static_cast<net::NodeId>(rng.index(30));
    net::NodeId dst = src;
    while (dst == src) dst = static_cast<net::NodeId>(rng.index(30));
    tm.start(src, dst, rng.uniform(100.0, 2000.0), net::TransferPurpose::JobFetch,
             [](net::TransferId) {});
  }
  engine.run();
  const net::TransferStats& s = tm.stats();
  EXPECT_EQ(s.transfers_completed, 2048u);
  EXPECT_EQ(s.flows_rescheduled + s.reschedules_skipped + s.rate_recomputes_skipped,
            2048u * 2048u);
  expect_counters({engine.events_executed(), engine.queue().total_pushes(),
                   engine.queue().total_cancels(), engine.queue().peak_heap_size(),
                   s.reallocations, s.flows_rescheduled, s.reschedules_skipped,
                   s.rate_recomputes_skipped},
                  {2048, 1094294, 1092246, 2048, 4096, 1094294, 952930, 2147080});
}

}  // namespace
}  // namespace chicsim::core
