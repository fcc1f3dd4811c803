// Engine microbenchmarks (google-benchmark): event calendar throughput,
// transfer-manager rate reallocation under churn, and end-to-end simulation
// cost for the Table 1 scenario. These quantify the substrate, not the
// paper's results.
//
// Invoked with --engine-json=PATH the binary skips google-benchmark and
// instead runs the transfer-churn workload once per reallocation mode
// (Full / Incremental), timing each with std::chrono and writing a
// machine-readable JSON report (events/sec, flows/sec, calendar counts,
// peak pending events). Its gate is exact, not timed: calendar_work_ratio
// is the number of flows Incremental walked divided by the calendar pushes
// it made, i.e. how much calendar work skipping unchanged flows saves over
// rescheduling every walked flow. scripts/bench_report.sh uses this to
// produce BENCH_engine.json; the process exits non-zero if the ratio falls
// below 2.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "data/storage.hpp"
#include "net/transfer_manager.hpp"
#include "sim/engine.hpp"
#include "sim/profiler.hpp"
#include "util/rng.hpp"

namespace {

using namespace chicsim;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<double> times(n);
  for (auto& t : times) t = rng.uniform(0.0, 1e6);
  for (auto _ : state) {
    sim::EventQueue q;
    for (double t : times) q.push(t, [] {});
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_EngineEventChain(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t count = 0;
    std::function<void()> chain = [&] {
      if (++count < n) engine.schedule_in(1.0, chain);
    };
    engine.schedule_at(0.0, chain);
    engine.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineEventChain)->Arg(10000);

void BM_TransferChurn(benchmark::State& state) {
  // Many concurrent flows over the Table 1 hierarchy; measures the cost of
  // the fluid model's settle + reallocate cycle.
  const auto flows = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    net::Topology topo = net::build_hierarchy({30, 6, 10.0});
    net::Routing routing(topo);
    net::TransferManager tm(engine, topo, routing);
    util::Rng rng(3);
    for (std::size_t i = 0; i < flows; ++i) {
      auto src = static_cast<net::NodeId>(rng.index(30));
      net::NodeId dst = src;
      while (dst == src) dst = static_cast<net::NodeId>(rng.index(30));
      tm.start(src, dst, rng.uniform(100.0, 2000.0), net::TransferPurpose::JobFetch,
               [](net::TransferId) {});
    }
    engine.run();
    benchmark::DoNotOptimize(tm.stats().transfers_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows));
}
BENCHMARK(BM_TransferChurn)->Arg(64)->Arg(512);

void BM_MaxMinAllocation(benchmark::State& state) {
  // Same churn as BM_TransferChurn under the water-filling allocator.
  const auto flows = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    net::Topology topo = net::build_hierarchy({30, 6, 10.0});
    net::Routing routing(topo);
    net::TransferManager tm(engine, topo, routing, net::SharePolicy::MaxMin);
    util::Rng rng(5);
    for (std::size_t i = 0; i < flows; ++i) {
      auto src = static_cast<net::NodeId>(rng.index(30));
      net::NodeId dst = src;
      while (dst == src) dst = static_cast<net::NodeId>(rng.index(30));
      tm.start(src, dst, rng.uniform(100.0, 2000.0), net::TransferPurpose::JobFetch,
               [](net::TransferId) {});
    }
    engine.run();
    benchmark::DoNotOptimize(tm.stats().transfers_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows));
}
BENCHMARK(BM_MaxMinAllocation)->Arg(256);

void BM_StorageLruChurn(benchmark::State& state) {
  // Hot-path storage operations at the churn rate a stressed site sees.
  const auto ops = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    data::StorageManager storage(10000.0);
    util::Rng rng(7);
    for (std::size_t i = 0; i < ops; ++i) {
      auto id = static_cast<data::DatasetId>(rng.index(64));
      if (storage.lookup(id)) {
        storage.touch(id);
      } else {
        benchmark::DoNotOptimize(storage.add_replica(id, rng.uniform(500.0, 2000.0)));
      }
    }
    benchmark::DoNotOptimize(storage.stats().evictions);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_StorageLruChurn)->Arg(4096);

void BM_FullSimulation(benchmark::State& state) {
  // One complete Table 1 run (6000 jobs), JobDataPresent + DataLeastLoaded.
  for (auto _ : state) {
    core::SimulationConfig cfg;
    cfg.total_jobs = static_cast<std::size_t>(state.range(0));
    cfg.es = core::EsAlgorithm::JobDataPresent;
    cfg.ds = core::DsAlgorithm::DataLeastLoaded;
    core::Grid grid(cfg);
    grid.run();
    benchmark::DoNotOptimize(grid.metrics().jobs_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FullSimulation)->Arg(6000)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --engine-json mode: A/B the reallocation modes on the churn workload.

/// One timed run of the transfer-churn workload under a reallocation mode.
struct ChurnResult {
  double wall_s = 0.0;
  std::uint64_t events_executed = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t event_pushes = 0;
  std::uint64_t event_cancels = 0;
  std::uint64_t peak_heap_size = 0;
  std::uint64_t flows_rescheduled = 0;
  std::uint64_t reschedules_skipped = 0;
  std::uint64_t rate_recomputes_skipped = 0;

  [[nodiscard]] double events_per_sec() const {
    return static_cast<double>(events_executed) / wall_s;
  }
  [[nodiscard]] double flows_per_sec() const {
    return static_cast<double>(flows_completed) / wall_s;
  }
  /// Every flow reallocate() looked at: rescheduled, kept, or skipped at
  /// the dirty-link check.
  [[nodiscard]] std::uint64_t flows_walked() const {
    return flows_rescheduled + reschedules_skipped + rate_recomputes_skipped;
  }
};

/// The BM_TransferChurn workload (same topology, seed, and flow mix), run
/// once per call; every start and completion reallocates over all active
/// flows.
ChurnResult run_churn_once(net::ReallocationMode mode, std::size_t flows) {
  sim::Engine engine;
  net::Topology topo = net::build_hierarchy({30, 6, 10.0});
  net::Routing routing(topo);
  net::TransferManager tm(engine, topo, routing, net::SharePolicy::EqualShare, mode);
  util::Rng rng(3);
  for (std::size_t i = 0; i < flows; ++i) {
    auto src = static_cast<net::NodeId>(rng.index(30));
    net::NodeId dst = src;
    while (dst == src) dst = static_cast<net::NodeId>(rng.index(30));
    tm.start(src, dst, rng.uniform(100.0, 2000.0), net::TransferPurpose::JobFetch,
             [](net::TransferId) {});
  }
  // detlint: allow(wall-clock): benchmark harness measures throughput; the simulated run is unaffected
  auto t0 = std::chrono::steady_clock::now();
  engine.run();
  auto t1 = std::chrono::steady_clock::now();

  ChurnResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events_executed = engine.events_executed();
  r.flows_completed = tm.stats().transfers_completed;
  r.event_pushes = engine.queue().total_pushes();
  r.event_cancels = engine.queue().total_cancels();
  r.peak_heap_size = engine.queue().peak_heap_size();
  r.flows_rescheduled = tm.stats().flows_rescheduled;
  r.reschedules_skipped = tm.stats().reschedules_skipped;
  r.rate_recomputes_skipped = tm.stats().rate_recomputes_skipped;
  return r;
}

/// Best-of-N timing (counters are identical across repeats; the run with
/// the least wall-clock noise wins).
ChurnResult run_churn(net::ReallocationMode mode, std::size_t flows, int repeats) {
  ChurnResult best = run_churn_once(mode, flows);
  for (int i = 1; i < repeats; ++i) {
    ChurnResult r = run_churn_once(mode, flows);
    if (r.wall_s < best.wall_s) best = r;
  }
  return best;
}

void write_mode_json(std::ofstream& out, const char* key, const ChurnResult& r,
                     const char* trailing_comma) {
  out << "    \"" << key << "\": {\n"
      << "      \"wall_s\": " << r.wall_s << ",\n"
      << "      \"events_executed\": " << r.events_executed << ",\n"
      << "      \"events_per_sec\": " << r.events_per_sec() << ",\n"
      << "      \"flows_completed\": " << r.flows_completed << ",\n"
      << "      \"flows_per_sec\": " << r.flows_per_sec() << ",\n"
      << "      \"event_pushes\": " << r.event_pushes << ",\n"
      << "      \"event_cancels\": " << r.event_cancels << ",\n"
      << "      \"peak_heap_size\": " << r.peak_heap_size << ",\n"
      << "      \"flows_rescheduled\": " << r.flows_rescheduled << ",\n"
      << "      \"reschedules_skipped\": " << r.reschedules_skipped << ",\n"
      << "      \"rate_recomputes_skipped\": " << r.rate_recomputes_skipped << "\n"
      << "    }" << trailing_comma << "\n";
}

/// One profiled full Table-1 simulation: returns the EngineProfiler's JSON
/// report (per-event-type handler-time breakdown plus events/sec) for the
/// "profile" section of BENCH_engine.json.
std::string run_profiled_simulation() {
  core::SimulationConfig cfg;
  cfg.es = core::EsAlgorithm::JobDataPresent;
  cfg.ds = core::DsAlgorithm::DataLeastLoaded;
  core::Grid grid(cfg);
  sim::EngineProfiler profiler;
  grid.engine().set_profiler(&profiler);
  grid.run();
  std::printf("\nprofiled full simulation (%zu jobs, JobDataPresent+DataLeastLoaded):\n%s",
              cfg.total_jobs, profiler.render_table().c_str());
  std::ostringstream os;
  profiler.write_json(os);
  std::string json = os.str();
  while (!json.empty() && (json.back() == '\n' || json.back() == ' ')) json.pop_back();
  return json;
}

int run_engine_json(const std::string& path) {
  constexpr std::size_t kFlows = 2048;
  constexpr int kRepeats = 3;
  std::printf("transfer-churn A/B (%zu flows, hierarchy 30x6 @ 10 MB/s, best of %d)\n",
              kFlows, kRepeats);

  ChurnResult full = run_churn(net::ReallocationMode::Full, kFlows, kRepeats);
  ChurnResult incr = run_churn(net::ReallocationMode::Incremental, kFlows, kRepeats);

  auto report = [](const char* name, const ChurnResult& r) {
    std::printf(
        "  %-12s %8.3f s  %12.0f events/s  %9.0f flows/s  pushes %8llu  peak heap %6llu\n",
        name, r.wall_s, r.events_per_sec(), r.flows_per_sec(),
        static_cast<unsigned long long>(r.event_pushes),
        static_cast<unsigned long long>(r.peak_heap_size));
  };
  report("full", full);
  report("incremental", incr);

  const double work_ratio =
      static_cast<double>(incr.flows_walked()) / static_cast<double>(incr.event_pushes);
  const bool pass = work_ratio >= 2.0;
  std::printf("calendar work ratio (flows walked / pushes): %.2f  [%s] (target: >= 2)\n",
              work_ratio, pass ? "PASS" : "FAIL");

  std::string profile_json = run_profiled_simulation();

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write --engine-json file: %s\n", path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"transfer_churn\",\n"
      << "  \"flows\": " << kFlows << ",\n"
      << "  \"repeats\": " << kRepeats << ",\n"
      << "  \"topology\": {\"sites\": 30, \"sites_per_region\": 6, "
         "\"bandwidth_mbps\": 10.0},\n"
      << "  \"modes\": {\n";
  write_mode_json(out, "full", full, ",");
  write_mode_json(out, "incremental", incr, "");
  out << "  },\n"
      << "  \"profile\": " << profile_json << ",\n"
      << "  \"flows_walked\": " << incr.flows_walked() << ",\n"
      << "  \"calendar_work_ratio\": " << work_ratio << ",\n"
      << "  \"pass_2x\": " << (pass ? "true" : "false") << "\n"
      << "}\n";
  std::printf("engine report written to %s\n", path.c_str());
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const std::string prefix = "--engine-json=";
    if (arg.rfind(prefix, 0) == 0) return run_engine_json(arg.substr(prefix.size()));
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
