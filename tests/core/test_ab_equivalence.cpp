// A/B equivalence of the TransferManager reallocation modes.
//
// Full recomputes every flow's rate and only reschedules flows whose rate
// changed; Incremental additionally skips the rate recomputation for flows
// crossing no dirty link. For EqualShare / NoContention a flow's rate is a
// pure function of the capacities and flow counts on its own path, so the
// two modes must agree bit-for-bit — asserted here over the paper's full
// 4x3 algorithm matrix, per seed, with exact (==) double comparisons.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "net/transfer_manager.hpp"

namespace chicsim::core {
namespace {

SimulationConfig tiny_config() {
  SimulationConfig cfg;
  cfg.num_users = 8;
  cfg.num_sites = 4;
  cfg.num_regions = 2;
  cfg.num_datasets = 20;
  cfg.total_jobs = 64;
  cfg.storage_capacity_mb = 15000.0;
  cfg.replication_threshold = 3.0;
  return cfg;
}

/// Exact equality on every RunMetrics field except the two skip counters
/// (rate_recomputes_skipped and reschedules_skipped), which differ between
/// modes by design: a flow skipped at the dirty-link check in Incremental
/// never reaches the unchanged-rate check that Full counts it under. Their
/// sum is conserved, which the matrix test asserts separately.
void expect_bit_identical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.avg_response_time_s, b.avg_response_time_s);
  EXPECT_EQ(a.p95_response_time_s, b.p95_response_time_s);
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
  // The calendar traffic itself must match: same events, same cancels,
  // same peak heap, same compaction schedule.
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.event_pushes, b.event_pushes);
  EXPECT_EQ(a.event_cancels, b.event_cancels);
  EXPECT_EQ(a.peak_heap_size, b.peak_heap_size);
  EXPECT_EQ(a.queue_compactions, b.queue_compactions);
  EXPECT_EQ(a.reallocations, b.reallocations);
  EXPECT_EQ(a.flows_rescheduled, b.flows_rescheduled);
}

TEST(AbEquivalence, FullAndIncrementalBitIdenticalAcrossPaperMatrix) {
  SimulationConfig ref_cfg = tiny_config();
  ref_cfg.realloc_mode = net::ReallocationMode::Full;
  SimulationConfig opt_cfg = tiny_config();
  opt_cfg.realloc_mode = net::ReallocationMode::Incremental;

  ExperimentRunner ref(ref_cfg, {1, 2});
  ExperimentRunner opt(opt_cfg, {1, 2});
  auto ref_cells = ref.run_matrix(paper_es_algorithms(), paper_ds_algorithms());
  auto opt_cells = opt.run_matrix(paper_es_algorithms(), paper_ds_algorithms());
  ASSERT_EQ(ref_cells.size(), 12u);
  ASSERT_EQ(opt_cells.size(), 12u);

  std::uint64_t total_skips = 0;
  for (std::size_t c = 0; c < ref_cells.size(); ++c) {
    EXPECT_EQ(ref_cells[c].es, opt_cells[c].es);
    EXPECT_EQ(ref_cells[c].ds, opt_cells[c].ds);
    ASSERT_EQ(ref_cells[c].per_seed.size(), opt_cells[c].per_seed.size());
    for (std::size_t s = 0; s < ref_cells[c].per_seed.size(); ++s) {
      const RunMetrics& rm = ref_cells[c].per_seed[s];
      const RunMetrics& om = opt_cells[c].per_seed[s];
      expect_bit_identical(rm, om);
      EXPECT_EQ(rm.rate_recomputes_skipped, 0u);
      // Conservation: every flow Full keeps via the unchanged-rate check is
      // kept by Incremental either the same way or at the dirty-link check.
      EXPECT_EQ(rm.reschedules_skipped,
                om.reschedules_skipped + om.rate_recomputes_skipped);
      total_skips += om.rate_recomputes_skipped;
    }
  }
  // The equivalence must not be vacuous: the incremental mode actually
  // skipped work somewhere in the matrix.
  EXPECT_GT(total_skips, 0u);
}

TEST(AbEquivalence, FullAndIncrementalBitIdenticalUnderMaxMin) {
  // MaxMin's filling is global, so Incremental degrades to Full's
  // recompute-everything path; the calendar updates must still match.
  SimulationConfig ref_cfg = tiny_config();
  ref_cfg.share_policy = net::SharePolicy::MaxMin;
  ref_cfg.realloc_mode = net::ReallocationMode::Full;
  SimulationConfig opt_cfg = ref_cfg;
  opt_cfg.realloc_mode = net::ReallocationMode::Incremental;

  ExperimentRunner ref(ref_cfg, {7});
  ExperimentRunner opt(opt_cfg, {7});
  CellResult a = ref.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataRandom);
  CellResult b = opt.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataRandom);
  ASSERT_EQ(a.per_seed.size(), 1u);
  ASSERT_EQ(b.per_seed.size(), 1u);
  expect_bit_identical(a.per_seed[0], b.per_seed[0]);
}

}  // namespace
}  // namespace chicsim::core
