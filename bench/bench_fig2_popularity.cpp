// Figure 2 — "Dataset popularity follows a geometric distribution. Here we
// show the popularity of 60 datasets."
//
// Regenerates the request histogram over popularity ranks for the Table 1
// workload (6000 jobs, geometric p = 0.05) and prints the first 60 ranks as
// the paper's figure does, with an ASCII rendering and a monotonicity /
// mass-concentration shape check.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "core/grid.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace chicsim;
  util::CliParser cli("bench_fig2_popularity", "reproduce Figure 2 (dataset popularity)");
  bench::add_standard_options(cli);
  cli.add_option("show", "60", "number of dataset ranks to display (paper: 60)");
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig cfg = bench::config_from_cli(cli);
  auto show = static_cast<std::size_t>(cli.get_int("show"));

  // The exact workload the simulations consume.
  core::Grid grid(cfg);
  const workload::Workload& workload = grid.workload();

  // Count requests per popularity rank.
  const workload::DatasetPopularity* pop = workload.popularity();
  std::vector<std::size_t> dataset_to_rank(cfg.num_datasets);
  for (std::size_t r = 0; r < cfg.num_datasets; ++r) {
    dataset_to_rank[pop->dataset_at_rank(r)] = r;
  }
  std::vector<std::size_t> requests_by_rank(cfg.num_datasets, 0);
  std::size_t total = 0;
  for (const site::Job* job : workload.all_jobs()) {
    for (auto input : job->inputs) {
      ++requests_by_rank[dataset_to_rank[input]];
      ++total;
    }
  }

  std::printf("=== Figure 2: dataset popularity (geometric, p = %.2f, %zu requests) ===\n\n",
              cfg.geometric_p, total);
  std::printf("requests per popularity rank (first %zu of %zu datasets):\n\n", show,
              cfg.num_datasets);
  const std::size_t peak = requests_by_rank[0] > 0 ? requests_by_rank[0] : 1;
  for (std::size_t r = 0; r < show && r < cfg.num_datasets; ++r) {
    std::size_t bar = requests_by_rank[r] * 50 / peak;
    std::printf("  rank %3zu %5zu ", r, requests_by_rank[r]);
    for (std::size_t i = 0; i < bar; ++i) std::fputc('#', stdout);
    std::fputc('\n', stdout);
  }

  double top20 = 0.0;
  double top60 = 0.0;
  for (std::size_t r = 0; r < 60 && r < cfg.num_datasets; ++r) {
    if (r < 20) top20 += static_cast<double>(requests_by_rank[r]);
    top60 += static_cast<double>(requests_by_rank[r]);
  }
  top20 /= static_cast<double>(total);
  top60 /= static_cast<double>(total);
  std::printf("\nmass in top 20 ranks: %.3f (theory %.3f)\n", top20,
              pop->expected_top_k_fraction(20));
  std::printf("mass in top 60 ranks: %.3f (theory %.3f)\n", top60,
              pop->expected_top_k_fraction(60));

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  checks.check(requests_by_rank[0] >= requests_by_rank[10] &&
                   requests_by_rank[10] >= requests_by_rank[40],
               "popularity decays with rank (geometric shape)");
  checks.check(std::abs(top20 - pop->expected_top_k_fraction(20)) < 0.05,
               "top-20 mass matches the geometric law within 5 points");
  checks.check(top60 > 0.9, "the 60 datasets shown in Figure 2 dominate the request mass");
  return checks.finish();
}
