#include "core/experiment.hpp"

#include <atomic>
#include <thread>

#include "core/grid.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace chicsim::core {

std::vector<std::uint64_t> default_seeds() { return {101, 202, 303}; }

ExperimentRunner::ExperimentRunner(SimulationConfig base, std::vector<std::uint64_t> seeds)
    : base_(std::move(base)), seeds_(std::move(seeds)) {
  CHICSIM_ASSERT_MSG(!seeds_.empty(), "experiment needs at least one seed");
  base_.validate();
}

void ExperimentRunner::set_progress(std::function<void(const std::string&)> progress) {
  progress_ = std::move(progress);
}

void ExperimentRunner::report_progress(const std::string& line) const {
  if (!progress_) return;
  std::lock_guard<std::mutex> lock(progress_mutex_);
  progress_(line);
}

RunMetrics ExperimentRunner::run_single(const SimulationConfig& config) {
  Grid grid(config);
  grid.run();
  return grid.metrics();
}

CellResult ExperimentRunner::run_cell(EsAlgorithm es, DsAlgorithm ds) const {
  CellResult cell;
  cell.es = es;
  cell.ds = ds;

  util::OnlineStats response;
  for (std::uint64_t seed : seeds_) {
    SimulationConfig config = base_;
    config.es = es;
    config.ds = ds;
    config.seed = seed;
    RunMetrics m = run_single(config);
    report_progress(std::string(to_string(es)) + "+" + to_string(ds) + " seed " +
                    std::to_string(seed) + " done");
    response.add(m.avg_response_time_s);
    cell.avg_response_time_s += m.avg_response_time_s;
    cell.avg_data_per_job_mb += m.avg_data_per_job_mb;
    cell.avg_fetch_per_job_mb += m.avg_fetch_per_job_mb;
    cell.avg_replication_per_job_mb += m.avg_replication_per_job_mb;
    cell.idle_fraction += m.idle_fraction;
    cell.makespan_s += m.makespan_s;
    cell.avg_queue_wait_s += m.avg_queue_wait_s;
    cell.avg_data_wait_s += m.avg_data_wait_s;
    cell.replications += static_cast<double>(m.replications);
    cell.remote_fetches += static_cast<double>(m.remote_fetches);
    cell.per_seed.push_back(std::move(m));
    ++cell.seeds_run;
  }

  auto n = static_cast<double>(cell.seeds_run);
  cell.avg_response_time_s /= n;
  cell.avg_data_per_job_mb /= n;
  cell.avg_fetch_per_job_mb /= n;
  cell.avg_replication_per_job_mb /= n;
  cell.idle_fraction /= n;
  cell.makespan_s /= n;
  cell.avg_queue_wait_s /= n;
  cell.avg_data_wait_s /= n;
  cell.replications /= n;
  cell.remote_fetches /= n;
  cell.response_cv = util::coefficient_of_variation(util::summarize(response));
  return cell;
}

std::vector<CellResult> ExperimentRunner::run_matrix(
    const std::vector<EsAlgorithm>& es_algorithms,
    const std::vector<DsAlgorithm>& ds_algorithms, unsigned threads) const {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t cells = es_algorithms.size() * ds_algorithms.size();
  std::vector<CellResult> out(cells);
  threads = std::min<unsigned>(threads, static_cast<unsigned>(cells));

  // Work stealing over a shared atomic index: each worker claims the next
  // unstarted cell and writes into its own slot — no locking needed on the
  // results. run_cell() only reads the runner, and report_progress()
  // serialises concurrent workers with a mutex.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    while (true) {
      std::size_t idx = next.fetch_add(1);
      if (idx >= cells) return;
      out[idx] = run_cell(es_algorithms[idx / ds_algorithms.size()],
                          ds_algorithms[idx % ds_algorithms.size()]);
    }
  };
  if (threads <= 1) {
    worker();
    return out;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return out;
}

}  // namespace chicsim::core
