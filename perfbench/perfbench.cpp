// The repository benchmark program (see README.md in this directory).
//
// Runs one workload through the library's public API for a wall-clock
// budget and prints, one per line, every metric as `name value unit`,
// followed by a last line of JSON:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 (end-to-end pass): plain Grids, nothing attached, serial, one
// process. --trace 1 (traced pass): every simulation runs three times —
// plain, with timing decorators around the policies plus an EngineProfiler,
// and with the standard observers attached — and its transfer arrivals are
// replayed through a standalone TransferManager. All per-layer timing is
// taken from outside the library, around calls into its public functions.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/factory.hpp"
#include "core/grid.hpp"
#include "core/site_metrics.hpp"
#include "core/spans.hpp"
#include "core/timeline.hpp"
#include "net/transfer_manager.hpp"
#include "sim/engine.hpp"
#include "sim/profiler.hpp"
#include "util/rng.hpp"

namespace {

using namespace chicsim;
using core::DsAlgorithm;
using core::EsAlgorithm;
using core::RunMetrics;
using core::SimulationConfig;
// detlint: allow(wall-clock): the harness times library calls; no reading feeds simulated state
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One kind of simulation: a world and its policies, run at several grid
/// seeds. Its name and the grid seed key its reference digests.
struct SimKind {
  std::string name;
  /// Grid seeds 1..pool_size have committed reference digests. Every run
  /// simulates each of them once per round; --seed n only rotates their
  /// order (pass k of a run draws grid seed 1 + (n + k) mod pool_size).
  std::uint64_t pool_size = 3;
  /// Nominal host seconds of one plain simulation (a shared 4-core x86
  /// host at this commit). It sizes the number of traced passes from
  /// --seconds, so that number never depends on the code's speed.
  double input_s = 1.0;
  /// Every stochastic fault stream of the config must fire in each run.
  bool fault_coverage = false;
  /// The simulation, without its grid seed.
  std::function<SimulationConfig(bool tiny)> world;

  [[nodiscard]] SimulationConfig config(std::uint64_t grid_seed, bool tiny) const {
    SimulationConfig c = world(tiny);
    c.seed = grid_seed;
    return c;
  }
};

struct Workload {
  std::string name;
  std::vector<SimKind> kinds;
};

/// The 1000-site world shared by fetch_heavy and placement_heavy.
SimulationConfig wide_world(bool tiny) {
  SimulationConfig c;
  c.num_sites = tiny ? 100 : 1000;
  c.num_regions = tiny ? 4 : 40;
  c.num_users = tiny ? 400 : 4000;
  c.num_datasets = tiny ? 600 : 6000;
  c.total_jobs = tiny ? 4000 : 12000;
  c.link_bandwidth_mbps = 10.0;
  return c;
}

std::vector<Workload> workloads() {
  // Jobs stay home and pull their inputs across a 1000-site hierarchy:
  // tens of thousands of remote fetches, millions of calendar cancels.
  SimKind fetch{"fetch_heavy", 2, 1.3, false, [](bool tiny) {
                  SimulationConfig c = wide_world(tiny);
                  c.es = EsAlgorithm::JobLocal;
                  c.ds = DsAlgorithm::DataDoNothing;
                  return c;
                }};
  // Same world, jobs go to the data: no remote fetches, and every decision
  // scans the grid through GridView.
  SimKind placement{"placement_heavy", 3, 0.55, false, [](bool tiny) {
                      SimulationConfig c = wide_world(tiny);
                      c.es = EsAlgorithm::JobDataPresent;
                      c.ds = DsAlgorithm::DataLeastLoaded;
                      return c;
                    }};
  // 300 sites under site crashes, mid-flight transfer failures and silent
  // catalog loss: drives sim, net and the lifecycle through their failure
  // paths. The catalog-loss rate is high enough to land in every run.
  SimKind faults{"fault_recovery", 1, 2.0, true, [](bool tiny) {
                   SimulationConfig c;
                   c.num_sites = tiny ? 60 : 300;
                   c.num_regions = tiny ? 3 : 12;
                   c.num_users = tiny ? 240 : 1200;
                   c.num_datasets = tiny ? 400 : 2000;
                   c.total_jobs = 4800;
                   c.link_bandwidth_mbps = 10.0;
                   c.es = EsAlgorithm::JobLeastLoaded;
                   c.ds = DsAlgorithm::DataRandom;
                   c.fault_site_crash_rate_per_hour = 0.25;
                   c.fault_site_downtime_s = 1800.0;
                   c.fault_transfer_fail_prob = 0.05;
                   c.fault_catalog_loss_rate_per_hour = 30.0;
                   return c;
                 }};
  // The network-bound and the placement-bound kind share one workload, so
  // each run is long enough to be steady (see README.md).
  return {{"wide", {fetch, placement}}, {"fault_recovery", {faults}}};
}

// ---------------------------------------------------------------------------
// Output digests
// ---------------------------------------------------------------------------

void put(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a;", v);
  out += buf;
}
void put(std::string& out, std::uint64_t v) { out += std::to_string(v) + ";"; }

/// What the simulation computed (results, not hot-path counters), plus
/// events_executed. Hexfloat text, so any bit change shows.
std::string result_fields(const RunMetrics& m, std::uint64_t events_executed) {
  std::string s;
  put(s, m.jobs_completed);
  for (double v : {m.makespan_s, m.avg_response_time_s, m.p95_response_time_s,
                   m.avg_placement_wait_s, m.avg_queue_wait_s, m.avg_data_wait_s,
                   m.avg_compute_s, m.avg_output_wait_s, m.avg_data_per_job_mb,
                   m.avg_fetch_per_job_mb, m.avg_replication_per_job_mb,
                   m.avg_output_per_job_mb, m.total_mb_hops, m.idle_fraction, m.utilization,
                   m.avg_link_busy_fraction, m.max_link_busy_fraction}) {
    put(s, v);
  }
  for (std::uint64_t v : {m.remote_fetches, m.replications, m.local_data_hits,
                          m.local_data_misses, m.cache_evictions, m.jobs_run_at_origin,
                          m.site_crashes, m.site_recoveries, m.jobs_resubmitted,
                          m.transfer_retries, m.output_retries, m.transfers_aborted,
                          m.catalog_invalidations, events_executed}) {
    put(s, v);
  }
  return s;
}

/// Every RunMetrics field: the traced pass must match the plain pass here.
std::string all_fields(const RunMetrics& m) {
  std::string s = result_fields(m, m.events_executed);
  for (std::uint64_t v : {m.event_pushes, m.event_cancels, m.peak_heap_size,
                          m.queue_compactions, m.reallocations, m.flows_rescheduled,
                          m.reschedules_skipped, m.rate_recomputes_skipped}) {
    put(s, v);
  }
  return s;
}

std::string digest(const RunMetrics& m) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, util::fnv1a(result_fields(m, m.events_executed)));
  return buf;
}

using Reference = std::map<std::string, std::string>;

/// The committed digests, perfbench/reference_digests.txt (set by CMake).
constexpr const char* kReference = PERFBENCH_REFERENCE;

std::string reference_key(const std::string& workload, const SimulationConfig& cfg) {
  return workload + " " + std::to_string(cfg.seed);
}

Reference load_reference(const std::string& path) {
  Reference ref;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto cut = line.rfind(' ');
    if (cut == std::string::npos) continue;
    ref[line.substr(0, cut)] = line.substr(cut + 1);
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Timing decorators (traced pass only)
// ---------------------------------------------------------------------------

/// Forwards every GridView query and counts it. Counting, not timing: a
/// clock read per query would dominate the decisions it measures.
class CountingView final : public core::GridView {
 public:
  void bind(const core::GridView* inner) { inner_ = inner; }
  [[nodiscard]] std::uint64_t queries() const { return queries_; }

  std::size_t num_sites() const override { return ++queries_, inner_->num_sites(); }
  std::size_t site_load(data::SiteIndex s) const override {
    return ++queries_, inner_->site_load(s);
  }
  bool site_alive(data::SiteIndex s) const override { return ++queries_, inner_->site_alive(s); }
  std::size_t site_compute_elements(data::SiteIndex s) const override {
    return ++queries_, inner_->site_compute_elements(s);
  }
  double site_speed_factor(data::SiteIndex s) const override {
    return ++queries_, inner_->site_speed_factor(s);
  }
  const std::vector<data::SiteIndex>& replica_sites(data::DatasetId d) const override {
    return ++queries_, inner_->replica_sites(d);
  }
  bool site_has_dataset(data::SiteIndex s, data::DatasetId d) const override {
    return ++queries_, inner_->site_has_dataset(s, d);
  }
  util::Megabytes dataset_size_mb(data::DatasetId d) const override {
    return ++queries_, inner_->dataset_size_mb(d);
  }
  std::size_t hops(data::SiteIndex a, data::SiteIndex b) const override {
    return ++queries_, inner_->hops(a, b);
  }
  const std::vector<data::SiteIndex>& neighbors(data::SiteIndex s) const override {
    return ++queries_, inner_->neighbors(s);
  }
  std::size_t path_congestion(data::SiteIndex a, data::SiteIndex b) const override {
    return ++queries_, inner_->path_congestion(a, b);
  }
  util::MbPerSec path_bandwidth_mbps(data::SiteIndex a, data::SiteIndex b) const override {
    return ++queries_, inner_->path_bandwidth_mbps(a, b);
  }
  util::SimTime now() const override { return ++queries_, inner_->now(); }

 private:
  const core::GridView* inner_ = nullptr;
  mutable std::uint64_t queries_ = 0;
};

struct PolicyTimes {
  std::uint64_t es_decisions = 0;
  double es_select_s = 0.0;
  double es_select_at_submission_s = 0.0;  ///< first placement of a job
  std::uint64_t es_view_queries = 0;
  std::uint64_t ds_evaluations = 0;
  double ds_evaluate_s = 0.0;
  std::uint64_t ls_picks = 0;
  double ls_pick_s = 0.0;
};

class TimedEs final : public core::ExternalScheduler {
 public:
  TimedEs(std::unique_ptr<core::ExternalScheduler> inner, PolicyTimes& t)
      : inner_(std::move(inner)), t_(t) {}
  const char* name() const override { return inner_->name(); }
  data::SiteIndex select_site(const site::Job& job, const core::GridView& view,
                              util::Rng& rng) override {
    view_.bind(&view);
    std::uint64_t queries = view_.queries();
    auto t0 = Clock::now();
    data::SiteIndex s = inner_->select_site(job, view_, rng);
    double dt = seconds_since(t0);
    t_.es_view_queries += view_.queries() - queries;
    ++t_.es_decisions;
    t_.es_select_s += dt;
    // Resubmissions bump reschedule_generation before re-consulting the ES.
    if (job.reschedule_generation == 0) t_.es_select_at_submission_s += dt;
    return s;
  }

 private:
  std::unique_ptr<core::ExternalScheduler> inner_;
  PolicyTimes& t_;
  CountingView view_;
};

class TimedDs final : public core::DatasetScheduler {
 public:
  TimedDs(std::unique_ptr<core::DatasetScheduler> inner, PolicyTimes& t)
      : inner_(std::move(inner)), t_(t) {}
  const char* name() const override { return inner_->name(); }
  void evaluate(core::ReplicationContext& ctx, util::Rng& rng) override {
    auto t0 = Clock::now();
    inner_->evaluate(ctx, rng);
    t_.ds_evaluate_s += seconds_since(t0);
    ++t_.ds_evaluations;
  }
  void on_remote_fetch(core::ReplicationContext& ctx, data::DatasetId dataset,
                       data::SiteIndex requester, util::Rng& rng) override {
    inner_->on_remote_fetch(ctx, dataset, requester, rng);
  }

 private:
  std::unique_ptr<core::DatasetScheduler> inner_;
  PolicyTimes& t_;
};

class TimedLs final : public core::LocalScheduler {
 public:
  TimedLs(std::unique_ptr<core::LocalScheduler> inner, PolicyTimes& t)
      : inner_(std::move(inner)), t_(t) {}
  const char* name() const override { return inner_->name(); }
  site::JobId pick_next(const std::deque<site::JobId>& queue,
                        const std::function<const site::Job&(site::JobId)>& job_of) override {
    auto t0 = Clock::now();
    site::JobId id = inner_->pick_next(queue, job_of);
    t_.ls_pick_s += seconds_since(t0);
    ++t_.ls_picks;
    return id;
  }

 private:
  std::unique_ptr<core::LocalScheduler> inner_;
  PolicyTimes& t_;
};

/// Times one observer's on_event.
class TimedObserver final : public core::GridObserver {
 public:
  TimedObserver(core::GridObserver& inner, double& sink_s) : inner_(inner), sink_s_(sink_s) {}
  void on_event(const core::GridEvent& e) override {
    auto t0 = Clock::now();
    inner_.on_event(e);
    sink_s_ += seconds_since(t0);
  }

 private:
  core::GridObserver& inner_;
  double& sink_s_;
};

/// Records the transfer arrivals the network layer saw, for the replay.
class ArrivalRecorder final : public core::GridObserver {
 public:
  struct Arrival {
    util::SimTime time;
    data::SiteIndex src;
    data::SiteIndex dst;
    util::Megabytes mb;
    net::TransferPurpose purpose;
  };
  void on_event(const core::GridEvent& e) override {
    ++events_;
    // A fetch parked with no live source (site_a == kNoSite) starts no
    // transfer.
    if (e.type == core::GridEventType::FetchStarted && e.site_a != data::kNoSite) {
      arrivals_.push_back({e.time, e.site_a, e.site_b, e.mb, net::TransferPurpose::JobFetch});
    } else if (e.type == core::GridEventType::ReplicationStarted) {
      arrivals_.push_back({e.time, e.site_a, e.site_b, e.mb, net::TransferPurpose::Replication});
    }
  }
  [[nodiscard]] const std::vector<Arrival>& arrivals() const { return arrivals_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  std::vector<Arrival> arrivals_;
  std::uint64_t events_ = 0;
};

// ---------------------------------------------------------------------------
// Accumulators
// ---------------------------------------------------------------------------

/// Ordered name -> (value, unit) list, printed line by line and as JSON.
class MetricList {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  void print_lines() const {
    for (const auto& m : items_) std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit);
  }
  [[nodiscard]] std::string json() const {
    std::string s = "{";
    char buf[64];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", items_[i].value);
      s += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           items_[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checked = 0;   ///< simulations with a reference digest
  std::uint64_t diverged = 0;  ///< ...whose digest differs from it

  void fail(const std::string& what, const std::string& why) {
    ++failed;
    std::printf("FAIL %s: %s\n", what.c_str(), why.c_str());
  }
};

/// Plain run of one simulation: construction and run() timed separately.
struct PlainRun {
  std::optional<RunMetrics> metrics;
  core::FaultStats faults;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::string error;
};

PlainRun run_plain(const SimulationConfig& cfg) {
  PlainRun r;
  try {
    auto t0 = Clock::now();
    core::Grid grid(cfg);
    r.setup_s = seconds_since(t0);
    auto t1 = Clock::now();
    grid.run();
    r.run_s = seconds_since(t1);
    grid.audit();
    if (grid.metrics().jobs_completed != cfg.total_jobs) {
      r.error = "completed " + std::to_string(grid.metrics().jobs_completed) + " of " +
                std::to_string(cfg.total_jobs) + " jobs";
      return r;
    }
    r.metrics = grid.metrics();
    r.faults = grid.fault_stats();
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

/// The reference check, the completion check and (fault_recovery) the
/// stream-coverage check shared by both passes.
void check_plain(const SimKind& w, const SimulationConfig& cfg, const PlainRun& r,
                 const Reference* ref, Outcome& out) {
  std::string what = reference_key(w.name, cfg);
  ++out.attempted;
  if (!r.metrics) {
    out.fail(what, r.error);
    return;
  }
  if (ref != nullptr) {
    auto it = ref->find(what);
    if (it != ref->end()) {
      ++out.checked;
      if (it->second != digest(*r.metrics)) {
        ++out.diverged;
        std::printf("DIVERGED %s: digest %s, reference %s\n", what.c_str(),
                    digest(*r.metrics).c_str(), it->second.c_str());
      }
    }
  }
  if (w.fault_coverage) {
    const RunMetrics& m = *r.metrics;
    std::string missing;
    if (m.site_crashes == 0) missing += " site_crashes";
    if (m.transfers_aborted == 0) missing += " transfers_aborted";
    if (r.faults.catalog_corruptions == 0) missing += " catalog_corruptions";
    if (m.catalog_invalidations == 0) missing += " catalog_invalidations";
    if (!missing.empty()) out.fail(what, "enabled fault stream never fired:" + missing);
  }
}

// ---------------------------------------------------------------------------
// The two passes
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool held_out = false;
  bool capture = false;  ///< rewrite kReference from every pool simulation
};

/// Grid seed of pass k of a run with seed n.
std::uint64_t grid_seed(const SimKind& w, const Options& o, std::uint64_t k) {
  if (o.held_out) {
    std::uint64_t state = o.seed * 0x9E3779B97F4A7C15ULL + k;
    return w.pool_size + 1 + util::splitmix64(state) % (1ULL << 40);
  }
  return 1 + (o.seed % w.pool_size + k) % w.pool_size;
}

/// Traced passes of one kind. They are fixed by --seconds and the kind's
/// nominal input cost, never by elapsed time, so two commits given the
/// same --seed and --seconds sum the same simulations. A pass runs one
/// input three times and replays it (nominally four times `input_s`); the
/// workload's kinds share half of --seconds, which leaves room for a host
/// that runs slower than the nominal one.
std::size_t traced_passes(const Workload& w, const SimKind& k, const Options& o) {
  double seconds = o.seconds / static_cast<double>(w.kinds.size());
  auto n = static_cast<std::size_t>(std::llround(seconds / (8.0 * k.input_s)));
  return std::max<std::size_t>(1, n);
}

/// No pass or round starts after this many seconds, so a run ends within
/// the 180 s a caller allows even if the code under test got several times
/// slower. A run cut short is incomplete, so the cut counts as a failure.
constexpr double kGuardS = 150.0;

bool guard_hit(Clock::time_point t0, std::size_t pass, std::size_t passes, Outcome& out) {
  if (seconds_since(t0) < kGuardS) return false;
  out.fail("run", "over " + std::to_string(static_cast<int>(kGuardS)) + " s; stopped after " +
                      std::to_string(pass) + " of " + std::to_string(passes) + " steps");
  return true;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void end_to_end(const Workload& w, const Options& o, const Reference* ref, Outcome& out,
                MetricList& metrics) {
  // A run simulates every input of its pool once per round, and each
  // simulation's time is its fastest round. The set of simulations is
  // fixed by the workload and --seed; only the number of rounds depends
  // on elapsed time. Rounds go on while the next one fits in --seconds
  // (at least kMinRounds). The host's speed wanders over tens of seconds;
  // a minimum over rounds spread across the whole run removes most of
  // that, which a sum or median of single runs does not.
  constexpr std::size_t kMinRounds = 2;
  std::vector<std::pair<const SimKind*, SimulationConfig>> sims;
  for (const SimKind& kind : w.kinds) {
    for (std::uint64_t k = 0; k < kind.pool_size; ++k) {
      sims.emplace_back(&kind, kind.config(grid_seed(kind, o, k), o.tiny));
    }
  }
  std::vector<std::vector<double>> run_s(sims.size());
  std::vector<std::uint64_t> jobs(sims.size(), 0);
  std::vector<double> setups;
  double longest_round_s = 0.0;
  auto t0 = Clock::now();
  std::size_t rounds = 0;
  while ((rounds < kMinRounds || seconds_since(t0) + longest_round_s <= o.seconds) &&
         !guard_hit(t0, rounds, kMinRounds, out)) {
    auto t1 = Clock::now();
    for (std::size_t i = 0; i < sims.size(); ++i) {
      const auto& [kind, cfg] = sims[i];
      PlainRun r = run_plain(cfg);
      check_plain(*kind, cfg, r, ref, out);
      setups.push_back(r.setup_s);
      if (!r.metrics) continue;
      run_s[i].push_back(r.run_s);
      jobs[i] = r.metrics->jobs_completed;
    }
    longest_round_s = std::max(longest_round_s, seconds_since(t1));
    ++rounds;
  }
  double measured_s = seconds_since(t0);
  // setup_s is a median: a short run of a big workload builds few Grids,
  // so set up extra (unrun) ones until there are nine samples.
  for (std::size_t k = 0; setups.size() < 9; ++k) {
    auto t1 = Clock::now();
    core::Grid grid(sims[k % sims.size()].second);
    setups.push_back(seconds_since(t1));
  }
  double best_s = 0.0;
  std::uint64_t total_jobs = 0;
  for (std::size_t i = 0; i < sims.size(); ++i) {
    if (run_s[i].empty()) continue;
    double best = *std::min_element(run_s[i].begin(), run_s[i].end());
    std::printf("sim %s runs %zu best_s %.6f median_s %.6f jobs %" PRIu64 "\n",
                reference_key(sims[i].first->name, sims[i].second).c_str(), run_s[i].size(),
                best, median(run_s[i]), jobs[i]);
    best_s += best;
    total_jobs += jobs[i];
  }
  std::printf("rounds %zu sims %" PRIu64 " measured_s %.3f\n", rounds, out.attempted,
              measured_s);
  metrics.add("jobs_per_s", best_s > 0.0 ? static_cast<double>(total_jobs) / best_s : 0.0,
              "1/s");
  metrics.add("setup_s", median(setups), "s");
  metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
}

struct LayerSums {
  double plain_run_s = 0.0, traced_run_s = 0.0, observed_run_s = 0.0;
  double loop_self_s = 0.0, profiler_wall_s = 0.0;
  std::map<std::string, double> tag_s;
  std::map<std::string, std::uint64_t> tag_count;
  PolicyTimes policy;
  std::vector<RunMetrics> runs;  ///< of the traced pass
  std::vector<core::FaultStats> faults;
  std::uint64_t transfers = 0;
  double replay_s = 0.0;
  std::uint64_t replay_mismatches = 0;
  std::uint64_t replays_skipped = 0;
  double sink_s = 0.0;
  std::uint64_t observer_events = 0;
};

/// The plain run time of the traced pass, then the self times whose
/// shares of it the pass prints. A kind's terms are the difference of two
/// snapshots.
using ShareTerms = std::vector<std::pair<const char*, double>>;

ShareTerms share_terms(const LayerSums& s) {
  auto tag = [&](const char* t) {
    auto it = s.tag_s.find(t);
    return it == s.tag_s.end() ? 0.0 : it->second;
  };
  return {{"plain_run_s", s.plain_run_s},
          {"sim.loop_self_s", s.loop_self_s},
          {"net.replay_s", s.replay_s},
          {"es.select_s", s.policy.es_select_s},
          {"ds.evaluate_s", s.policy.ds_evaluate_s},
          {"core.submission_self_s", tag("job_submission") - s.policy.es_select_at_submission_s},
          {"core.compute_done_s", tag("compute_done")},
          {"faults.action_s", tag("fault_action")},
          {"core.resubmit_s", tag("job_resubmit")}};
}

/// Replay the recorded arrivals through a standalone TransferManager over
/// the finished grid's network; compare its counters with the run's.
void replay_network(const core::Grid& grid, const SimulationConfig& cfg,
                    const std::vector<ArrivalRecorder::Arrival>& arrivals,
                    const RunMetrics& run, const std::string& what, LayerSums& sums) {
  sim::Engine engine;
  net::TransferManager tm(engine, grid.topology(), grid.routing(), cfg.share_policy,
                          cfg.realloc_mode);
  for (const auto& a : arrivals) {
    engine.schedule_at(a.time, [&tm, a] {
      (void)tm.start(a.src, a.dst, a.mb, a.purpose, [](net::TransferId) {});
    });
  }
  auto t0 = Clock::now();
  engine.run();
  sums.replay_s += seconds_since(t0);
  const net::TransferStats& s = tm.stats();
  auto compare = [&](const char* name, double replay, double actual) {
    if (replay == actual) return;
    ++sums.replay_mismatches;
    std::printf("REPLAY %s: %s replay %.17g run %.17g\n", what.c_str(), name, replay, actual);
  };
  compare("reallocations", static_cast<double>(s.reallocations),
          static_cast<double>(run.reallocations));
  compare("flows_rescheduled", static_cast<double>(s.flows_rescheduled),
          static_cast<double>(run.flows_rescheduled));
  compare("mb_hops", s.delivered_mb_hops, run.total_mb_hops);
}

void traced(const Workload& w, const Options& o, const Reference* ref, Outcome& out,
            MetricList& metrics) {
  LayerSums sums;
  auto t0 = Clock::now();
  std::size_t passes = 0;
  std::vector<std::pair<std::string, ShareTerms>> kind_shares;
  for (const SimKind& kind : w.kinds) {
    const ShareTerms before = share_terms(sums);
    const std::size_t kind_passes = traced_passes(w, kind, o);
    passes += kind_passes;
    for (std::size_t pass = 0; pass < kind_passes && !guard_hit(t0, pass, kind_passes, out);
         ++pass) {
      const SimulationConfig cfg = kind.config(grid_seed(kind, o, pass), o.tiny);
      std::string what = reference_key(kind.name, cfg);
      PlainRun plain = run_plain(cfg);
      check_plain(kind, cfg, plain, ref, out);
      if (!plain.metrics) continue;
      const RunMetrics& m0 = *plain.metrics;
      sums.plain_run_s += plain.run_s;
      try {
        // Traced: policy decorators and the engine profiler.
        {
          core::Grid grid(cfg);
          grid.set_external_scheduler(
              std::make_unique<TimedEs>(core::make_external_scheduler(cfg.es), sums.policy));
          grid.set_dataset_scheduler(std::make_unique<TimedDs>(
              core::make_dataset_scheduler(cfg.ds, cfg.replication_threshold), sums.policy));
          grid.set_local_scheduler(
              std::make_unique<TimedLs>(core::make_local_scheduler(cfg.ls), sums.policy));
          sim::EngineProfiler profiler;
          grid.engine().set_profiler(&profiler);
          auto t1 = Clock::now();
          grid.run();
          sums.traced_run_s += seconds_since(t1);
          grid.engine().set_profiler(nullptr);
          const RunMetrics& m = grid.metrics();
          if (all_fields(m) != all_fields(m0)) out.fail(what, "traced RunMetrics differ");
          sums.profiler_wall_s += profiler.run_wall_s();
          sums.loop_self_s += profiler.run_wall_s() - profiler.handler_time_s();
          std::uint64_t transfer_faults = 0;
          for (const auto& p : profiler.profiles()) {
            sums.tag_s[p.tag] += p.total_s;
            sums.tag_count[p.tag] += p.count;
            if (p.tag == "transfer_fault") transfer_faults = p.count;
          }
          if (kind.fault_coverage && transfer_faults == 0) {
            out.fail(what, "enabled fault stream never fired: transfer_fault");
          }
          sums.runs.push_back(m);
          sums.faults.push_back(grid.fault_stats());
          sums.transfers += grid.transfers().stats().transfers_started;
        }
        // Observed: the standard observer stack, each sink timed, plus the
        // arrival recorder the network replay needs.
        {
          core::Grid grid(cfg);
          core::SpanBuilder spans;
          core::SiteMetricsObserver site_metrics(grid.topology(), &grid.routing());
          TimedObserver timed_spans(spans, sums.sink_s);
          TimedObserver timed_sites(site_metrics, sums.sink_s);
          ArrivalRecorder recorder;
          grid.add_observer(&timed_spans);
          grid.add_observer(&timed_sites);
          grid.add_observer(&recorder);
          core::TimelineRecorder timeline(grid, 60.0);
          auto t1 = Clock::now();
          grid.run();
          sums.observed_run_s += seconds_since(t1);
          sums.observer_events += recorder.events();
          // The timeline rides the calendar (one sample is taken at
          // construction, the rest by its events); every other bit must match.
          if (result_fields(grid.metrics(), grid.metrics().events_executed + 1 -
                                                 timeline.samples().size()) !=
              result_fields(m0, m0.events_executed)) {
            out.fail(what, "observed RunMetrics differ");
          }
          // An aborted transfer leaves the wire at a moment the event
          // stream does not carry, so such runs cannot be replayed.
          if (m0.transfers_aborted == 0) {
            replay_network(grid, cfg, recorder.arrivals(), m0, what, sums);
          } else {
            ++sums.replays_skipped;
          }
        }
      } catch (const std::exception& e) {
        out.fail(what, std::string("traced pass threw: ") + e.what());
      }
    }
    ShareTerms terms = share_terms(sums);
    for (std::size_t t = 0; t < terms.size(); ++t) terms[t].second -= before[t].second;
    kind_shares.emplace_back(kind.name, std::move(terms));
  }
  std::printf("passes %zu sims %" PRIu64 " measured_s %.3f\n", passes, out.attempted,
              seconds_since(t0));

  auto tag = [&](const char* t) { return sums.tag_s.count(t) ? sums.tag_s.at(t) : 0.0; };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  using M = RunMetrics;
  auto total = [&](std::uint64_t M::*field) {
    std::uint64_t sum = 0;
    for (const M& m : sums.runs) sum += m.*field;
    return static_cast<double>(sum);
  };
  using F = core::FaultStats;
  auto fault_total = [&](std::uint64_t F::*field) {
    std::uint64_t sum = 0;
    for (const F& f : sums.faults) sum += f.*field;
    return static_cast<double>(sum);
  };
  std::uint64_t peak_heap = 0;
  for (const RunMetrics& m : sums.runs) peak_heap = std::max(peak_heap, m.peak_heap_size);
  const PolicyTimes& p = sums.policy;
  double submission_self = tag("job_submission") - p.es_select_at_submission_s;
  double ds_tick_self = tag("ds_evaluate") - p.ds_evaluate_s;

  metrics.add("sim.events", total(&M::events_executed), "count");
  metrics.add("sim.pushes", total(&M::event_pushes), "count");
  metrics.add("sim.cancels", total(&M::event_cancels), "count");
  metrics.add("sim.cancel_ratio", ratio(total(&M::event_cancels), total(&M::event_pushes)),
              "ratio");
  metrics.add("sim.peak_heap", d(peak_heap), "count");
  metrics.add("sim.compactions", total(&M::queue_compactions), "count");
  metrics.add("sim.events_per_s", ratio(total(&M::events_executed), sums.profiler_wall_s), "1/s");
  metrics.add("sim.loop_self_s", sums.loop_self_s, "s");

  metrics.add("net.replay_s", sums.replay_s, "s");
  metrics.add("net.transfers", d(sums.transfers), "count");
  metrics.add("net.reallocations", total(&M::reallocations), "count");
  metrics.add("net.flows_rescheduled", total(&M::flows_rescheduled), "count");
  metrics.add("net.reschedules_skipped", total(&M::reschedules_skipped), "count");
  metrics.add("net.rate_recomputes_skipped", total(&M::rate_recomputes_skipped), "count");
  metrics.add("net.flows_walked_per_realloc",
              ratio(total(&M::flows_rescheduled) + total(&M::reschedules_skipped) +
                        total(&M::rate_recomputes_skipped),
                    total(&M::reallocations)),
              "flows");
  metrics.add("net.completion_s", tag("transfer_completion"), "s");
  metrics.add("net.replay_mismatches", d(sums.replay_mismatches), "count");
  metrics.add("net.replays_skipped", d(sums.replays_skipped), "count");

  metrics.add("es.decisions", d(p.es_decisions), "count");
  metrics.add("es.select_s", p.es_select_s, "s");
  metrics.add("es.view_queries_per_decision", ratio(d(p.es_view_queries), d(p.es_decisions)),
              "queries");
  metrics.add("ds.evaluations", d(p.ds_evaluations), "count");
  metrics.add("ds.evaluate_s", p.ds_evaluate_s, "s");
  metrics.add("ls.picks", d(p.ls_picks), "count");
  metrics.add("ls.pick_s", p.ls_pick_s, "s");

  metrics.add("core.submission_self_s", submission_self, "s");
  metrics.add("core.ds_tick_self_s", ds_tick_self, "s");
  metrics.add("core.compute_done_s", tag("compute_done"), "s");
  metrics.add("core.remote_fetches", total(&M::remote_fetches), "count");
  metrics.add("core.replications", total(&M::replications), "count");
  metrics.add("data.hit_ratio", ratio(total(&M::local_data_hits),
                                       total(&M::local_data_hits) +
                                           total(&M::local_data_misses)), "ratio");
  metrics.add("data.evictions", total(&M::cache_evictions), "count");

  metrics.add("faults.action_s", tag("fault_action"), "s");
  metrics.add("core.resubmit_s", tag("job_resubmit"), "s");
  metrics.add("core.fetch_retry_s", tag("fetch_retry"), "s");
  metrics.add("faults.site_crashes", fault_total(&F::site_crashes), "count");
  metrics.add("faults.site_recoveries", fault_total(&F::site_recoveries), "count");
  metrics.add("faults.forced_aborts", fault_total(&F::forced_aborts), "count");
  metrics.add("faults.catalog_corruptions", fault_total(&F::catalog_corruptions), "count");
  metrics.add("faults.transfer_faults", d(sums.tag_count["transfer_fault"]), "count");
  metrics.add("core.jobs_resubmitted", total(&M::jobs_resubmitted), "count");
  metrics.add("core.catalog_invalidations", total(&M::catalog_invalidations), "count");
  metrics.add("net.transfers_aborted", total(&M::transfers_aborted), "count");

  metrics.add("observers.overhead_s", sums.observed_run_s - sums.plain_run_s, "s");
  metrics.add("observers.events", d(sums.observer_events), "count");
  metrics.add("observers.sink_s", sums.sink_s, "s");

  // Self times that partition the traced run(); what they leave is residual.
  double attributed = sums.loop_self_s + tag("transfer_completion") + submission_self +
                      p.es_select_at_submission_s + tag("ds_evaluate") +
                      tag("compute_done") + tag("fault_action") + tag("job_resubmit") +
                      tag("fetch_retry");
  metrics.add("trace.run_s", sums.traced_run_s, "s");
  metrics.add("trace.overhead_s", sums.traced_run_s - sums.plain_run_s, "s");
  metrics.add("layers.residual_s", sums.traced_run_s - attributed, "s");

  // The output check, in the result line: a divergence reaches every
  // consumer of the JSON without counting as a failure (see README.md).
  metrics.add("sims_checked", d(out.checked), "count");
  metrics.add("sims_diverged", d(out.diverged), "count");

  // The layer each kind of simulation was chosen to load should carry the
  // largest share of its untraced run time.
  for (auto& [kind, terms] : kind_shares) {
    const double plain_s = terms.front().second;
    terms.erase(terms.begin());
    std::sort(terms.begin(), terms.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (const auto& [name, v] : terms) {
      std::printf("share %s %s %.3f\n", kind.c_str(), name, ratio(v, plain_s));
    }
    std::printf("largest_share %s %s\n", kind.c_str(), terms.front().first);
  }
}

// ---------------------------------------------------------------------------

void capture_reference() {
  std::ofstream out(kReference);
  out << "# Result digests (hexfloat RunMetrics fields + events_executed, FNV-1a)\n"
         "# of every pool simulation: <kind> <grid seed> <digest>.\n"
         "# Regenerate from the repository root with\n"
         "#   .bench_build/perfbench --capture-reference\n";
  for (const Workload& w : workloads()) {
    for (const SimKind& kind : w.kinds) {
      for (std::uint64_t s = 1; s <= kind.pool_size; ++s) {
        SimulationConfig cfg = kind.config(s, false);
        std::string key = reference_key(kind.name, cfg);
        PlainRun r = run_plain(cfg);
        if (!r.metrics) {
          std::fprintf(stderr, "%s failed: %s\n", key.c_str(), r.error.c_str());
          std::exit(1);
        }
        out << key << ' ' << digest(*r.metrics) << '\n';
        std::fprintf(stderr, "%s %.2fs\n", key.c_str(), r.run_s);
      }
    }
  }
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--held-out]\n"
               "       perfbench --capture-reference\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        std::string v = value();
        if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
          usage("--seed must be a non-negative integer");
        }
        o.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        std::string v = value();
        if (v != "0" && v != "1") usage("--trace must be 0 or 1");
        o.trace = v == "1";
      } else if (a == "--capture-reference") {
        o.capture = true;
      } else if (a == "--tiny") {
        o.tiny = true;
      } else if (a == "--held-out") {
        o.held_out = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.capture) {
    capture_reference();
    return 0;
  }
  if (!have_seed) usage("--seed is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  std::vector<Workload> all = workloads();
  auto it = std::find_if(all.begin(), all.end(),
                         [&](const Workload& w) { return w.name == o.workload; });
  if (it == all.end()) usage(("unknown workload '" + o.workload + "'").c_str());

  // Tiny and held-out inputs have no reference digests.
  Reference ref;
  if (!o.tiny && !o.held_out) {
    ref = load_reference(kReference);
    if (ref.empty()) usage((std::string("no reference digests in ") + kReference).c_str());
  }
  const Reference* check = ref.empty() ? nullptr : &ref;

  std::printf("workload %s seed %" PRIu64 " trace %d\n", it->name.c_str(), o.seed,
              o.trace ? 1 : 0);
  Outcome out;
  MetricList metrics;
  if (o.trace) {
    traced(*it, o, check, out, metrics);
  } else {
    end_to_end(*it, o, check, out, metrics);
  }
  metrics.print_lines();
  std::printf("failed_sims %.17g share\n",
              out.attempted ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                            : 0.0);
  if (!o.trace) {  // the traced pass reports these among its metrics
    std::printf("sims_checked %" PRIu64 " count\n", out.checked);
    std::printf("sims_diverged %" PRIu64 " count\n", out.diverged);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              out.failed == 0 ? "true" : "false", out.attempted, out.failed,
              metrics.json().c_str());
  return 0;
}
