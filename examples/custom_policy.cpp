// Extending the framework with user-defined policies.
//
// The paper's framework claim is that the three scheduler roles are clean
// extension points: "a general and extensible scheduling framework within
// which we can instantiate a wide variety of scheduling algorithms". This
// example defines two custom policies *outside* the library and runs a full
// simulation with them via Grid's policy-injection API:
//
//   * HomeRegionEs: run each job at the least-loaded site of the submitting
//     user's own region (a locality/autonomy compromise real VOs used);
//   * PinnedMirrorDs: replicate every hot dataset to one designated mirror
//     site (a "tier-1 mirror" operations policy).
//
// No library changes are required — the custom classes implement the same
// interfaces the built-ins do and are handed to the Grid before run().
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>

#include "core/grid.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/string_util.hpp"

namespace {

using namespace chicsim;

/// Custom External Scheduler: least-loaded site within the origin region.
class HomeRegionEs final : public core::ExternalScheduler {
 public:
  explicit HomeRegionEs(std::size_t num_regions) : num_regions_(num_regions) {}

  [[nodiscard]] const char* name() const override { return "HomeRegion"; }

  [[nodiscard]] data::SiteIndex select_site(const site::Job& job, const core::GridView& view,
                                            util::Rng& rng) override {
    (void)rng;
    data::SiteIndex best = job.origin_site;
    std::size_t best_load = view.site_load(best);
    for (std::size_t s = 0; s < view.num_sites(); ++s) {
      if (s % num_regions_ != job.origin_site % num_regions_) continue;
      if (view.site_load(static_cast<data::SiteIndex>(s)) < best_load) {
        best = static_cast<data::SiteIndex>(s);
        best_load = view.site_load(best);
      }
    }
    return best;
  }

 private:
  std::size_t num_regions_;
};

/// Custom Dataset Scheduler: mirror every hot dataset to one pinned site.
class PinnedMirrorDs final : public core::DatasetScheduler {
 public:
  PinnedMirrorDs(double threshold, data::SiteIndex mirror)
      : threshold_(threshold), mirror_(mirror) {}

  [[nodiscard]] const char* name() const override { return "PinnedMirror"; }

  void evaluate(core::ReplicationContext& ctx, util::Rng& rng) override {
    (void)rng;
    for (data::DatasetId hot : ctx.popular_datasets(threshold_)) {
      if (ctx.self() != mirror_ && !ctx.view().site_has_dataset(mirror_, hot)) {
        ctx.replicate(hot, mirror_);
      }
      ctx.reset_popularity(hot);
    }
  }

  /// evaluate() acts only on datasets at or over threshold_, so sites
  /// without one need not be evaluated.
  [[nodiscard]] std::optional<double> popularity_threshold() const override {
    return threshold_;
  }

 private:
  double threshold_;
  data::SiteIndex mirror_;
};

core::RunMetrics run_with_policies(const core::SimulationConfig& cfg, bool custom) {
  core::Grid grid(cfg);
  if (custom) {
    grid.set_external_scheduler(std::make_unique<HomeRegionEs>(cfg.num_regions));
    grid.set_dataset_scheduler(
        std::make_unique<PinnedMirrorDs>(cfg.replication_threshold, /*mirror=*/0));
  }
  grid.run();
  return grid.metrics();
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("custom_policy",
                      "run a full simulation with user-written scheduler policies");
  cli.add_option("jobs", "6000", "workload size");
  cli.add_option("seed", "5", "workload seed");

  try {
    if (!cli.parse(argc, argv)) return 0;

    core::SimulationConfig cfg;
    cfg.total_jobs = static_cast<std::size_t>(cli.get_int("jobs"));
    cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    cfg.validate();

    std::printf("running built-in defaults (%s + %s) vs custom (HomeRegion + PinnedMirror)\n\n",
                core::to_string(cfg.es), core::to_string(cfg.ds));
    core::RunMetrics builtin = run_with_policies(cfg, /*custom=*/false);
    core::RunMetrics custom = run_with_policies(cfg, /*custom=*/true);

    util::TablePrinter table({"metric", "built-in defaults", "custom policies"});
    auto row = [&](const char* name, double a, double b, int precision) {
      table.add_row({name, util::format_fixed(a, precision), util::format_fixed(b, precision)});
    };
    row("avg response time (s)", builtin.avg_response_time_s, custom.avg_response_time_s, 1);
    row("data moved per job (MB)", builtin.avg_data_per_job_mb, custom.avg_data_per_job_mb, 1);
    row("processor idle (%)", 100.0 * builtin.idle_fraction, 100.0 * custom.idle_fraction, 1);
    row("replications", static_cast<double>(builtin.replications),
        static_cast<double>(custom.replications), 0);
    std::fputs(table.render().c_str(), stdout);

    std::printf("\nBoth runs used the identical workload and substrate; only the policy\n");
    std::printf("objects differ — the extension points the paper's framework promises.\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
