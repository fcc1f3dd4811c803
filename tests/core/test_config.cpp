#include "core/config.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace chicsim::core {
namespace {

TEST(Config, DefaultsMatchTable1) {
  SimulationConfig cfg;
  EXPECT_EQ(cfg.num_users, 120u);
  EXPECT_EQ(cfg.num_sites, 30u);
  EXPECT_EQ(cfg.min_compute_elements, 2u);
  EXPECT_EQ(cfg.max_compute_elements, 5u);
  EXPECT_EQ(cfg.num_datasets, 200u);
  EXPECT_DOUBLE_EQ(cfg.min_dataset_mb, 500.0);
  EXPECT_DOUBLE_EQ(cfg.max_dataset_mb, 2000.0);
  EXPECT_DOUBLE_EQ(cfg.link_bandwidth_mbps, 10.0);
  EXPECT_EQ(cfg.total_jobs, 6000u);
  EXPECT_EQ(cfg.jobs_per_user(), 50u);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, ValidateCatchesInconsistencies) {
  SimulationConfig cfg;
  cfg.num_users = 0;
  EXPECT_THROW(cfg.validate(), util::SimError);

  cfg = SimulationConfig{};
  cfg.total_jobs = 6001;  // not divisible by 120 users
  EXPECT_THROW(cfg.validate(), util::SimError);

  cfg = SimulationConfig{};
  cfg.min_compute_elements = 6;
  cfg.max_compute_elements = 5;
  EXPECT_THROW(cfg.validate(), util::SimError);

  cfg = SimulationConfig{};
  cfg.min_dataset_mb = 3000.0;  // > max
  EXPECT_THROW(cfg.validate(), util::SimError);

  cfg = SimulationConfig{};
  cfg.geometric_p = 1.0;
  EXPECT_THROW(cfg.validate(), util::SimError);

  cfg = SimulationConfig{};
  cfg.num_regions = 31;  // more regions than sites
  EXPECT_THROW(cfg.validate(), util::SimError);

  cfg = SimulationConfig{};
  cfg.storage_capacity_mb = 100.0;  // cannot hold the largest dataset
  EXPECT_THROW(cfg.validate(), util::SimError);

  cfg = SimulationConfig{};
  cfg.inputs_per_job = 500;  // more than datasets exist
  EXPECT_THROW(cfg.validate(), util::SimError);
}

TEST(Config, ApplyOverridesFromFile) {
  SimulationConfig cfg;
  auto file = util::ConfigFile::parse(
      "num_sites = 10\n"
      "num_regions = 2\n"
      "link_bandwidth_mbps = 100\n"
      "es = JobDataPresent\n"
      "ds = DataRandom\n"
      "ls = Sjf\n"
      "replica_selection = Random\n"
      "ds_neighbor_scope = Region\n"
      "share_policy = MaxMin\n"
      "seed = 77\n"
      "total_jobs = 600\n"
      "num_users = 60\n");
  cfg.apply(file);
  EXPECT_EQ(cfg.num_sites, 10u);
  EXPECT_EQ(cfg.num_regions, 2u);
  EXPECT_DOUBLE_EQ(cfg.link_bandwidth_mbps, 100.0);
  EXPECT_EQ(cfg.es, EsAlgorithm::JobDataPresent);
  EXPECT_EQ(cfg.ds, DsAlgorithm::DataRandom);
  EXPECT_EQ(cfg.ls, LsAlgorithm::Sjf);
  EXPECT_EQ(cfg.replica_selection, ReplicaSelection::Random);
  EXPECT_EQ(cfg.ds_neighbor_scope, NeighborScope::Region);
  EXPECT_EQ(cfg.share_policy, net::SharePolicy::MaxMin);
  EXPECT_EQ(cfg.seed, 77u);
  EXPECT_EQ(cfg.jobs_per_user(), 10u);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, ApplyLeavesUnmentionedFieldsAlone) {
  SimulationConfig cfg;
  auto file = util::ConfigFile::parse("num_sites = 10\n");
  cfg.apply(file);
  EXPECT_EQ(cfg.num_users, 120u);
  EXPECT_EQ(cfg.num_datasets, 200u);
}

TEST(Config, ApplyRejectsBadValues) {
  SimulationConfig cfg;
  auto bad_es = util::ConfigFile::parse("es = NotAThing\n");
  EXPECT_THROW(cfg.apply(bad_es), util::SimError);
  auto bad_share = util::ConfigFile::parse("share_policy = FairQueueing\n");
  EXPECT_THROW(cfg.apply(bad_share), util::SimError);
  auto bad_num = util::ConfigFile::parse("num_sites = -3\n");
  EXPECT_THROW(cfg.apply(bad_num), util::SimError);
}

TEST(Config, DescribeMentionsEveryKnob) {
  SimulationConfig cfg;
  std::string text = cfg.describe();
  for (const char* needle :
       {"num_users", "num_sites", "num_datasets", "link_bandwidth_mbps", "total_jobs",
        "geometric_p", "storage_capacity_mb", "replication_threshold", "es", "ds", "ls",
        "replica_selection", "share_policy", "seed", "info_staleness_s",
        "ds_neighbor_scope"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

SimulationConfig round_trip(const SimulationConfig& cfg) {
  SimulationConfig back;
  back.apply(util::ConfigFile::parse(cfg.describe()));
  return back;
}

TEST(Config, DescribeRoundTripsDefaults) {
  SimulationConfig cfg;
  EXPECT_EQ(round_trip(cfg), cfg);
  EXPECT_EQ(round_trip(cfg).describe(), cfg.describe());
}

TEST(Config, DescribeRoundTripsEveryKeyBitExact) {
  // Every field off its default, so a key missing from describe() or
  // apply() would come back as the default and fail the comparison.
  SimulationConfig cfg;
  cfg.num_users = 60;
  cfg.num_sites = 12;
  cfg.min_compute_elements = 3;
  cfg.max_compute_elements = 7;
  cfg.compute_speed_spread = 0.25;
  cfg.num_datasets = 150;
  cfg.min_dataset_mb = 400.75;
  cfg.max_dataset_mb = 1999.5;
  cfg.link_bandwidth_mbps = 12.5;
  cfg.total_jobs = 600;
  cfg.geometric_p = 0.0525;
  cfg.inputs_per_job = 2;
  cfg.compute_seconds_per_gb = 123.456;
  cfg.output_fraction = 0.1;
  cfg.user_focus = 1.0 / 3.0;
  cfg.storage_capacity_mb = 45678.9;
  cfg.replication_threshold = 7.5;
  cfg.ds_check_period_s = 299.9;
  cfg.popularity_half_life_s = 1800.0;
  cfg.num_regions = 4;
  cfg.topology = TopologyKind::Star;
  cfg.backbone_bandwidth_multiplier = 2.5;
  cfg.info_staleness_s = 0.1 + 0.2;  // 0.30000000000000004
  cfg.es_mapping = EsMapping::Centralized;
  cfg.central_decision_overhead_s = 0.75;
  cfg.submission_mode = SubmissionMode::OpenLoop;
  cfg.arrival_interval_s = 450.5;
  cfg.es = EsAlgorithm::JobBestEstimate;
  cfg.ds = DsAlgorithm::DataFastSpread;
  cfg.ls = LsAlgorithm::Sjf;
  cfg.replica_selection = ReplicaSelection::LeastLoadedSource;
  cfg.ds_neighbor_scope = NeighborScope::Region;
  cfg.share_policy = net::SharePolicy::NoContention;
  cfg.realloc_mode = net::ReallocationMode::Full;
  cfg.fault_site_crash_rate_per_hour = 0.02;
  cfg.fault_site_downtime_s = 1234.5;
  cfg.fault_transfer_fail_prob = 0.05;
  cfg.fault_catalog_loss_rate_per_hour = 1e-3;
  cfg.fault_horizon_s = 43200.0;
  cfg.fetch_retry_base_s = 15.0;
  cfg.fetch_retry_max_s = 900.0;
  cfg.fetch_max_retries = 12;
  cfg.resubmit_backoff_s = 90.0;
  cfg.max_job_resubmissions = 25;
  cfg.seed = std::numeric_limits<std::uint64_t>::max();
  ASSERT_NO_THROW(cfg.validate());
  ASSERT_TRUE(cfg.faults_enabled());

  SimulationConfig back = round_trip(cfg);
  // Equal doubles other than +-0 are the same bits; describe() also tells
  // -0 from 0.
  EXPECT_EQ(back, cfg) << cfg.describe();
  EXPECT_EQ(back.describe(), cfg.describe());
  EXPECT_NE(cfg.describe().find("link_bandwidth_mbps = 12.5\n"), std::string::npos);
  EXPECT_NE(cfg.describe().find("geometric_p = 0.0525\n"), std::string::npos);
}

TEST(Config, DescribePrintsOnlyKeys) {
  // Every line but the comment header is a key apply() accepts, once.
  SimulationConfig cfg;
  std::vector<std::string> seen;
  for (const std::string& line : util::split(cfg.describe(), '\n')) {
    if (line.empty() || line.front() == '#') continue;
    std::string key = util::trim(line.substr(0, line.find('=')));
    EXPECT_NO_THROW(cfg.apply(util::ConfigFile::parse(line))) << line;
    for (const auto& k : seen) EXPECT_NE(k, key);
    seen.push_back(key);
  }
  EXPECT_NE(cfg.describe().find("popularity_half_life_s = 0\n"), std::string::npos);
}

/// Applies `text` then validates; expects a SimError that names `key`.
void expect_rejected(const std::string& text, const std::string& key) {
  SimulationConfig cfg;
  try {
    cfg.apply(util::ConfigFile::parse(text));
    cfg.validate();
    ADD_FAILURE() << "accepted: " << text;
  } catch (const util::SimError& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
        << text << " -> " << e.what();
  }
}

TEST(Config, RejectionsNameTheKey) {
  expect_rejected("jbos = 5\n", "jbos");
  expect_rejected("info_staleness_s = nan\n", "info_staleness_s");
  expect_rejected("info_staleness_s = -1\n", "info_staleness_s");
  expect_rejected("popularity_half_life_s = -5\n", "popularity_half_life_s");
  expect_rejected("seed = -1\n", "seed");
  expect_rejected("realloc_mode = bogus\n", "realloc_mode");
  expect_rejected("geometric_p = 1\n", "geometric_p");
}

TEST(Config, DsCheckPeriodBelowOneSecondIsRejected) {
  // A sub-resolution period used to re-fire the DS timer at one instant
  // forever; the paper's period is 300 s.
  expect_rejected("ds_check_period_s = 1e-300\n", "ds_check_period_s");
  expect_rejected("ds_check_period_s = 0.5\n", "ds_check_period_s");
  SimulationConfig cfg;
  cfg.apply(util::ConfigFile::parse("ds_check_period_s = 1\n"));
  EXPECT_NO_THROW(cfg.validate());
}

/// The message of the SimError that applying `text` throws.
std::string apply_error(const std::string& text) {
  SimulationConfig cfg;
  try {
    cfg.apply(util::ConfigFile::parse(text));
  } catch (const util::SimError& e) {
    return e.what();
  }
  ADD_FAILURE() << "accepted: " << text;
  return "";
}

TEST(Config, UnknownKeyNamesNearestKnownKey) {
  EXPECT_EQ(apply_error("ds_check_perod_s = 300\n"),
            "config: unknown key 'ds_check_perod_s' (did you mean 'ds_check_period_s'?)");
  // Distance 2: a transposition counts as two edits.
  EXPECT_EQ(apply_error("sede = 3\n"), "config: unknown key 'sede' (did you mean 'seed'?)");
  EXPECT_EQ(apply_error("num_site = 3\n"),
            "config: unknown key 'num_site' (did you mean 'num_sites'?)");
  // Nothing within distance 2: no hint.
  EXPECT_EQ(apply_error("jbos = 5\n"), "config: unknown key 'jbos'");
  EXPECT_EQ(apply_error("bogus_knob = 1\n"), "config: unknown key 'bogus_knob'");
}

TEST(Config, EveryKeyRejectsNan) {
  SimulationConfig defaults;
  for (const std::string& line : util::split(defaults.describe(), '\n')) {
    if (line.empty() || line.front() == '#') continue;
    std::string key = util::trim(line.substr(0, line.find('=')));
    expect_rejected(key + " = nan\n", key);
  }
}

TEST(Config, ValidateRejectsNonFiniteDoubles) {
  SimulationConfig cfg;
  cfg.link_bandwidth_mbps = std::numeric_limits<double>::infinity();
  EXPECT_THROW(cfg.validate(), util::SimError);
  cfg = SimulationConfig{};
  cfg.user_focus = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(cfg.validate(), util::SimError);
}

/// Backticked spans of one table cell: "`a`, `b`" -> {a, b}.
std::vector<std::string> backticked(const std::string& cell) {
  std::vector<std::string> out;
  for (std::size_t b = cell.find('`'); b != std::string::npos; b = cell.find('`', b + 1)) {
    std::size_t e = cell.find('`', b + 1);
    out.push_back(cell.substr(b + 1, e - b - 1));
    b = e;
  }
  return out;
}

TEST(Config, ReadmeKnobTableMatchesKeysAndDefaults) {
  std::ifstream in(CHICSIM_README_PATH);
  ASSERT_TRUE(in) << CHICSIM_README_PATH;
  std::string line;
  bool in_table = false;
  std::size_t knobs = 0;
  while (std::getline(in, line)) {
    if (line.starts_with("| knob | default |")) {
      in_table = true;
    } else if (in_table && !line.starts_with("|")) {
      break;
    } else if (in_table && !line.starts_with("|---")) {
      auto cells = util::split(line, '|');
      ASSERT_GE(cells.size(), 3u) << line;
      auto keys = backticked(cells[1]);
      auto defaults = backticked(cells[2]);
      ASSERT_EQ(keys.size(), defaults.size()) << line;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        // Applying the stated default to the defaults must change nothing.
        SimulationConfig cfg;
        EXPECT_NO_THROW(cfg.apply(util::ConfigFile::parse(keys[i] + " = " + defaults[i])))
            << keys[i];
        EXPECT_EQ(cfg, SimulationConfig{}) << keys[i] << " default " << defaults[i];
        ++knobs;
      }
    }
  }
  EXPECT_GE(knobs, 10u);
}

TEST(Config, StalenessDefaultIsDocumentedValue) {
  SimulationConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.info_staleness_s, 120.0);
}

}  // namespace
}  // namespace chicsim::core
