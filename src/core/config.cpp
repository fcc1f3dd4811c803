#include "core/config.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace chicsim::core {

namespace {

using C = SimulationConfig;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The values validate() accepts for one numeric key: [lo, hi) unless the
/// flags say otherwise, so {0, 1} is [0, 1) and the default is [0, inf).
struct Range {
  double lo = 0.0;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = true;

  [[nodiscard]] bool contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
  [[nodiscard]] std::string text() const {
    std::string out(lo_open ? "(" : "[");
    out += util::format_exact(lo) + ", " + util::format_exact(hi);
    out += hi_open ? ')' : ']';
    return out;
  }
};

constexpr Range kNonNegative{};
constexpr Range kPositive{0.0, kInf, true};
constexpr Range kAtLeastOne{1.0};

/// One row of the key table: the name in config files, the member it sets
/// and, for numbers, its range.
template <typename T>
struct Key {
  const char* name;
  T C::*member;
  Range range{};
};
template <typename T>
Key(const char*, T C::*, Range = {}) -> Key<T>;

/// Every configuration key, in describe() order. This is the only list.
constexpr std::tuple kKeys{
    Key{"num_users", &C::num_users, kAtLeastOne},
    Key{"num_sites", &C::num_sites, kAtLeastOne},
    Key{"min_compute_elements", &C::min_compute_elements, kAtLeastOne},
    Key{"max_compute_elements", &C::max_compute_elements, kAtLeastOne},
    Key{"compute_speed_spread", &C::compute_speed_spread, {0.0, 1.0}},
    Key{"num_datasets", &C::num_datasets, kAtLeastOne},
    Key{"min_dataset_mb", &C::min_dataset_mb, kPositive},
    Key{"max_dataset_mb", &C::max_dataset_mb, kPositive},
    Key{"link_bandwidth_mbps", &C::link_bandwidth_mbps, kPositive},
    Key{"total_jobs", &C::total_jobs, kAtLeastOne},
    Key{"geometric_p", &C::geometric_p, {0.0, 1.0, true}},
    Key{"inputs_per_job", &C::inputs_per_job, kAtLeastOne},
    Key{"compute_seconds_per_gb", &C::compute_seconds_per_gb, kPositive},
    Key{"output_fraction", &C::output_fraction, kNonNegative},
    Key{"user_focus", &C::user_focus, {0.0, 1.0, false, false}},
    Key{"storage_capacity_mb", &C::storage_capacity_mb, kPositive},
    Key{"replication_threshold", &C::replication_threshold, kPositive},
    // At least a second: the DS timer (and simulate's timeline) re-arm
    // every period, and a sub-resolution period would never advance time.
    Key{"ds_check_period_s", &C::ds_check_period_s, kAtLeastOne},
    Key{"popularity_half_life_s", &C::popularity_half_life_s, kNonNegative},
    Key{"num_regions", &C::num_regions, kAtLeastOne},
    Key{"topology", &C::topology},
    Key{"backbone_bandwidth_multiplier", &C::backbone_bandwidth_multiplier, kPositive},
    Key{"info_staleness_s", &C::info_staleness_s, kNonNegative},
    Key{"es_mapping", &C::es_mapping},
    Key{"central_decision_overhead_s", &C::central_decision_overhead_s, kNonNegative},
    Key{"submission_mode", &C::submission_mode},
    Key{"arrival_interval_s", &C::arrival_interval_s, kPositive},
    Key{"es", &C::es},
    Key{"ds", &C::ds},
    Key{"ls", &C::ls},
    Key{"replica_selection", &C::replica_selection},
    Key{"ds_neighbor_scope", &C::ds_neighbor_scope},
    Key{"share_policy", &C::share_policy},
    Key{"realloc_mode", &C::realloc_mode},
    Key{"fault_site_crash_rate_per_hour", &C::fault_site_crash_rate_per_hour, kNonNegative},
    Key{"fault_site_downtime_s", &C::fault_site_downtime_s, kPositive},
    Key{"fault_transfer_fail_prob", &C::fault_transfer_fail_prob, {0.0, 1.0}},
    Key{"fault_catalog_loss_rate_per_hour", &C::fault_catalog_loss_rate_per_hour,
        kNonNegative},
    Key{"fault_horizon_s", &C::fault_horizon_s, kPositive},
    Key{"fetch_retry_base_s", &C::fetch_retry_base_s, kPositive},
    Key{"fetch_retry_max_s", &C::fetch_retry_max_s, kPositive},
    Key{"fetch_max_retries", &C::fetch_max_retries, kAtLeastOne},
    Key{"resubmit_backoff_s", &C::resubmit_backoff_s, kPositive},
    Key{"max_job_resubmissions", &C::max_job_resubmissions, kAtLeastOne},
    Key{"seed", &C::seed, kNonNegative},
};

template <typename Fn>
void for_each_key(Fn&& fn) {
  std::apply([&](const auto&... key) { (fn(key), ...); }, kKeys);
}

/// Parse `raw` into `field`; throws naming the key when malformed.
template <typename T>
void parse_value(const char* key, const std::string& raw, T& field) {
  std::optional<T> v;
  std::string expected;
  if constexpr (std::is_enum_v<T>) {
    v = enum_names(field).find(raw);
    expected = "one of " + enum_names(field).choices();
  } else if constexpr (std::is_floating_point_v<T>) {
    v = util::parse_double(raw);
    expected = "a finite number";
  } else {
    T n{};
    auto [end, ec] = std::from_chars(raw.data(), raw.data() + raw.size(), n);
    if (ec == std::errc{} && end == raw.data() + raw.size()) v = n;
    expected = "a non-negative integer";
  }
  if (!v) {
    throw util::SimError(std::string("config: ") + key + " expects " + expected + ", got '" +
                         raw + "'");
  }
  field = *v;
}

/// Levenshtein distance between `a` and `b` (one rolling row).
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      std::size_t above = row[j];
      row[j] = std::min({above + 1, row[j - 1] + 1, diagonal + (a[i - 1] != b[j - 1] ? 1 : 0)});
      diagonal = above;
    }
  }
  return row[b.size()];
}

/// The unknown-key error, naming the nearest known key (the first in table
/// order) when one is within edit distance 2.
std::string unknown_key_message(const std::string& name) {
  std::string out = "config: unknown key '" + name + "'";
  const char* nearest = nullptr;
  std::size_t best = 3;
  for_each_key([&](const auto& key) {
    std::size_t d = edit_distance(name, key.name);
    if (d < best) {
      best = d;
      nearest = key.name;
    }
  });
  if (nearest != nullptr) out += std::string(" (did you mean '") + nearest + "'?)";
  return out;
}

template <typename T>
std::string format_value(T v) {
  if constexpr (std::is_enum_v<T>) {
    return to_string(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    return util::format_exact(v);
  } else {
    return std::to_string(v);
  }
}

}  // namespace

void SimulationConfig::validate() const {
  for_each_key([this](const auto& key) {
    const auto& v = this->*key.member;
    if constexpr (!std::is_enum_v<std::remove_cvref_t<decltype(v)>>) {
      const auto x = static_cast<double>(v);
      if (!std::isfinite(x) || !key.range.contains(x)) {
        throw util::SimError(std::string("config: ") + key.name + " = " + format_value(v) +
                             " is outside " + key.range.text());
      }
    }
  });
  auto require = [](bool ok, const char* what) {
    if (!ok) throw util::SimError(std::string("config: ") + what);
  };
  require(num_regions <= num_sites, "num_regions must be <= num_sites");
  require(max_compute_elements >= min_compute_elements,
          "max_compute_elements must be >= min_compute_elements");
  require(max_dataset_mb >= min_dataset_mb, "max_dataset_mb must be >= min_dataset_mb");
  require(total_jobs % num_users == 0, "total_jobs must divide evenly across users");
  require(inputs_per_job <= num_datasets, "inputs_per_job exceeds dataset count");
  require(storage_capacity_mb >= max_dataset_mb,
          "storage_capacity_mb must hold at least one largest dataset");
  require(fetch_retry_max_s >= fetch_retry_base_s,
          "fetch_retry_max_s must be >= fetch_retry_base_s");
  // Pinned masters must fit: expected load per site is
  // num_datasets/num_sites files of at most max_dataset_mb. We cannot know
  // the random placement here, so this is checked exactly at Grid build.
}

void SimulationConfig::apply(const util::ConfigFile& file) {
  for (const std::string& name : file.keys()) {
    bool known = false;
    for_each_key([&](const auto& key) {
      if (name != key.name) return;
      known = true;
      parse_value(key.name, *file.get(name), this->*key.member);
    });
    if (!known) throw util::SimError(unknown_key_message(name));
  }
}

std::string SimulationConfig::describe() const {
  std::string out = "# SimulationConfig\n";
  for_each_key([&](const auto& key) {
    out += std::string(key.name) + " = " + format_value(this->*key.member) + "\n";
  });
  return out;
}

}  // namespace chicsim::core
