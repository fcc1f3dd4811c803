// Algorithm identifiers for the three scheduler families (§4) plus the
// extensions implemented beyond the paper.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/enum_names.hpp"

namespace chicsim::core {

/// External Scheduler algorithms: where does a submitted job run?
enum class EsAlgorithm : std::uint8_t {
  JobRandom,       ///< a randomly selected site
  JobLeastLoaded,  ///< the site with the fewest waiting jobs
  JobDataPresent,  ///< a site already holding the data (least loaded on ties)
  JobLocal,        ///< always run where the job originated
  JobAdaptive,     ///< extension: paper §5.4/§6 adaptive policy
  JobBestEstimate, ///< extension: full scan of the completion-time estimate
};

/// Dataset Scheduler algorithms: if/when/where to replicate popular data.
enum class DsAlgorithm : std::uint8_t {
  DataDoNothing,    ///< no active replication (fetch + LRU caching only)
  DataRandom,       ///< popular datasets pushed to a random site
  DataLeastLoaded,  ///< popular datasets pushed to the least-loaded neighbour
  DataBestClient,   ///< extension (GRID'01 companion): push to the top requester
  DataFastSpread,   ///< extension (GRID'01 companion): cache at every fetch requester tier
};

/// Local Scheduler algorithms: ordering within one site.
enum class LsAlgorithm : std::uint8_t {
  Fifo,      ///< paper default: strict arrival order (head-of-line blocking)
  FifoSkip,  ///< extension: first *data-ready* job in arrival order
  Sjf,       ///< extension: shortest data-ready job first
};

/// How External Schedulers are deployed (§3: "different mappings between
/// users and External Schedulers lead to different scenarios ... a single
/// ES in the system would mean a central scheduler").
enum class EsMapping : std::uint8_t {
  Distributed,  ///< one ES per site, decisions instantaneous (paper setup)
  Centralized,  ///< a single ES processes all submissions serially, each
                ///< decision taking central_decision_overhead_s
};

/// Network shape the Grid builds.
enum class TopologyKind : std::uint8_t {
  Hierarchy,  ///< GriPhyN-like tree: sites -> regional routers -> root (paper)
  Star,       ///< every site on one central router (flat ablation)
};

/// How users generate jobs over time.
enum class SubmissionMode : std::uint8_t {
  ClosedLoop,  ///< paper (§5.1): next job only after the previous completes
  OpenLoop,    ///< extension: exponential interarrivals regardless of
               ///< completions — enables offered-load sweeps
};

/// The Dataset Scheduler's "list of known sites" (its neighbours).
/// The paper defines neighbours loosely; its finding that DataLeastLoaded
/// and DataRandom perform alike indicates a grid-wide horizon, which is the
/// default. Region restricts the list to same-region leaf sites (ablation).
enum class NeighborScope : std::uint8_t {
  Grid,    ///< every other site
  Region,  ///< leaf sites under the same regional router
};

/// How the data mover picks a source replica for a fetch.
enum class ReplicaSelection : std::uint8_t {
  Closest,            ///< fewest hops; ties by source load, then index
  Random,             ///< uniformly random holder
  LeastLoadedSource,  ///< holder with the fewest waiting jobs
};

// The name tables: each enumerator's spelling, in declaration order.
constexpr auto enum_names(EsAlgorithm) {
  return util::enum_table<EsAlgorithm>("external-scheduler algorithm", "JobRandom",
                                       "JobLeastLoaded", "JobDataPresent", "JobLocal",
                                       "JobAdaptive", "JobBestEstimate");
}
constexpr auto enum_names(DsAlgorithm) {
  return util::enum_table<DsAlgorithm>("dataset-scheduler algorithm", "DataDoNothing",
                                       "DataRandom", "DataLeastLoaded", "DataBestClient",
                                       "DataFastSpread");
}
constexpr auto enum_names(LsAlgorithm) {
  return util::enum_table<LsAlgorithm>("local-scheduler algorithm", "Fifo", "FifoSkip", "Sjf");
}
constexpr auto enum_names(EsMapping) {
  return util::enum_table<EsMapping>("es mapping", "Distributed", "Centralized");
}
constexpr auto enum_names(TopologyKind) {
  return util::enum_table<TopologyKind>("topology kind", "Hierarchy", "Star");
}
constexpr auto enum_names(SubmissionMode) {
  return util::enum_table<SubmissionMode>("submission mode", "ClosedLoop", "OpenLoop");
}
constexpr auto enum_names(NeighborScope) {
  return util::enum_table<NeighborScope>("neighbor scope", "Grid", "Region");
}
constexpr auto enum_names(ReplicaSelection) {
  return util::enum_table<ReplicaSelection>("replica selection", "Closest", "Random",
                                            "LeastLoadedSource");
}

/// Name of any enum with a name table (these, the net:: ones, and the
/// event, fault and critical-path enums).
template <typename Enum>
  requires requires(Enum e) { enum_names(e); }
[[nodiscard]] constexpr const char* to_string(Enum e) {
  return enum_names(e).name(e);
}

/// Case-insensitive parse of any enum with a name table; throws
/// util::SimError naming the choices on an unknown name.
template <typename Enum>
  requires requires(Enum e) { enum_names(e); }
[[nodiscard]] Enum from_string(std::string_view name) {
  return enum_names(Enum{}).parse(name);
}

/// The 4 ES and 3 DS algorithms evaluated in the paper (matrix order of
/// Figures 3-4).
[[nodiscard]] const std::vector<EsAlgorithm>& paper_es_algorithms();
[[nodiscard]] const std::vector<DsAlgorithm>& paper_ds_algorithms();

/// Everything implemented (paper + extensions).
[[nodiscard]] const std::vector<EsAlgorithm>& all_es_algorithms();
[[nodiscard]] const std::vector<DsAlgorithm>& all_ds_algorithms();

}  // namespace chicsim::core
