// The scheduling framework (§3): the three policy interfaces and the
// observation interface they schedule against.
//
// The paper's key architectural claim is that scheduling logic decomposes
// into an External Scheduler (job placement), Local Scheduler (per-site
// ordering), and Dataset Scheduler (asynchronous replication), with each
// policy consuming only *external information* — site loads, replica
// locations — obtainable from an information service. GridView is exactly
// that information service boundary: policies cannot reach into the Grid's
// internals, only query what MDS/NWS-style services of the era exposed.
#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "data/dataset.hpp"
#include "data/replica_catalog.hpp"
#include "site/job.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace chicsim::core {

/// Read-only view of the Grid available to scheduling policies.
class GridView {
 public:
  virtual ~GridView() = default;

  [[nodiscard]] virtual std::size_t num_sites() const = 0;

  /// The paper's load metric: number of jobs waiting to run at the site.
  [[nodiscard]] virtual std::size_t site_load(data::SiteIndex site) const = 0;

  /// Whether the information service believes the site is up. Like loads
  /// and replica locations this is staleness-delayed: a freshly crashed
  /// site keeps looking alive until the next publication epoch, so
  /// policies can route to it and the dispatch machinery must re-check
  /// ground truth. Defaults to true so fault-oblivious views stay valid.
  [[nodiscard]] virtual bool site_alive(data::SiteIndex site) const {
    (void)site;
    return true;
  }

  /// Compute elements at the site (for completion-time estimates).
  [[nodiscard]] virtual std::size_t site_compute_elements(data::SiteIndex site) const = 0;

  /// Relative processor speed of the site (1.0 everywhere in the paper's
  /// homogeneous model; varies under the heterogeneity extension).
  [[nodiscard]] virtual double site_speed_factor(data::SiteIndex site) const = 0;

  /// Sites currently holding a replica of `dataset`. Read the list before
  /// the simulation moves on: it may change when the catalog does.
  [[nodiscard]] virtual const std::vector<data::SiteIndex>& replica_sites(
      data::DatasetId dataset) const = 0;

  [[nodiscard]] virtual bool site_has_dataset(data::SiteIndex site,
                                              data::DatasetId dataset) const = 0;

  [[nodiscard]] virtual util::Megabytes dataset_size_mb(data::DatasetId dataset) const = 0;

  /// Network distance between sites, in links.
  [[nodiscard]] virtual std::size_t hops(data::SiteIndex a, data::SiteIndex b) const = 0;

  /// The DS's "list of known sites": every site in `site`'s
  /// ds_neighbor_scope (the whole grid, or its region), ascending, `site`
  /// itself included. Sites of one scope share one list.
  [[nodiscard]] virtual const std::vector<data::SiteIndex>& neighbors(
      data::SiteIndex site) const = 0;

  /// Largest number of concurrent flows on any link of the a->b route
  /// (0 = idle path). The NWS-style congestion signal used by JobAdaptive.
  [[nodiscard]] virtual std::size_t path_congestion(data::SiteIndex a,
                                                    data::SiteIndex b) const = 0;

  /// Nominal bandwidth of the slowest link on the a->b route.
  [[nodiscard]] virtual util::MbPerSec path_bandwidth_mbps(data::SiteIndex a,
                                                           data::SiteIndex b) const = 0;

  [[nodiscard]] virtual util::SimTime now() const = 0;

  /// Sites a placement may consider, ascending: every site the view
  /// believes is alive — or every site when it believes none is (the
  /// dispatch guard then holds the job with backoff until something
  /// recovers, which beats a policy crash). The default scans num_sites()
  /// and site_alive(); an indexed view may answer from a cache with the
  /// same contents. The reference stays valid until the next call of
  /// alive_sites() or least_loaded_alive() on this view.
  [[nodiscard]] virtual const std::vector<data::SiteIndex>& alive_sites() const;

  /// The sites of alive_sites() with the lowest site_load(), in the same
  /// order (the tie list a least-loaded placement draws from). The default
  /// reads each of those sites' load once. Same reference lifetime.
  [[nodiscard]] virtual const std::vector<data::SiteIndex>& least_loaded_alive() const;

 protected:
  /// The placement rules both lists follow, for the defaults and for
  /// indexed views alike. `out` becomes the sites s < n with `alive(s)`,
  /// ascending — or all n when there are none.
  template <typename Alive>
  static void collect_alive(std::size_t n, Alive alive, std::vector<data::SiteIndex>& out) {
    out.clear();
    for (std::size_t i = 0; i < n; ++i) {
      auto s = static_cast<data::SiteIndex>(i);
      if (alive(s)) out.push_back(s);
    }
    if (out.empty()) {
      for (std::size_t i = 0; i < n; ++i) out.push_back(static_cast<data::SiteIndex>(i));
    }
  }

  /// `out` becomes the sites of `sites` with the lowest `load(s)`, in
  /// order; each load is read once.
  template <typename Load>
  static void collect_least_loaded(const std::vector<data::SiteIndex>& sites, Load load,
                                   std::vector<data::SiteIndex>& out) {
    std::size_t best = static_cast<std::size_t>(-1);
    out.clear();
    for (data::SiteIndex s : sites) {
      std::size_t l = load(s);
      if (l < best) {
        best = l;
        out.clear();
      }
      if (l == best) out.push_back(s);
    }
  }

 private:
  mutable std::vector<data::SiteIndex> scan_alive_;  ///< default scans' results
  mutable std::vector<data::SiteIndex> scan_least_loaded_;
};

/// External Scheduler: picks the execution site for one submitted job.
class ExternalScheduler {
 public:
  virtual ~ExternalScheduler() = default;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Called once per job at submission time, at the job's origin site.
  [[nodiscard]] virtual data::SiteIndex select_site(const site::Job& job,
                                                    const GridView& view,
                                                    util::Rng& rng) = 0;
};

/// Local Scheduler: picks which queued job starts when a processor frees.
class LocalScheduler {
 public:
  virtual ~LocalScheduler() = default;
  [[nodiscard]] virtual const char* name() const = 0;

  /// `queue` is in arrival order; `job_of` resolves ids. Return kNoJob when
  /// nothing may start (empty queue, or policy blocks on data).
  [[nodiscard]] virtual site::JobId pick_next(
      const std::deque<site::JobId>& queue,
      const std::function<const site::Job&(site::JobId)>& job_of) = 0;
};

/// Actions a Dataset Scheduler may take, offered by the Grid.
class ReplicationContext {
 public:
  virtual ~ReplicationContext() = default;

  /// The site this DS instance runs at.
  [[nodiscard]] virtual data::SiteIndex self() const = 0;

  [[nodiscard]] virtual const GridView& view() const = 0;

  /// Asynchronously push a locally held dataset to `destination`; no-op
  /// when the destination already holds it or a push is already in flight.
  virtual void replicate(data::DatasetId dataset, data::SiteIndex destination) = 0;

  /// Datasets held locally whose request count since last reset is at or
  /// above `threshold`, hottest first.
  [[nodiscard]] virtual std::vector<data::DatasetId> popular_datasets(
      double threshold) const = 0;

  /// Reset the popularity counter after acting on a dataset.
  virtual void reset_popularity(data::DatasetId dataset) = 0;

  /// The remote site whose community has demanded `dataset` from this site
  /// most often — measured by the *origin* of the requesting jobs, so the
  /// signal survives schedulers that move jobs to the data (kNoSite when
  /// demand has only ever been local). Drives DataBestClient.
  [[nodiscard]] virtual data::SiteIndex top_requester(data::DatasetId dataset) const = 0;

  /// Replication pushes currently in flight toward `site` (from anywhere).
  /// Lets load-aware replication avoid piling every hot dataset onto the
  /// single momentarily-coldest site.
  [[nodiscard]] virtual std::size_t inbound_replications(data::SiteIndex site) const = 0;
};

/// The DatasetScheduler::popularity_threshold() of a DS whose evaluate()
/// is always a no-op: no count reaches it.
inline constexpr double kNeverEvaluate = std::numeric_limits<double>::infinity();

/// Dataset Scheduler: decides if/when/where to replicate popular datasets.
class DatasetScheduler {
 public:
  virtual ~DatasetScheduler() = default;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Called every ds_check_period_s of virtual time, at each site that may
  /// need it (see popularity_threshold), in ascending site order.
  virtual void evaluate(ReplicationContext& ctx, util::Rng& rng) = 0;

  /// The popularity count below which evaluate() is a no-op: if no dataset
  /// the site holds has a count at or over it, evaluate() must not act,
  /// draw from `rng`, or change any state. The driver then evaluates only
  /// sites holding such a dataset (evaluate() still runs at dead sites).
  /// nullopt, the default, declares nothing: every site is evaluated on
  /// every tick. kNeverEvaluate declares that no site ever needs it.
  [[nodiscard]] virtual std::optional<double> popularity_threshold() const {
    return std::nullopt;
  }

  /// Hook invoked when a remote site fetches `dataset` from this DS's site
  /// (used by DataFastSpread; default does nothing).
  virtual void on_remote_fetch(ReplicationContext& ctx, data::DatasetId dataset,
                               data::SiteIndex requester, util::Rng& rng);
};

}  // namespace chicsim::core
