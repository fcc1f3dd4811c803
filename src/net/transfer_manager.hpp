// Contention-aware data transfers (the paper's network model, §5.1):
//
//   "The transfer of input files from one site to another incurs a cost
//    corresponding to the size of the file divided by the nominal speed of
//    the link. We model network contention by keeping track of the number
//    of simultaneous data transfers across a link and decreasing the
//    bandwidth available for each transfer accordingly."
//
// We implement this as a fluid flow model.  Every active transfer f has a
// current rate r(f); whenever the set of active transfers changes, all
// flows are settled (remaining bytes advanced at the old rates), affected
// rates are recomputed, and the completion events of flows whose rate
// actually changed are rescheduled (see ReallocationMode below for the
// incremental strategy and its exactness argument).  Two allocation
// policies are provided:
//
//  * EqualShare (paper-faithful): r(f) = min over links l on f's path of
//    capacity(l) / n(l), where n(l) counts flows crossing l.  This never
//    oversubscribes a link (each flow takes at most its equal share of
//    every link it crosses).
//  * MaxMin: progressive filling to the max-min fair allocation — an
//    ablation showing the results are insensitive to the sharing model.
//
// Transfers between co-located endpoints (src == dst) complete after zero
// virtual time (all processors at a site access all storage at that site,
// §3), but still go through the event calendar so completion callbacks are
// never re-entrant.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "util/enum_names.hpp"
#include "util/units.hpp"

namespace chicsim::net {

using TransferId = std::uint64_t;
inline constexpr TransferId kNoTransfer = 0;

enum class SharePolicy : std::uint8_t {
  EqualShare,    ///< paper model: bottleneck equal split
  MaxMin,        ///< max-min fairness (water filling)
  NoContention,  ///< ablation: every flow gets the full bottleneck bandwidth
};

/// How reallocate() turns recomputed rates into calendar updates.
///
/// * Full — every flow's rate is recomputed, but the completion event is
///   only cancelled/rescheduled when the rate actually changed. A flow
///   whose rate is unchanged keeps its event: the previously computed
///   finish time is still exact, so the calendar stays untouched.
/// * Incremental (default) — additionally skips the rate recomputation for
///   flows that cross no link whose flow count or bandwidth scale changed
///   since the last reallocation. For EqualShare and NoContention a flow's
///   rate is a pure function of the capacities and flow counts on its own
///   path, so such flows provably keep a bit-identical rate. MaxMin's
///   progressive filling is global, so under MaxMin Incremental behaves
///   exactly like Full.
///
/// Full and Incremental produce bit-identical schedules (asserted by the
/// A/B equivalence test over the whole paper matrix).
enum class ReallocationMode : std::uint8_t {
  Full,
  Incremental,
};

constexpr auto enum_names(SharePolicy) {
  return util::enum_table<SharePolicy>("share policy", "EqualShare", "MaxMin", "NoContention");
}
constexpr auto enum_names(ReallocationMode) {
  return util::enum_table<ReallocationMode>("reallocation mode", "Full", "Incremental");
}

/// Why a transfer was initiated; used to split accounting between
/// job-driven fetches, DS-driven replication (Figure 3b counts both) and
/// the optional output-return extension.
enum class TransferPurpose : std::uint8_t {
  JobFetch = 0,
  Replication = 1,
  OutputReturn = 2,
  Other = 3,
};
inline constexpr std::size_t kNumTransferPurposes = 4;

struct TransferStats {
  /// Megabytes delivered end-to-end, per purpose (a 1 GB file moved once
  /// counts 1000 MB regardless of hop count).
  double delivered_mb[kNumTransferPurposes] = {0, 0, 0, 0};
  /// Megabyte-hops: megabytes multiplied by links traversed (bandwidth
  /// actually consumed from the network).
  double delivered_mb_hops = 0.0;
  std::uint64_t transfers_started = 0;
  std::uint64_t transfers_completed = 0;
  std::uint64_t transfers_aborted = 0;
  std::uint64_t local_transfers = 0;

  // Reallocation hot-path counters (see ReallocationMode).
  std::uint64_t reallocations = 0;            ///< reallocate() invocations
  std::uint64_t flows_rescheduled = 0;        ///< completion events cancel+pushed
  std::uint64_t reschedules_skipped = 0;      ///< rate unchanged: event kept
  std::uint64_t rate_recomputes_skipped = 0;  ///< flow crossed no dirty link

  [[nodiscard]] double total_delivered_mb() const {
    double total = 0.0;
    for (double mb : delivered_mb) total += mb;
    return total;
  }
};

class TransferManager {
 public:
  using CompletionFn = std::function<void(TransferId)>;

  TransferManager(sim::Engine& engine, const Topology& topo, const Routing& routing,
                  SharePolicy policy = SharePolicy::EqualShare,
                  ReallocationMode mode = ReallocationMode::Incremental);

  TransferManager(const TransferManager&) = delete;
  TransferManager& operator=(const TransferManager&) = delete;

  /// Begin moving `size_mb` megabytes from `src` to `dst`. `on_complete`
  /// fires through the event calendar when the last byte arrives.
  TransferId start(NodeId src, NodeId dst, util::Megabytes size_mb, TransferPurpose purpose,
                   CompletionFn on_complete);

  /// True while the transfer has not completed.
  [[nodiscard]] bool active(TransferId id) const;

  /// Tear down an in-flight transfer without delivering it: the completion
  /// callback never fires, the flow's link shares are returned to the pool
  /// and remaining flows are re-planned. Megabytes already moved stay in
  /// the mb-hop accounting (bandwidth was genuinely consumed); nothing is
  /// added to delivered_mb. The id must be active.
  void abort(TransferId id);

  /// Number of in-flight transfers.
  [[nodiscard]] std::size_t active_count() const { return flows_.size(); }

  /// Current rate of an active transfer (MB/s).
  [[nodiscard]] util::MbPerSec current_rate(TransferId id) const;

  /// Remaining megabytes of an active transfer, settled to `now`.
  [[nodiscard]] util::Megabytes remaining_mb(TransferId id) const;

  /// Degrade (or restore) a link's effective bandwidth at the current
  /// virtual time: capacity becomes nominal x `scale`. In-flight transfers
  /// are settled at their old rates and re-planned immediately — the
  /// fault-injection hook for degraded-network scenarios. `scale` must be
  /// positive (model a failed link as a severe degradation, e.g. 0.01).
  void set_bandwidth_scale(LinkId link, double scale);

  /// Current bandwidth scale of a link (1.0 = nominal).
  [[nodiscard]] double bandwidth_scale(LinkId link) const;

  /// Number of flows currently crossing `link`.
  [[nodiscard]] std::size_t flows_on_link(LinkId link) const;

  /// Cumulative time-integral of "link has at least one flow", per link.
  [[nodiscard]] util::SimTime link_busy_time(LinkId link) const;

  /// Number of links in the underlying topology.
  [[nodiscard]] std::size_t link_count() const { return link_busy_time_.size(); }

  [[nodiscard]] const TransferStats& stats() const { return stats_; }
  [[nodiscard]] SharePolicy policy() const { return policy_; }
  [[nodiscard]] ReallocationMode reallocation_mode() const { return mode_; }

 private:
  struct Flow {
    NodeId src = kNoNode;
    NodeId dst = kNoNode;
    util::Megabytes size_mb = 0.0;
    util::Megabytes remaining_mb = 0.0;
    util::MbPerSec rate = 0.0;
    TransferPurpose purpose = TransferPurpose::Other;
    CompletionFn on_complete;
    sim::EventId completion_event = sim::kNoEvent;
    const std::vector<LinkId>* path = nullptr;  // owned by Routing's cache
  };

  /// Advance every flow's remaining bytes to the current time at the old
  /// rates and accumulate link-busy statistics.
  void settle();

  /// Recompute flow rates under the active policy and bring the completion
  /// events up to date, per the active ReallocationMode.
  void reallocate();

  /// Bottleneck rate of one flow under EqualShare / NoContention.
  [[nodiscard]] double path_rate(const Flow& f) const;
  void compute_rates_max_min();

  /// Cancel + reschedule `f`'s completion event for its (already updated)
  /// rate — or keep the event when the rate is bit-identical to `old_rate`.
  void update_completion_event(TransferId id, Flow& f, double old_rate, util::SimTime now);

  /// Mark a link whose flow count or capacity changed since the last
  /// reallocation.
  void mark_link_dirty(LinkId link);
  [[nodiscard]] bool crosses_dirty_link(const Flow& f) const;

  void on_completion_event(TransferId id);
  void finish(TransferId id);

  using FlowVec = std::vector<std::pair<TransferId, Flow>>;

  /// Binary search by id (flows_ is sorted); end() when not active.
  [[nodiscard]] FlowVec::iterator find_flow(TransferId id);
  [[nodiscard]] FlowVec::const_iterator find_flow(TransferId id) const;

  sim::Engine& engine_;
  const Topology& topo_;
  const Routing& routing_;
  SharePolicy policy_;

  /// Effective capacity of a link right now (nominal x scale).
  [[nodiscard]] double capacity(LinkId link) const;

  /// Sorted by TransferId: ids are handed out by an increasing counter, so
  /// emplace_back keeps the vector ordered and iteration is creation order
  /// on every platform. settle() and reallocate() walk this container, and
  /// that walk order decides both the summation order of delivered_mb_hops
  /// and the EventId assignment order of rescheduled completions — with a
  /// hash map it would be a function of libc++ bucket internals instead. A
  /// contiguous vector keeps those walks (the reallocation hot path) cache
  /// friendly; lookups binary-search, erase shifts the tail (both are once
  /// per transfer event, the walks happen several times per event).
  std::vector<std::pair<TransferId, Flow>> flows_;
  std::vector<std::size_t> link_flow_count_;
  std::vector<util::SimTime> link_busy_time_;
  std::vector<double> link_scale_;
  /// Links whose flow count or scale changed since the last reallocate();
  /// the flag vector answers "is dirty?" in O(1), the id list makes
  /// clearing O(dirty) instead of O(links).
  std::vector<std::uint8_t> link_dirty_;
  std::vector<LinkId> dirty_links_;
  /// Scratch for MaxMin's old-rate snapshot (avoids per-reallocate allocs).
  std::vector<double> old_rate_scratch_;
  util::SimTime last_settle_ = 0.0;
  TransferId next_id_ = 1;
  ReallocationMode mode_;
  TransferStats stats_;
};

}  // namespace chicsim::net
