// Contention-aware data transfers (the paper's network model, §5.1):
//
//   "The transfer of input files from one site to another incurs a cost
//    corresponding to the size of the file divided by the nominal speed of
//    the link. We model network contention by keeping track of the number
//    of simultaneous data transfers across a link and decreasing the
//    bandwidth available for each transfer accordingly."
//
// We implement this as a fluid flow model.  Every active transfer f has a
// current rate r(f); whenever the set of active transfers or a link's
// capacity changes, all flows are settled (remaining bytes advanced at the
// old rates) and the rates of the flows crossing a changed link are
// recomputed (see ReallocationMode).  The work per change is proportional
// to the flows on the changed links, apart from the settle walk:
//
//  * Flows live in a recycled slot table with an id-ordered index, so
//    settle() sums mb-hops in creation order. Each flow keeps its own copy
//    of its links, and each link keeps the list of flows on it.
//  * A per-link share (capacity / flow count) is refreshed only when the
//    link changes; a flow's rate is the minimum share along its path.
//  * Projected completions sit in an internal indexed min-heap. Only its
//    head is in the engine calendar, as one "transfer_completion" event.
//
// Equal-time order is exactly that of a calendar holding one event per flow,
// where every re-planned flow pushed a new event, in id order, at each
// reallocation. Each re-plan still takes the sequence number that push
// would have taken (Engine::reserve_sequence), so every other event keeps
// its sequence. One reallocation's re-plans take consecutive numbers
// b, b+1, ..., in id order, and no other event can hold a number in that
// block. So ordering completions by (finish time, b, id) is ordering them
// by their sequences, and the head, pushed under b (schedule_reserved),
// ties against every other event as it would under its own number. Nothing
// has to be sorted: the reallocation visits the changed flows in any order.
//
// Two allocation policies are provided:
//
//  * EqualShare (paper-faithful): r(f) = min over links l on f's path of
//    capacity(l) / n(l), where n(l) counts flows crossing l.  This never
//    oversubscribes a link (each flow takes at most its equal share of
//    every link it crosses).
//  * MaxMin: progressive filling to the max-min fair allocation — an
//    ablation showing the results are insensitive to the sharing model.
//
// Every transfer crosses at least one link: start() rejects co-located
// endpoints. A job whose input already sits at its execution site reads it
// from local storage (all processors at a site access all storage at that
// site, §3) without asking the network — see FetchPlanner::request_input.
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

/// Which flows reallocate() visits. A visited flow's rate is recomputed;
/// its projected completion is only re-planned when the rate actually
/// changed, since the finish time derived from an unchanged rate is still
/// exact.
///
/// * Full — visits every active flow, in id order.
/// * Incremental (default) — visits only the flows on links whose flow
///   count or bandwidth scale changed since the last reallocation, found
///   through the link→flow lists and visited in id order. For EqualShare
///   and NoContention a flow's rate is a pure function of the capacities
///   and flow counts on its own path, so every other flow provably keeps a
///   bit-identical rate. MaxMin's progressive filling is global, so under
///   MaxMin Incremental visits every flow, like Full.
///
/// Both modes run the same loop and produce bit-identical schedules
/// (asserted by the A/B equivalence test over the whole paper matrix).
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

/// Residual bytes below this are considered delivered (floating-point slack
/// accumulated across settle steps; 1 KB on multi-hundred-MB files). A flow
/// re-planned with no more than this left completes at once.
inline constexpr util::Megabytes kResidualTolMb = 1e-3;

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

  // Reallocation hot-path counters (see ReallocationMode).
  std::uint64_t reallocations = 0;            ///< reallocate() invocations
  std::uint64_t flows_rescheduled = 0;        ///< projected completions re-planned
  std::uint64_t reschedules_skipped = 0;      ///< rate unchanged: completion kept
  std::uint64_t rate_recomputes_skipped = 0;  ///< active flows not visited

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

  /// Begin moving `size_mb` megabytes from `src` to `dst` (which must
  /// differ). `on_complete` fires through the event calendar when the last
  /// byte arrives. The path's links are copied once, here.
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
  [[nodiscard]] std::size_t active_count() const { return order_.size(); }

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

 private:
  using Slot = std::uint32_t;

  /// One link of a flow's path, and the flow's index in that link's list.
  struct Hop {
    LinkId link;
    std::uint32_t pos;
  };

  struct Flow {
    // settle() reads these three on every event; keep them together.
    util::Megabytes remaining_mb = 0.0;
    util::MbPerSec rate = 0.0;
    std::vector<Hop> path;        ///< src to dst; never empty
    TransferId id = kNoTransfer;  ///< kNoTransfer while the slot is free
    util::Megabytes size_mb = 0.0;
    /// First sequence reserved by the reallocation that last re-planned
    /// this flow; 0 until the first plan.
    sim::EventSeq batch = 0;
    std::size_t heap_pos = 0;  ///< index in completions_ once batch != 0
    std::uint64_t visit_epoch = 0;
    TransferPurpose purpose = TransferPurpose::Other;
    CompletionFn on_complete;
  };

  /// One flow on a link: its slot and the index of the link in its path.
  struct LinkFlow {
    Slot slot;
    std::uint32_t hop;
  };

  /// A projected completion; (time, batch, id) is the calendar's order.
  struct Completion {
    util::SimTime time;
    sim::EventSeq batch;
    TransferId id;
    Slot slot;
  };
  [[nodiscard]] static bool before(const Completion& a, const Completion& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.batch != b.batch ? a.batch < b.batch : a.id < b.id;
  }
  /// The indexed_heap callback: record where a completion now sits.
  [[nodiscard]] auto place_fn() {
    return [this](const Completion& c, std::size_t pos) { flows_[c.slot].heap_pos = pos; };
  }

  /// Advance every flow's remaining bytes to the current time at the old
  /// rates and accumulate link-busy statistics.
  void settle();

  /// Put a flow on / take it off each link of its path, keeping
  /// busy_links_ in step with the 0 <-> 1 transitions and marking each link
  /// dirty.
  void attach(Slot slot);
  void detach(Slot slot);

  /// Detach a flow, drop it from the index and the completion heap, and
  /// free its slot.
  void release(Slot slot);

  /// Recompute the rates of the flows to visit under the active policy and
  /// ReallocationMode, re-plan the completions whose rate moved, and bring
  /// the calendar entry up to date.
  void reallocate();

  /// Refresh link_share_ for the dirty links (EqualShare / NoContention).
  void refresh_shares();
  /// Bottleneck rate of one flow under EqualShare / NoContention.
  [[nodiscard]] double path_rate(const Flow& f) const;
  /// Progressive filling into maxmin_rate_, indexed by slot.
  void compute_rates_max_min();

  /// Re-plan `slot`'s completion for its (already updated) rate — or keep
  /// it when the rate is bit-identical to `old_rate`. `batch` is this
  /// reallocation's first reserved sequence, 0 until a re-plan reserves it.
  void update_completion(Slot slot, double old_rate, util::SimTime now, sim::EventSeq& batch);

  /// Make the one calendar entry match the head of completions_.
  void sync_calendar();

  /// Mark a link whose flow count or capacity changed since the last
  /// reallocation.
  void mark_link_dirty(LinkId link);

  void on_calendar_event();
  void finish(Slot slot);

  /// Slot of an active transfer; throws SimError naming `what` otherwise.
  [[nodiscard]] Slot slot_of(TransferId id, const char* what) const;
  /// Position of an active transfer in order_, or order_.end().
  [[nodiscard]] std::vector<Slot>::const_iterator find_order(TransferId id) const;

  /// Effective capacity of a link right now (nominal x scale).
  [[nodiscard]] double capacity(LinkId link) const;

  sim::Engine& engine_;
  const Topology& topo_;
  const Routing& routing_;
  SharePolicy policy_;

  std::vector<Flow> flows_;
  std::vector<Slot> free_slots_;
  /// Active slots sorted by TransferId. Ids come from an increasing
  /// counter, so start() appends. settle() walks this index, which fixes
  /// the summation order of delivered_mb_hops on every platform.
  std::vector<Slot> order_;
  /// Projected completions, an indexed min-heap (sim/indexed_heap.hpp).
  std::vector<Completion> completions_;
  /// The calendar event for completions_'s head, and that head's batch and
  /// id (a re-planned flow always gets a later batch); 0 and kNoTransfer
  /// while no event is pending.
  sim::EventId calendar_event_ = sim::kNoEvent;
  sim::EventSeq calendar_batch_ = 0;
  TransferId calendar_id_ = kNoTransfer;

  /// Flows on each link, in no particular order; a flow leaves by
  /// swap-remove through its stored position.
  std::vector<std::vector<LinkFlow>> link_flows_;
  /// capacity / flow count (or capacity, under NoContention), refreshed
  /// whenever the link is dirty at a reallocation.
  std::vector<double> link_share_;
  std::vector<util::SimTime> link_busy_time_;
  /// Links with at least one flow, in no particular order (each link
  /// accumulates its own busy time, so order never matters), and each busy
  /// link's position in it: settle() walks only these, and a link leaves
  /// by swap-remove.
  std::vector<LinkId> busy_links_;
  std::vector<std::size_t> busy_pos_;
  std::vector<double> link_scale_;
  /// Links whose flow count or scale changed since the last reallocate();
  /// the flag vector answers "is dirty?" in O(1), the id list makes
  /// clearing O(dirty) instead of O(links).
  std::vector<std::uint8_t> link_dirty_;
  std::vector<LinkId> dirty_links_;
  /// Incremental reallocation visits each flow on a dirty link once:
  /// Flow::visit_epoch == visit_epoch_ marks the visited ones.
  std::uint64_t visit_epoch_ = 0;
  /// MaxMin's new rates, indexed by slot.
  std::vector<double> maxmin_rate_;
  util::SimTime last_settle_ = 0.0;
  TransferId next_id_ = 1;
  ReallocationMode mode_;
  TransferStats stats_;
};

}  // namespace chicsim::net
