#include "net/transfer_manager.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/indexed_heap.hpp"
#include "util/error.hpp"

namespace chicsim::net {

TransferManager::TransferManager(sim::Engine& engine, const Topology& topo,
                                 const Routing& routing, SharePolicy policy,
                                 ReallocationMode mode)
    : engine_(engine),
      topo_(topo),
      routing_(routing),
      policy_(policy),
      link_flows_(topo.link_count()),
      link_share_(topo.link_count(), 0.0),
      link_busy_time_(topo.link_count(), 0.0),
      busy_pos_(topo.link_count(), 0),
      link_scale_(topo.link_count(), 1.0),
      link_dirty_(topo.link_count(), 0),
      last_settle_(engine.now()),
      mode_(mode) {}

void TransferManager::mark_link_dirty(LinkId link) {
  if (link_dirty_[link]) return;
  link_dirty_[link] = 1;
  dirty_links_.push_back(link);
}

void TransferManager::attach(Slot slot) {
  Flow& f = flows_[slot];
  for (std::uint32_t hop = 0; hop < f.path.size(); ++hop) {
    const LinkId l = f.path[hop].link;
    std::vector<LinkFlow>& on_link = link_flows_[l];
    if (on_link.empty()) {
      busy_pos_[l] = busy_links_.size();
      busy_links_.push_back(l);
    }
    f.path[hop].pos = static_cast<std::uint32_t>(on_link.size());
    on_link.push_back(LinkFlow{slot, hop});
    mark_link_dirty(l);
  }
}

void TransferManager::detach(Slot slot) {
  Flow& f = flows_[slot];
  for (const Hop& hop : f.path) {
    const LinkId l = hop.link;
    std::vector<LinkFlow>& on_link = link_flows_[l];
    const LinkFlow moved = on_link.back();
    on_link[hop.pos] = moved;
    flows_[moved.slot].path[moved.hop].pos = hop.pos;
    on_link.pop_back();
    if (on_link.empty()) {
      const std::size_t pos = busy_pos_[l];
      const LinkId last = busy_links_.back();
      busy_links_[pos] = last;
      busy_pos_[last] = pos;
      busy_links_.pop_back();
    }
    mark_link_dirty(l);
  }
}

double TransferManager::capacity(LinkId link) const {
  return topo_.link(link).bandwidth_mbps * link_scale_[link];
}

void TransferManager::set_bandwidth_scale(LinkId link, double scale) {
  CHICSIM_ASSERT_MSG(link < link_scale_.size(), "link id out of range");
  CHICSIM_ASSERT_MSG(scale > 0.0, "bandwidth scale must be positive");
  settle();
  link_scale_[link] = scale;
  mark_link_dirty(link);
  reallocate();
}

double TransferManager::bandwidth_scale(LinkId link) const {
  CHICSIM_ASSERT_MSG(link < link_scale_.size(), "link id out of range");
  return link_scale_[link];
}

TransferId TransferManager::start(NodeId src, NodeId dst, util::Megabytes size_mb,
                                  TransferPurpose purpose, CompletionFn on_complete) {
  CHICSIM_ASSERT_MSG(size_mb >= 0.0, "negative transfer size");
  CHICSIM_ASSERT_MSG(static_cast<bool>(on_complete), "transfer needs a completion callback");
  CHICSIM_ASSERT_MSG(src != dst, "transfer between co-located endpoints");
  CHICSIM_ASSERT_MSG(src < topo_.node_count() && dst < topo_.node_count(),
                     "transfer endpoint out of range");
  TransferId id = next_id_++;
  ++stats_.transfers_started;

  settle();
  Slot slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<Slot>(flows_.size());
    flows_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Flow& f = flows_[slot];
  f.remaining_mb = size_mb;
  f.rate = 0.0;
  f.path.clear();  // a recycled slot keeps its capacity
  routing_.for_each_link(src, dst, [&f](LinkId l) { f.path.push_back(Hop{l, 0}); });
  CHICSIM_ASSERT_MSG(!f.path.empty(), "transfer with empty path");
  f.id = id;
  f.size_mb = size_mb;
  f.batch = 0;
  f.purpose = purpose;
  f.on_complete = std::move(on_complete);
  attach(slot);
  CHICSIM_ASSERT(order_.empty() || flows_[order_.back()].id < id);  // keeps order_ sorted
  order_.push_back(slot);
  reallocate();
  return id;
}

std::vector<TransferManager::Slot>::const_iterator TransferManager::find_order(
    TransferId id) const {
  auto it = std::lower_bound(order_.begin(), order_.end(), id,
                             [this](Slot s, TransferId key) { return flows_[s].id < key; });
  return it != order_.end() && flows_[*it].id == id ? it : order_.end();
}

TransferManager::Slot TransferManager::slot_of(TransferId id, const char* what) const {
  auto it = find_order(id);
  CHICSIM_ASSERT_MSG(it != order_.end(), what);
  return *it;
}

bool TransferManager::active(TransferId id) const { return find_order(id) != order_.end(); }

void TransferManager::release(Slot slot) {
  Flow& f = flows_[slot];
  detach(slot);
  order_.erase(find_order(f.id));
  if (f.batch != 0) sim::indexed_heap::erase(completions_, f.heap_pos, before, place_fn());
  f.id = kNoTransfer;
  f.on_complete = nullptr;
  free_slots_.push_back(slot);
}

void TransferManager::abort(TransferId id) {
  const Slot slot = slot_of(id, "abort of unknown transfer");
  // Bytes moved so far stay in the mb-hop accounting.
  settle();
  release(slot);
  reallocate();
  ++stats_.transfers_aborted;
}

util::MbPerSec TransferManager::current_rate(TransferId id) const {
  return flows_[slot_of(id, "current_rate of unknown transfer")].rate;
}

util::Megabytes TransferManager::remaining_mb(TransferId id) const {
  const Flow& f = flows_[slot_of(id, "remaining_mb of unknown transfer")];
  double dt = engine_.now() - last_settle_;
  return std::max(0.0, f.remaining_mb - f.rate * dt);
}

std::size_t TransferManager::flows_on_link(LinkId link) const {
  CHICSIM_ASSERT_MSG(link < link_flows_.size(), "link id out of range");
  return link_flows_[link].size();
}

util::SimTime TransferManager::link_busy_time(LinkId link) const {
  CHICSIM_ASSERT_MSG(link < link_busy_time_.size(), "link id out of range");
  return link_busy_time_[link];
}

void TransferManager::settle() {
  util::SimTime now = engine_.now();
  double dt = now - last_settle_;
  CHICSIM_ASSERT_MSG(dt >= 0.0, "settle backwards in time");
  if (dt > 0.0) {
    for (Slot s : order_) {
      Flow& f = flows_[s];
      double delta = std::min(f.remaining_mb, f.rate * dt);
      f.remaining_mb -= delta;
      stats_.delivered_mb_hops += delta * static_cast<double>(f.path.size());
    }
    for (LinkId l : busy_links_) link_busy_time_[l] += dt;
  }
  last_settle_ = now;
}

void TransferManager::reallocate() {
  ++stats_.reallocations;
  const util::SimTime now = engine_.now();
  sim::EventSeq batch = 0;
  auto visit = [&](Slot s) {
    Flow& f = flows_[s];
    const double old_rate = f.rate;
    f.rate = policy_ == SharePolicy::MaxMin ? maxmin_rate_[s] : path_rate(f);
    update_completion(s, old_rate, now, batch);
  };

  if (policy_ == SharePolicy::MaxMin) {
    // Progressive filling is inherently global (freezing one flow shifts
    // slack to every other), so every flow is visited regardless of mode;
    // only completions whose rate moved are re-planned.
    compute_rates_max_min();
    for (Slot s : order_) visit(s);
  } else if (mode_ == ReallocationMode::Full) {
    refresh_shares();
    for (Slot s : order_) visit(s);
  } else {
    // Only flows on a dirty link can change rate: the rate is a pure
    // function of the shares on the flow's own path.
    refresh_shares();
    ++visit_epoch_;
    std::size_t visited = 0;
    for (LinkId l : dirty_links_) {
      for (const LinkFlow& lf : link_flows_[l]) {
        Flow& f = flows_[lf.slot];
        if (f.visit_epoch == visit_epoch_) continue;
        f.visit_epoch = visit_epoch_;
        ++visited;
        visit(lf.slot);
      }
    }
    stats_.rate_recomputes_skipped += order_.size() - visited;
  }

  for (LinkId l : dirty_links_) link_dirty_[l] = 0;
  dirty_links_.clear();
  sync_calendar();
}

void TransferManager::refresh_shares() {
  for (LinkId l : dirty_links_) {
    const std::size_t n = link_flows_[l].size();
    if (n == 0) continue;  // no flow reads it until one arrives and re-dirties it
    link_share_[l] =
        policy_ == SharePolicy::NoContention ? capacity(l) : capacity(l) / static_cast<double>(n);
  }
}

double TransferManager::path_rate(const Flow& f) const {
  double rate = util::kTimeInfinity;
  for (const Hop& hop : f.path) rate = std::min(rate, link_share_[hop.link]);
  return rate;
}

void TransferManager::update_completion(Slot slot, double old_rate, util::SimTime now,
                                        sim::EventSeq& batch) {
  Flow& f = flows_[slot];
  CHICSIM_ASSERT_MSG(f.rate > 0.0, "active flow allocated zero rate");
  if (f.batch != 0 && f.rate == old_rate) {
    // The projected finish time was derived from this very rate: keep it.
    ++stats_.reschedules_skipped;
    return;
  }
  const util::SimTime eta = f.remaining_mb <= kResidualTolMb ? 0.0 : f.remaining_mb / f.rate;
  // Take the sequence number a calendar push made here would take, so every
  // other event keeps its own.
  const sim::EventSeq seq = engine_.reserve_sequence();
  if (batch == 0) batch = seq;
  const bool queued = f.batch != 0;
  f.batch = batch;
  const Completion c{now + eta, batch, f.id, slot};
  if (queued) {
    completions_[f.heap_pos] = c;
    sim::indexed_heap::fix(completions_, f.heap_pos, before, place_fn());
  } else {
    sim::indexed_heap::push(completions_, c, before, place_fn());
  }
  ++stats_.flows_rescheduled;
}

void TransferManager::sync_calendar() {
  const Completion none{0.0, 0, kNoTransfer, 0};
  const Completion& head = completions_.empty() ? none : completions_.front();
  if (head.batch == calendar_batch_ && head.id == calendar_id_) return;
  if (calendar_event_ != sim::kNoEvent) (void)engine_.cancel(calendar_event_);
  calendar_event_ = sim::kNoEvent;
  calendar_batch_ = head.batch;
  calendar_id_ = head.id;
  if (head.id == kNoTransfer) return;
  calendar_event_ = engine_.schedule_reserved(head.time, head.batch, "transfer_completion",
                                              [this] { on_calendar_event(); });
}

void TransferManager::compute_rates_max_min() {
  // Progressive filling: raise all unfrozen flow rates uniformly; when a
  // link saturates, freeze the flows crossing it; repeat.
  maxmin_rate_.assign(flows_.size(), 0.0);
  std::vector<Slot> unfrozen(order_);
  std::vector<double> cap_rem(topo_.link_count());
  std::vector<std::size_t> count(topo_.link_count());  // unfrozen flows per link
  for (LinkId l = 0; l < topo_.link_count(); ++l) {
    cap_rem[l] = capacity(l);
    count[l] = link_flows_[l].size();
  }

  while (!unfrozen.empty()) {
    double inc = util::kTimeInfinity;
    for (LinkId l = 0; l < count.size(); ++l) {
      if (count[l] > 0) inc = std::min(inc, cap_rem[l] / static_cast<double>(count[l]));
    }
    CHICSIM_ASSERT_MSG(std::isfinite(inc), "max-min filling found no constraining link");
    for (Slot s : unfrozen) maxmin_rate_[s] += inc;
    for (LinkId l = 0; l < count.size(); ++l) {
      cap_rem[l] -= inc * static_cast<double>(count[l]);
    }
    // Freeze flows crossing any saturated link.
    std::vector<Slot> still;
    still.reserve(unfrozen.size());
    for (Slot s : unfrozen) {
      const std::vector<Hop>& path = flows_[s].path;
      const bool saturated = std::any_of(path.begin(), path.end(), [&](const Hop& hop) {
        return cap_rem[hop.link] <= 1e-12 * capacity(hop.link) + 1e-15;
      });
      if (saturated) {
        for (const Hop& hop : path) --count[hop.link];
      } else {
        still.push_back(s);
      }
    }
    CHICSIM_ASSERT_MSG(still.size() < unfrozen.size(), "max-min filling did not progress");
    unfrozen = std::move(still);
  }
}

void TransferManager::on_calendar_event() {
  calendar_event_ = sim::kNoEvent;
  calendar_batch_ = 0;
  calendar_id_ = kNoTransfer;
  CHICSIM_ASSERT_MSG(!completions_.empty(), "completion event with no transfer in flight");
  const Slot slot = completions_.front().slot;
  settle();
  CHICSIM_ASSERT_MSG(flows_[slot].remaining_mb <= kResidualTolMb,
                     "completion event fired before delivery finished");
  finish(slot);
}

void TransferManager::finish(Slot slot) {
  Flow& f = flows_[slot];
  const TransferId id = f.id;
  stats_.delivered_mb[static_cast<std::size_t>(f.purpose)] += f.size_mb;
  CompletionFn on_complete = std::move(f.on_complete);
  release(slot);
  reallocate();
  ++stats_.transfers_completed;
  // Invoke last: the callback may start new transfers or run schedulers.
  on_complete(id);
}

}  // namespace chicsim::net
