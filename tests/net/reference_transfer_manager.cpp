#include "reference_transfer_manager.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace chicsim::net {

ReferenceTransferManager::ReferenceTransferManager(sim::Engine& engine, const Topology& topo,
                                                   const Routing& routing, SharePolicy policy)
    : engine_(engine),
      topo_(topo),
      routing_(routing),
      policy_(policy),
      link_flow_count_(topo.link_count(), 0),
      link_busy_time_(topo.link_count(), 0.0),
      link_scale_(topo.link_count(), 1.0),
      last_settle_(engine.now()) {}

double ReferenceTransferManager::capacity(LinkId link) const {
  return topo_.link(link).bandwidth_mbps * link_scale_[link];
}

void ReferenceTransferManager::set_bandwidth_scale(LinkId link, double scale) {
  settle();
  link_scale_[link] = scale;
  reallocate();
}

TransferId ReferenceTransferManager::start(NodeId src, NodeId dst, util::Megabytes size_mb,
                                           TransferPurpose purpose, CompletionFn on_complete) {
  TransferId id = next_id_++;
  ++stats_.transfers_started;
  settle();
  Flow flow;
  flow.id = id;
  flow.size_mb = size_mb;
  flow.remaining_mb = size_mb;
  flow.purpose = purpose;
  flow.on_complete = std::move(on_complete);
  flow.path = routing_.path(src, dst);
  CHICSIM_ASSERT(!flow.path.empty());
  for (LinkId l : flow.path) ++link_flow_count_[l];
  flows_.push_back(std::move(flow));
  reallocate();
  return id;
}

std::vector<ReferenceTransferManager::Flow>::iterator ReferenceTransferManager::find_flow(
    TransferId id) {
  auto it = std::lower_bound(flows_.begin(), flows_.end(), id,
                             [](const Flow& f, TransferId key) { return f.id < key; });
  return it != flows_.end() && it->id == id ? it : flows_.end();
}

void ReferenceTransferManager::abort(TransferId id) {
  auto it = find_flow(id);
  CHICSIM_ASSERT_MSG(it != flows_.end(), "abort of unknown transfer");
  settle();
  Flow flow = std::move(*it);
  flows_.erase(it);
  (void)engine_.cancel(flow.completion_event);
  for (LinkId l : flow.path) --link_flow_count_[l];
  reallocate();
  ++stats_.transfers_aborted;
}

void ReferenceTransferManager::settle() {
  const util::SimTime now = engine_.now();
  const double dt = now - last_settle_;
  if (dt > 0.0) {
    for (Flow& f : flows_) {
      double delta = std::min(f.remaining_mb, f.rate * dt);
      f.remaining_mb -= delta;
      stats_.delivered_mb_hops += delta * static_cast<double>(f.path.size());
    }
    for (LinkId l = 0; l < link_flow_count_.size(); ++l) {
      if (link_flow_count_[l] > 0) link_busy_time_[l] += dt;
    }
  }
  last_settle_ = now;
}

void ReferenceTransferManager::reallocate() {
  ++stats_.reallocations;
  const util::SimTime now = engine_.now();
  std::vector<double> old_rates;
  for (const Flow& f : flows_) old_rates.push_back(f.rate);
  if (policy_ == SharePolicy::MaxMin) {
    compute_rates_max_min();
  } else {
    for (Flow& f : flows_) f.rate = path_rate(f);
  }
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& f = flows_[i];
    CHICSIM_ASSERT(f.rate > 0.0);
    if (f.completion_event != sim::kNoEvent && f.rate == old_rates[i]) {
      ++stats_.reschedules_skipped;
      continue;
    }
    (void)engine_.cancel(f.completion_event);
    util::SimTime eta = f.remaining_mb <= kResidualTolMb ? 0.0 : f.remaining_mb / f.rate;
    TransferId fid = f.id;
    f.completion_event = engine_.schedule_at(now + eta, "transfer_completion",
                                             [this, fid] { on_completion_event(fid); });
    ++stats_.flows_rescheduled;
  }
}

double ReferenceTransferManager::path_rate(const Flow& f) const {
  double rate = util::kTimeInfinity;
  for (LinkId l : f.path) {
    double share = policy_ == SharePolicy::NoContention
                       ? capacity(l)
                       : capacity(l) / static_cast<double>(link_flow_count_[l]);
    rate = std::min(rate, share);
  }
  return rate;
}

void ReferenceTransferManager::compute_rates_max_min() {
  // Progressive filling: raise all unfrozen flow rates uniformly; when a
  // link saturates, freeze the flows crossing it; repeat.
  std::vector<Flow*> unfrozen;
  for (Flow& f : flows_) {
    f.rate = 0.0;
    unfrozen.push_back(&f);
  }
  std::vector<double> cap_rem(topo_.link_count());
  for (LinkId l = 0; l < topo_.link_count(); ++l) cap_rem[l] = capacity(l);
  std::vector<std::size_t> count(link_flow_count_);
  while (!unfrozen.empty()) {
    double inc = util::kTimeInfinity;
    for (LinkId l = 0; l < count.size(); ++l) {
      if (count[l] > 0) inc = std::min(inc, cap_rem[l] / static_cast<double>(count[l]));
    }
    for (Flow* f : unfrozen) f->rate += inc;
    for (LinkId l = 0; l < count.size(); ++l) cap_rem[l] -= inc * static_cast<double>(count[l]);
    std::vector<Flow*> still;
    for (Flow* f : unfrozen) {
      bool saturated = std::any_of(f->path.begin(), f->path.end(), [&](LinkId l) {
        return cap_rem[l] <= 1e-12 * capacity(l) + 1e-15;
      });
      if (saturated) {
        for (LinkId l : f->path) --count[l];
      } else {
        still.push_back(f);
      }
    }
    CHICSIM_ASSERT(still.size() < unfrozen.size());
    unfrozen = std::move(still);
  }
}

void ReferenceTransferManager::on_completion_event(TransferId id) {
  auto it = find_flow(id);
  CHICSIM_ASSERT(it != flows_.end());
  settle();
  CHICSIM_ASSERT(it->remaining_mb <= kResidualTolMb);
  Flow flow = std::move(*it);
  flows_.erase(it);
  for (LinkId l : flow.path) --link_flow_count_[l];
  stats_.delivered_mb[static_cast<std::size_t>(flow.purpose)] += flow.size_mb;
  reallocate();
  ++stats_.transfers_completed;
  flow.on_complete(id);
}

}  // namespace chicsim::net
