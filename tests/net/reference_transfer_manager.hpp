// Brute-force oracle for net::TransferManager.
//
// The same fluid flow model (the paper's §5.1 link sharing) written the
// plain way: every flow owns one calendar event, every start, finish, abort
// or bandwidth change settles and recomputes every flow's rate, and a flow
// whose rate moved has its event cancelled and pushed again. It shares the
// production types (SharePolicy, TransferStats, ...) and must produce the
// same completion sequence, bit for bit, on the same engine inputs: the
// differential test in test_transfer_oracle.cpp drives both.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/transfer_manager.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

namespace chicsim::net {

class ReferenceTransferManager {
 public:
  using CompletionFn = TransferManager::CompletionFn;

  ReferenceTransferManager(sim::Engine& engine, const Topology& topo, const Routing& routing,
                           SharePolicy policy);

  ReferenceTransferManager(const ReferenceTransferManager&) = delete;
  ReferenceTransferManager& operator=(const ReferenceTransferManager&) = delete;

  TransferId start(NodeId src, NodeId dst, util::Megabytes size_mb, TransferPurpose purpose,
                   CompletionFn on_complete);
  void abort(TransferId id);
  void set_bandwidth_scale(LinkId link, double scale);

  [[nodiscard]] util::SimTime link_busy_time(LinkId link) const { return link_busy_time_[link]; }
  [[nodiscard]] const TransferStats& stats() const { return stats_; }

 private:
  struct Flow {
    TransferId id = kNoTransfer;
    util::Megabytes size_mb = 0.0;
    util::Megabytes remaining_mb = 0.0;
    util::MbPerSec rate = 0.0;
    TransferPurpose purpose = TransferPurpose::Other;
    CompletionFn on_complete;
    sim::EventId completion_event = sim::kNoEvent;
    std::vector<LinkId> path;
  };

  void settle();
  void reallocate();
  [[nodiscard]] double capacity(LinkId link) const;
  [[nodiscard]] double path_rate(const Flow& f) const;
  void compute_rates_max_min();
  void on_completion_event(TransferId id);
  /// The flow with `id`, or flows_.end(); flows_ is sorted by id.
  [[nodiscard]] std::vector<Flow>::iterator find_flow(TransferId id);

  sim::Engine& engine_;
  const Topology& topo_;
  const Routing& routing_;
  SharePolicy policy_;
  std::vector<Flow> flows_;
  std::vector<std::size_t> link_flow_count_;
  std::vector<util::SimTime> link_busy_time_;
  std::vector<double> link_scale_;
  util::SimTime last_settle_ = 0.0;
  TransferId next_id_ = 1;
  TransferStats stats_;
};

}  // namespace chicsim::net
