// Differential oracle: TransferManager (link→flow lists, cached shares, one
// calendar entry) against ReferenceTransferManager (every flow recomputed,
// one calendar event per flow).
//
// Seeded random op scripts drive both through identical engines: starts,
// aborts and bandwidth changes on a coarse time grid, so many land on the
// same instant; equal-size flows started together, for exact finish ties;
// sub-tolerance sizes, for completions re-planned with eta 0; and foreign
// engine events at exactly a completion time. Completion callbacks chain
// further starts, aborts and foreign events. Every fired event is logged
// with its hexfloat time, and the two logs, the mb-hops, the delivered MB
// per purpose and the link busy times must match bit for bit.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/transfer_manager.hpp"
#include "reference_transfer_manager.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace chicsim::net {
namespace {

struct Op {
  enum Kind { Start, Abort, Scale, Foreign } kind = Start;
  util::SimTime at = 0.0;
  NodeId src = 0;
  NodeId dst = 0;
  util::Megabytes mb = 0.0;
  TransferPurpose purpose = TransferPurpose::JobFetch;
  std::size_t pick = 0;  ///< Abort: which live flow; Scale: which link
  double scale = 1.0;
};

constexpr std::size_t kSites = 8;

std::vector<Op> random_script(util::Rng& rng, std::size_t links) {
  // Sizes: exact multiples of the 10 MB/s link rate (finish times on the
  // op grid), repeats (ties), zero and sub-tolerance residues (eta 0).
  const double sizes[] = {0.0, kResidualTolMb / 2, 25.0, 50.0, 100.0, 100.0, 250.0, 0.0};
  std::vector<Op> ops;
  const std::size_t n = 20 + rng.index(40);
  for (std::size_t i = 0; i < n; ++i) {
    Op op;
    op.at = 2.5 * static_cast<double>(rng.index(40));
    const double kind = rng.uniform(0.0, 1.0);
    if (kind < 0.6) {
      op.kind = Op::Start;
      op.src = static_cast<NodeId>(rng.index(kSites));
      op.dst = op.src;
      while (op.dst == op.src) op.dst = static_cast<NodeId>(rng.index(kSites));
      const std::size_t pick = rng.index(8);
      op.mb = pick == 7 ? rng.uniform(1.0, 400.0) : sizes[pick];
      op.purpose = static_cast<TransferPurpose>(rng.index(kNumTransferPurposes));
      // A twin started at the same instant finishes at exactly the same time.
      if (rng.uniform(0.0, 1.0) < 0.25) ops.push_back(op);
    } else if (kind < 0.75) {
      op.kind = Op::Abort;
      op.pick = rng.index(1000);
    } else if (kind < 0.85) {
      op.kind = Op::Scale;
      op.pick = rng.index(links);
      const double scales[] = {0.25, 0.5, 1.0, 2.0};
      op.scale = scales[rng.index(4)];
    } else {
      op.kind = Op::Foreign;
    }
    ops.push_back(op);
  }
  return ops;
}

std::string stamp(const char* what, std::uint64_t n, util::SimTime t) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s %llu %a", what, static_cast<unsigned long long>(n), t);
  return buf;
}

/// Run one script through a transfer manager of type Tm; everything the
/// two implementations must agree on is captured in the members.
template <class Tm>
struct Drive {
  template <class... ModeArg>
  Drive(const Topology& topo, const Routing& routing, SharePolicy policy,
        const std::vector<Op>& ops, ModeArg... mode)
      : tm(engine, topo, routing, policy, mode...) {
    for (const Op& op : ops) engine.schedule_at(op.at, [this, op] { apply(op); });
    engine.run();
    for (LinkId l = 0; l < topo.link_count(); ++l) busy.push_back(tm.link_busy_time(l));
  }

  void start(NodeId src, NodeId dst, util::Megabytes mb, TransferPurpose purpose) {
    const TransferId id = tm.start(src, dst, mb, purpose, [this, src, dst](TransferId done) {
      log.push_back(stamp("complete", done, engine.now()));
      std::erase(live, done);
      // Chain work off the completion, keyed on the id so both runs agree.
      if (done % 3 == 0) {
        engine.schedule_at(engine.now(), [this, done] { foreign(done); });
      }
      if (done % 5 == 0) start(dst, src, 50.0, TransferPurpose::OutputReturn);
      if (done % 7 == 0 && !live.empty()) abort(live.front());
    });
    live.push_back(id);
  }

  void abort(TransferId id) {
    log.push_back(stamp("abort", id, engine.now()));
    std::erase(live, id);
    tm.abort(id);
  }

  void foreign(std::uint64_t n) { log.push_back(stamp("foreign", n, engine.now())); }

  void apply(const Op& op) {
    switch (op.kind) {
      case Op::Start:
        start(op.src, op.dst, op.mb, op.purpose);
        break;
      case Op::Abort:
        if (!live.empty()) abort(live[op.pick % live.size()]);
        break;
      case Op::Scale:
        tm.set_bandwidth_scale(static_cast<LinkId>(op.pick), op.scale);
        break;
      case Op::Foreign:
        foreign(0);
        break;
    }
  }

  sim::Engine engine;
  Tm tm;
  std::vector<TransferId> live;
  std::vector<std::string> log;
  std::vector<util::SimTime> busy;
};

struct Coverage {
  std::size_t completion_ties = 0;     ///< two completions at one instant
  std::size_t foreign_at_finish = 0;   ///< a foreign event at a completion's instant
  std::size_t aborts = 0;
};

void tally(const std::vector<std::string>& log, Coverage& cov) {
  auto time_of = [](const std::string& e) { return e.substr(e.rfind(' ')); };
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i].starts_with("abort")) ++cov.aborts;
    if (i == 0 || time_of(log[i]) != time_of(log[i - 1])) continue;
    const bool a = log[i - 1].starts_with("complete");
    const bool b = log[i].starts_with("complete");
    if (a && b) ++cov.completion_ties;
    if (a != b && (log[i - 1].starts_with("foreign") || log[i].starts_with("foreign"))) {
      ++cov.foreign_at_finish;
    }
  }
}

class TransferOracle
    : public ::testing::TestWithParam<std::tuple<SharePolicy, ReallocationMode>> {};

TEST_P(TransferOracle, MatchesBruteForceReferenceBitForBit) {
  const auto [policy, mode] = GetParam();
  const Topology topo = build_hierarchy({kSites, 3, 10.0});
  const Routing routing(topo);
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Rng rng(seed);
    const std::vector<Op> ops = random_script(rng, topo.link_count());
    Drive<ReferenceTransferManager> ref(topo, routing, policy, ops);
    Drive<TransferManager> got(topo, routing, policy, ops, mode);
    SCOPED_TRACE("seed " + std::to_string(seed));

    ASSERT_EQ(got.log.size(), ref.log.size());
    for (std::size_t i = 0; i < ref.log.size(); ++i) ASSERT_EQ(got.log[i], ref.log[i]) << i;
    tally(ref.log, cov);
    EXPECT_EQ(got.engine.events_executed(), ref.engine.events_executed());
    EXPECT_LE(got.engine.queue().peak_heap_size(), ref.engine.queue().peak_heap_size());

    const TransferStats& g = got.tm.stats();
    const TransferStats& r = ref.tm.stats();
    EXPECT_EQ(g.delivered_mb_hops, r.delivered_mb_hops);  // exact, not near
    for (std::size_t p = 0; p < kNumTransferPurposes; ++p) {
      EXPECT_EQ(g.delivered_mb[p], r.delivered_mb[p]);
    }
    EXPECT_EQ(got.busy, ref.busy);
    EXPECT_EQ(g.transfers_started, r.transfers_started);
    EXPECT_EQ(g.transfers_completed, r.transfers_completed);
    EXPECT_EQ(g.transfers_aborted, r.transfers_aborted);
    EXPECT_EQ(g.reallocations, r.reallocations);
    EXPECT_EQ(g.flows_rescheduled, r.flows_rescheduled);
    // A flow the reference keeps at the unchanged-rate check is kept by
    // Incremental either the same way or by not being visited at all.
    EXPECT_EQ(g.reschedules_skipped + g.rate_recomputes_skipped, r.reschedules_skipped);
    if (mode == ReallocationMode::Full || policy == SharePolicy::MaxMin) {
      EXPECT_EQ(g.rate_recomputes_skipped, 0u);
    }
    EXPECT_EQ(got.tm.active_count(), 0u);
  }
  // The scripts really reach the cases they are built for.
  EXPECT_GT(cov.completion_ties, 0u);
  EXPECT_GT(cov.foreign_at_finish, 0u);
  EXPECT_GT(cov.aborts, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndModes, TransferOracle,
    ::testing::Combine(::testing::Values(SharePolicy::EqualShare, SharePolicy::MaxMin,
                                         SharePolicy::NoContention),
                       ::testing::Values(ReallocationMode::Full, ReallocationMode::Incremental)),
    [](const auto& info) {
      const SharePolicy policy = std::get<0>(info.param);
      const ReallocationMode mode = std::get<1>(info.param);
      return std::string(enum_names(policy).name(policy)) + enum_names(mode).name(mode);
    });

}  // namespace
}  // namespace chicsim::net
