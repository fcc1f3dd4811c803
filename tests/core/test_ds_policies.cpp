#include "core/ds_policies.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "fake_view.hpp"

namespace chicsim::core {
namespace {

using testing::FakeGridView;

// Tests assign popular_ from a DatasetIds temporary, not a braced list:
// g++ 12 at -O3 reports a false -Wnonnull for std::vector<unsigned>'s
// initializer_list assignment (the memmove it flags runs only for more
// than one element, when the storage is allocated).
using DatasetIds = std::vector<data::DatasetId>;

/// Scriptable ReplicationContext recording replicate() calls.
class FakeReplicationContext final : public ReplicationContext {
 public:
  FakeReplicationContext(FakeGridView& view, data::SiteIndex self)
      : view_(view), self_(self) {}

  // --- test controls ---
  std::vector<data::DatasetId> popular_;
  std::map<data::DatasetId, data::SiteIndex> top_requester_;
  std::map<data::SiteIndex, std::size_t> inbound_;
  std::vector<std::pair<data::DatasetId, data::SiteIndex>> replicated_;
  std::vector<data::DatasetId> resets_;

  // --- ReplicationContext ---
  [[nodiscard]] data::SiteIndex self() const override { return self_; }
  [[nodiscard]] const GridView& view() const override { return view_; }
  void replicate(data::DatasetId d, data::SiteIndex to) override {
    replicated_.emplace_back(d, to);
  }
  [[nodiscard]] std::vector<data::DatasetId> popular_datasets(double threshold) const override {
    (void)threshold;
    return popular_;
  }
  void reset_popularity(data::DatasetId d) override { resets_.push_back(d); }
  [[nodiscard]] data::SiteIndex top_requester(data::DatasetId d) const override {
    auto it = top_requester_.find(d);
    return it == top_requester_.end() ? data::kNoSite : it->second;
  }
  [[nodiscard]] std::size_t inbound_replications(data::SiteIndex s) const override {
    auto it = inbound_.find(s);
    return it == inbound_.end() ? 0 : it->second;
  }

 private:
  FakeGridView& view_;
  data::SiteIndex self_;
};

TEST(DataDoNothing, NeverReplicates) {
  FakeGridView view(5, 3);
  FakeReplicationContext ctx(view, 0);
  ctx.popular_ = DatasetIds{0, 1, 2};
  util::Rng rng(1);
  DataDoNothingDs ds;
  ds.evaluate(ctx, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
  EXPECT_TRUE(ctx.resets_.empty());
}

TEST(DataRandom, ReplicatesEachHotDatasetSomewhereElse) {
  FakeGridView view(6, 3);
  FakeReplicationContext ctx(view, 2);
  ctx.popular_ = DatasetIds{0, 1};
  util::Rng rng(2);
  DataRandomDs ds(10.0);
  ds.evaluate(ctx, rng);
  ASSERT_EQ(ctx.replicated_.size(), 2u);
  for (const auto& [d, to] : ctx.replicated_) {
    EXPECT_NE(to, 2u);  // never to self
    EXPECT_LT(to, 6u);
  }
  EXPECT_EQ(ctx.resets_, (std::vector<data::DatasetId>{0, 1}));
}

TEST(DataRandom, SkipsSitesAlreadyHolding) {
  FakeGridView view(3, 1);
  // Dataset 0 is held by self (2) and site 1; only site 0 is a valid target.
  view.place(0, 2);
  view.place(0, 1);
  FakeReplicationContext ctx(view, 2);
  ctx.popular_ = DatasetIds{0};
  util::Rng rng(3);
  DataRandomDs ds(10.0);
  ds.evaluate(ctx, rng);
  ASSERT_EQ(ctx.replicated_.size(), 1u);
  EXPECT_EQ(ctx.replicated_[0].second, 0u);
}

TEST(DataRandom, TwoSiteGridAlwaysReplicatesToTheOtherSite) {
  // Regression: the draw used to cover all sites and burn retry attempts on
  // self-collisions — on a 2-site grid every attempt failed with p = 1/2,
  // so a hot dataset could (rarely but legitimately) exhaust all 16 draws
  // and not replicate at all. The draw now excludes self, so the only other
  // site is picked with certainty regardless of the rng stream.
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    FakeGridView view(2, 1);
    FakeReplicationContext ctx(view, 0);
    ctx.popular_ = DatasetIds{0};
    util::Rng rng(seed);
    DataRandomDs ds(10.0);
    ds.evaluate(ctx, rng);
    ASSERT_EQ(ctx.replicated_.size(), 1u);
    EXPECT_EQ(ctx.replicated_[0].second, 1u);
  }
}

TEST(DataRandom, SelfIsNeverDrawn) {
  // Larger grid, self in the middle of the index range: the shifted draw
  // must map around self, never onto it, and cover every other site.
  FakeGridView view(5, 1);
  std::vector<bool> seen(5, false);
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    FakeReplicationContext ctx(view, 2);
    ctx.popular_ = DatasetIds{0};
    util::Rng rng(seed);
    DataRandomDs ds(10.0);
    ds.evaluate(ctx, rng);
    ASSERT_EQ(ctx.replicated_.size(), 1u);
    EXPECT_NE(ctx.replicated_[0].second, 2u);
    seen[ctx.replicated_[0].second] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[3] && seen[4]);
  EXPECT_FALSE(seen[2]);
}

TEST(DataRandom, SingleSiteGridDoesNothing) {
  FakeGridView view(1, 1);
  FakeReplicationContext ctx(view, 0);
  ctx.popular_ = DatasetIds{0};
  util::Rng rng(1);
  DataRandomDs ds(10.0);
  ds.evaluate(ctx, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
}

TEST(DataRandom, FullySaturatedDatasetIsOnlyReset) {
  FakeGridView view(3, 1);
  view.place(0, 0);
  view.place(0, 1);
  view.place(0, 2);
  FakeReplicationContext ctx(view, 2);
  ctx.popular_ = DatasetIds{0};
  util::Rng rng(4);
  DataRandomDs ds(10.0);
  ds.evaluate(ctx, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
  EXPECT_EQ(ctx.resets_, (std::vector<data::DatasetId>{0}));
}

TEST(DataLeastLoaded, PicksLeastLoadedNeighbor) {
  FakeGridView view(4, 2);
  view.loads_ = {9, 3, 0, 6};  // self = 0
  FakeReplicationContext ctx(view, 0);
  ctx.popular_ = DatasetIds{1};
  util::Rng rng(5);
  DataLeastLoadedDs ds(10.0);
  ds.evaluate(ctx, rng);
  ASSERT_EQ(ctx.replicated_.size(), 1u);
  EXPECT_EQ(ctx.replicated_[0].second, 2u);
}

TEST(DataLeastLoaded, CountsInboundReplicationsAsLoad) {
  FakeGridView view(4, 2);
  view.loads_ = {9, 3, 0, 6};
  FakeReplicationContext ctx(view, 0);
  ctx.popular_ = DatasetIds{1};
  ctx.inbound_[2] = 5;  // the cold site is already receiving 5 pushes
  util::Rng rng(6);
  DataLeastLoadedDs ds(10.0);
  ds.evaluate(ctx, rng);
  ASSERT_EQ(ctx.replicated_.size(), 1u);
  EXPECT_EQ(ctx.replicated_[0].second, 1u);  // load 3 beats load 0+5
}

TEST(DataLeastLoaded, SkipsNeighborsAlreadyHolding) {
  FakeGridView view(3, 1);
  view.loads_ = {5, 0, 1};  // self = 0; site 1 is coldest but holds the data
  view.place(0, 1);
  FakeReplicationContext ctx(view, 0);
  ctx.popular_ = DatasetIds{0};
  util::Rng rng(7);
  DataLeastLoadedDs ds(10.0);
  ds.evaluate(ctx, rng);
  ASSERT_EQ(ctx.replicated_.size(), 1u);
  EXPECT_EQ(ctx.replicated_[0].second, 2u);
}

TEST(DataLeastLoaded, RespectsNeighborList) {
  FakeGridView view(4, 1);
  view.loads_ = {9, 9, 0, 9};
  view.neighbors_[0] = {1, 3};  // site 2 (coldest) is not a known site
  FakeReplicationContext ctx(view, 0);
  ctx.popular_ = DatasetIds{0};
  util::Rng rng(8);
  DataLeastLoadedDs ds(10.0);
  ds.evaluate(ctx, rng);
  ASSERT_EQ(ctx.replicated_.size(), 1u);
  EXPECT_NE(ctx.replicated_[0].second, 2u);
}

TEST(DataLeastLoaded, NeverPicksSelfFromItsOwnScope) {
  FakeGridView view(4, 1);
  view.loads_ = {0, 9, 3, 9};  // self = 0 is the least loaded site of its scope
  view.neighbors_[0] = {0, 1, 2, 3};
  view.place(0, 1);  // self does not hold the hot dataset
  FakeReplicationContext ctx(view, 0);
  ctx.popular_ = DatasetIds{0};
  util::Rng rng(16);
  DataLeastLoadedDs ds(10.0);
  ds.evaluate(ctx, rng);
  ASSERT_EQ(ctx.replicated_.size(), 1u);
  EXPECT_EQ(ctx.replicated_[0].second, 2u);
}

TEST(DataBestClient, ReplicatesToTopRequester) {
  FakeGridView view(5, 2);
  FakeReplicationContext ctx(view, 1);
  ctx.popular_ = DatasetIds{0};
  ctx.top_requester_[0] = 4;
  util::Rng rng(9);
  DataBestClientDs ds(10.0);
  ds.evaluate(ctx, rng);
  ASSERT_EQ(ctx.replicated_.size(), 1u);
  EXPECT_EQ(ctx.replicated_[0], (std::pair<data::DatasetId, data::SiteIndex>{0, 4}));
}

TEST(DataBestClient, NoRequesterMeansNoPush) {
  FakeGridView view(5, 2);
  FakeReplicationContext ctx(view, 1);
  ctx.popular_ = DatasetIds{0};
  util::Rng rng(10);
  DataBestClientDs ds(10.0);
  ds.evaluate(ctx, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
  EXPECT_EQ(ctx.resets_, (std::vector<data::DatasetId>{0}));
}

TEST(DataBestClient, SkipsRequesterAlreadyHolding) {
  FakeGridView view(5, 2);
  view.place(0, 4);
  FakeReplicationContext ctx(view, 1);
  ctx.popular_ = DatasetIds{0};
  ctx.top_requester_[0] = 4;
  util::Rng rng(11);
  DataBestClientDs ds(10.0);
  ds.evaluate(ctx, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
}

TEST(DataFastSpread, EvaluateIsANoOp) {
  FakeGridView view(5, 2);
  FakeReplicationContext ctx(view, 1);
  ctx.popular_ = DatasetIds{0};
  util::Rng rng(12);
  DataFastSpreadDs ds;
  ds.evaluate(ctx, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
}

TEST(DataFastSpread, PushesBesideTheRequesterOnRemoteFetch) {
  FakeGridView view(6, 2);
  view.neighbors_[4] = {3, 5};  // requester 4's region siblings
  FakeReplicationContext ctx(view, 1);
  util::Rng rng(13);
  DataFastSpreadDs ds;
  ds.on_remote_fetch(ctx, 0, /*requester=*/4, rng);
  ASSERT_EQ(ctx.replicated_.size(), 1u);
  EXPECT_TRUE(ctx.replicated_[0].second == 3u || ctx.replicated_[0].second == 5u);
}

TEST(DataFastSpread, NoCandidateMeansNoPush) {
  FakeGridView view(3, 1);
  view.neighbors_[2] = {1};
  view.place(0, 1);  // the only sibling already holds it
  FakeReplicationContext ctx(view, 1);
  util::Rng rng(14);
  DataFastSpreadDs ds;
  ds.on_remote_fetch(ctx, 0, /*requester=*/2, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
}

TEST(DataFastSpread, NeverPushesToTheRequester) {
  FakeGridView view(4, 1);
  view.neighbors_[2] = {0, 1, 2, 3};  // requester 2's scope includes itself
  view.place(0, 0);
  view.place(0, 3);  // every other sibling already holds it
  FakeReplicationContext ctx(view, 1);
  util::Rng rng(17);
  DataFastSpreadDs ds;
  ds.on_remote_fetch(ctx, 0, /*requester=*/2, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
}

TEST(DefaultOnRemoteFetchHook, DoesNothing) {
  FakeGridView view(3, 1);
  FakeReplicationContext ctx(view, 0);
  util::Rng rng(15);
  DataRandomDs ds(10.0);
  ds.on_remote_fetch(ctx, 0, 1, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
}

}  // namespace
}  // namespace chicsim::core
