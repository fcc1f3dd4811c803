#include "data/replica_catalog.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace chicsim::data {
namespace {

TEST(ReplicaCatalog, AddAndQuery) {
  ReplicaCatalog c(5);
  c.add(0, 3);
  c.add(0, 7);
  EXPECT_TRUE(c.has(0, 3));
  EXPECT_TRUE(c.has(0, 7));
  EXPECT_FALSE(c.has(0, 1));
  EXPECT_EQ(c.replica_count(0), 2u);
  EXPECT_EQ(c.total_replicas(), 2u);
}

TEST(ReplicaCatalog, AddIsIdempotent) {
  ReplicaCatalog c(2);
  c.add(1, 4);
  c.add(1, 4);
  EXPECT_EQ(c.replica_count(1), 1u);
  EXPECT_EQ(c.total_replicas(), 1u);
}

TEST(ReplicaCatalog, LocationsPreserveInsertionOrder) {
  ReplicaCatalog c(1);
  c.add(0, 9);
  c.add(0, 2);
  c.add(0, 5);
  EXPECT_EQ(c.locations(0), (std::vector<SiteIndex>{9, 2, 5}));
}

TEST(ReplicaCatalog, RemoveExisting) {
  ReplicaCatalog c(1);
  c.add(0, 1);
  c.add(0, 2);
  EXPECT_TRUE(c.remove(0, 1));
  EXPECT_FALSE(c.has(0, 1));
  EXPECT_EQ(c.replica_count(0), 1u);
  EXPECT_EQ(c.total_replicas(), 1u);
}

TEST(ReplicaCatalog, RemoveAbsentReturnsFalse) {
  ReplicaCatalog c(1);
  c.add(0, 1);
  EXPECT_FALSE(c.remove(0, 2));
  EXPECT_EQ(c.total_replicas(), 1u);
}

TEST(ReplicaCatalog, NeverPlacedDatasetHasNoLocations) {
  ReplicaCatalog c(3);
  EXPECT_TRUE(c.locations(2).empty());
  EXPECT_EQ(c.replica_count(2), 0u);
}

TEST(ReplicaCatalog, OutOfRangeDatasetThrows) {
  ReplicaCatalog c(2);
  EXPECT_THROW(c.add(2, 0), util::SimError);
  EXPECT_THROW((void)c.remove(5, 0), util::SimError);
  EXPECT_THROW((void)c.locations(2), util::SimError);
  EXPECT_THROW((void)c.has(2, 0), util::SimError);
}

TEST(ReplicaCatalog, DatasetCount) {
  ReplicaCatalog c(7);
  EXPECT_EQ(c.dataset_count(), 7u);
}

TEST(ReplicaCatalog, PublishedNeedsAPublish) {
  ReplicaCatalog c(2);
  c.add(0, 1);
  EXPECT_THROW((void)c.published(0), util::SimError);
  c.publish();
  EXPECT_EQ(c.published(0), (std::vector<SiteIndex>{1}));
  EXPECT_THROW((void)c.published(2), util::SimError);
}

TEST(ReplicaCatalog, PublishedMatchesACopyTakenAtEachPublish) {
  util::Rng gen(2024);
  // How often each edge case came up: every one must be exercised.
  std::size_t removed_last = 0, readded = 0, idle_publishes = 0, changed_published = 0;
  for (std::uint64_t trial = 0; trial < 300; ++trial) {
    const std::size_t datasets = 1 + gen.index(5);
    const std::size_t sites = 1 + gen.index(6);
    ReplicaCatalog c(datasets);
    std::vector<std::vector<SiteIndex>> oracle;  // deep copy at the last publish()
    std::set<std::pair<DatasetId, SiteIndex>> ever_removed;
    bool changed = false;  // an add or remove took effect since the last publish()
    for (int step = 0; step < 60; ++step) {
      const auto d = static_cast<DatasetId>(gen.index(datasets));
      const auto s = static_cast<SiteIndex>(gen.index(sites));
      const std::size_t op = gen.index(10);
      if (op < 4) {
        if (!c.has(d, s)) {
          readded += ever_removed.count({d, s});
          changed = true;
        }
        c.add(d, s);
      } else if (op < 7) {
        const bool last = c.replica_count(d) == 1 && c.has(d, s);
        if (c.remove(d, s)) {
          ever_removed.insert({d, s});
          removed_last += last ? 1 : 0;
          changed = true;
        }
      } else {
        idle_publishes += !oracle.empty() && !changed ? 1 : 0;
        c.publish();
        oracle.assign(datasets, {});
        for (DatasetId x = 0; x < datasets; ++x) oracle[x] = c.locations(x);
        changed = false;
      }
      if (oracle.empty()) continue;
      SCOPED_TRACE("trial " + std::to_string(trial) + " step " + std::to_string(step));
      for (DatasetId x = 0; x < datasets; ++x) {
        ASSERT_EQ(c.published(x), oracle[x]);
        changed_published += c.published(x) != c.locations(x) ? 1 : 0;
      }
    }
  }
  EXPECT_GT(removed_last, 0u);
  EXPECT_GT(readded, 0u);
  EXPECT_GT(idle_publishes, 0u);
  EXPECT_GT(changed_published, 0u);
}

TEST(ReplicaCatalog, CopyKeepsItsOwnPublication) {
  ReplicaCatalog c(3);
  c.add(0, 1);
  c.add(1, 2);
  c.publish();
  c.add(0, 5);
  ReplicaCatalog copy = c;
  c.add(1, 6);
  c.publish();
  EXPECT_EQ(copy.published(0), (std::vector<SiteIndex>{1}));
  EXPECT_EQ(copy.published(1), (std::vector<SiteIndex>{2}));
  EXPECT_EQ(c.published(1), (std::vector<SiteIndex>{2, 6}));
  copy.add(2, 7);
  EXPECT_TRUE(copy.published(2).empty());
  EXPECT_TRUE(c.locations(2).empty());
}

}  // namespace
}  // namespace chicsim::data
