// Per-site storage with LRU replica caching.
//
// Model (paper §3-4): each site has a limited amount of storage. The
// initial ("master") copy of a dataset is pinned — the paper's dynamic
// replication never loses the last copy. Everything else a site holds —
// replicas pushed by a Dataset Scheduler or files fetched for jobs — is a
// cache entry: "data may be fetched from a remote site for a particular
// job, in which case it is cached and managed using LRU. A cached dataset
// is then available to the grid as a replica."
//
// Jobs reference-count the entries they are using (or awaiting); referenced
// entries are never evicted. If an arriving file cannot fit even after
// evicting every unreferenced cache entry, it is stored *transiently*: the
// job still runs (the paper's model never blocks a job on storage), the
// entry is dropped when its last reference is released, and the overflow is
// recorded in the stats so experiments can detect an undersized
// configuration.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <vector>

#include "data/dataset.hpp"
#include "util/units.hpp"

namespace chicsim::data {

struct StorageStats {
  std::uint64_t hits = 0;          ///< lookup() found the dataset locally
  std::uint64_t misses = 0;        ///< lookup() did not
  std::uint64_t evictions = 0;     ///< LRU evictions
  std::uint64_t overflow_adds = 0; ///< replicas stored transiently over capacity
};

class StorageManager {
 public:
  explicit StorageManager(util::Megabytes capacity_mb);

  /// Pin the initial copy of a dataset. Pinned entries never leave. Total
  /// pinned size must fit in the capacity.
  void add_master(DatasetId id, util::Megabytes size_mb);

  /// Result of add_replica: whether it was newly stored and which cache
  /// entries were evicted to make room (callers must deregister those from
  /// the replica catalog).
  struct AddOutcome {
    bool newly_added = false;
    bool transient = false;  ///< stored over capacity; dropped at last release
    std::vector<DatasetId> evicted;
  };

  /// Store a replica (fetched file or pushed replica). If present, this is
  /// a touch. Evicts LRU unreferenced cache entries as needed.
  [[nodiscard]] AddOutcome add_replica(DatasetId id, util::Megabytes size_mb);

  /// Presence test without statistics side effects.
  [[nodiscard]] bool contains(DatasetId id) const;

  /// Presence test that records a hit or miss (the "did the job find its
  /// input here" query).
  [[nodiscard]] bool lookup(DatasetId id);

  /// Mark recent use (moves a cache entry to MRU; no-op for pinned).
  void touch(DatasetId id);

  /// Reference counting: a referenced entry cannot be evicted. acquire()
  /// on an absent dataset is an error — callers pin only what they hold.
  void acquire(DatasetId id);
  void release(DatasetId id);

  /// Manually drop an unreferenced cache entry (Dataset Schedulers may
  /// delete local files). Returns false when pinned, referenced, or absent.
  bool evict(DatasetId id);

  /// Site-crash semantics: drop every unpinned entry regardless of
  /// refcount (the referencing jobs are being killed by the caller) and
  /// zero the refcounts of pinned masters (same reason — the master file
  /// itself survives on durable storage). Returns the ids of dropped
  /// *durable* entries, sorted ascending, so the caller can reconcile the
  /// replica catalog deterministically; transient entries vanish silently
  /// (they were never catalogued).
  std::vector<DatasetId> invalidate_unpinned();

  [[nodiscard]] bool is_pinned(DatasetId id) const;

  /// Held, and not transiently: a durable copy leaves storage only by a
  /// reported eviction or an explicit evict().
  [[nodiscard]] bool holds_durable(DatasetId id) const;
  [[nodiscard]] util::Megabytes capacity_mb() const { return capacity_mb_; }
  [[nodiscard]] util::Megabytes used_mb() const { return used_mb_; }
  [[nodiscard]] util::Megabytes free_mb() const { return capacity_mb_ - used_mb_; }
  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }
  [[nodiscard]] const StorageStats& stats() const { return stats_; }

  /// Datasets currently held (pinned + cached), unordered.
  [[nodiscard]] std::vector<DatasetId> held() const;

 private:
  struct Entry {
    util::Megabytes size_mb = 0.0;
    bool pinned = false;
    bool transient = false;
    int refcount = 0;
    /// Valid only for unpinned entries: position in lru_ (MRU at front).
    std::list<DatasetId>::iterator lru_pos;
    bool in_lru = false;
  };

  /// Evict unreferenced cache entries (LRU first) until `needed_mb` fits or
  /// nothing more can go. Appends evicted ids.
  void make_room(util::Megabytes needed_mb, std::vector<DatasetId>& evicted);
  void drop_entry(DatasetId id);

  util::Megabytes capacity_mb_;
  util::Megabytes used_mb_ = 0.0;
  /// Ordered by DatasetId so invalidate_unpinned() wipes (and subtracts
  /// used_mb_, an FP sum) in id order and held() is sorted on every
  /// platform; with a hash map both orders would leak bucket layout.
  std::map<DatasetId, Entry> entries_;
  std::list<DatasetId> lru_;  ///< front = most recently used
  StorageStats stats_;
};

}  // namespace chicsim::data
