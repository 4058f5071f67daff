// Bounded LRU cache of precompiled token line tables.
//
// A PrecompiledToken is O(order_bits * (2s+1)) field elements — at
// 512-bit production parameters a large alert bundle can hold hundreds
// of megabytes of line tables. The service provider therefore retains
// tables across alerts only up to a fixed entry budget, evicting the
// least-recently-used ones; evicted tokens are simply recompiled on the
// next alert that carries them, so eviction can never change match
// results. Entries are found by the 64-bit hash of the serialized token
// blob and hold the one copy of the blob, which every hit compares in
// full (tokens are randomized per issuance, so equal blobs really are
// the same token): a lookup copies no blob, and a hash collision can
// only cost a miss.
//
// A table enters the LRU only at its blob's second sighting. Most
// alerts are issued fresh and their tokens are never seen again, so
// retaining every table on first sight would fill the LRU with tables
// that are never hit. A FIFO of 64-bit blob hashes remembers first
// sightings instead. A hash collision can only admit a table early.

#ifndef SLOC_HVE_TOKEN_CACHE_H_
#define SLOC_HVE_TOKEN_CACHE_H_

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/thread_annotations.h"
#include "hve/hve.h"

namespace sloc {
namespace hve {

/// Thread-safe LRU map from serialized token blob to its compiled line
/// tables, admitting a table at its blob's second sighting. Capacity 0
/// disables retention entirely (every Get misses).
class TokenTableCache {
 public:
  /// First sightings remembered per LRU entry.
  static constexpr size_t kSightingsPerEntry = 4;

  explicit TokenTableCache(size_t capacity) : capacity_(capacity) {}

  /// The cached table for this blob, or null on miss. A hit refreshes
  /// the entry's recency. Allocates nothing.
  std::shared_ptr<const PrecompiledToken> Get(
      const std::vector<uint8_t>& blob);

  /// Offers the table for this blob. A blob not seen before is only
  /// remembered (its hash joins the sightings FIFO, which keeps the
  /// last kSightingsPerEntry * capacity of them); a blob seen before is
  /// inserted (or refreshed), evicting least-recently-used entries
  /// beyond the capacity; an entry whose blob shares the hash gives way.
  /// Only an insertion copies the blob.
  void Put(const std::vector<uint8_t>& blob,
           std::shared_ptr<const PrecompiledToken> table);

  size_t capacity() const { return capacity_; }
  size_t size() const;
  /// First sightings currently remembered.
  size_t sightings() const;
  /// Cumulative lookup counters (cache observability; table-served
  /// pairings additionally show up in the group's precomp_pairings).
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  struct Entry {
    uint64_t hash;
    std::vector<uint8_t> blob;
    std::shared_ptr<const PrecompiledToken> table;
  };

  size_t capacity_;  // immutable after construction
  mutable Mutex mu_;
  uint64_t hits_ SLOC_GUARDED_BY(mu_) = 0;
  uint64_t misses_ SLOC_GUARDED_BY(mu_) = 0;
  // front = most recently used
  std::list<Entry> lru_ SLOC_GUARDED_BY(mu_);
  // Blob hash -> its entry.
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_
      SLOC_GUARDED_BY(mu_);
  // Blob hashes in first-sighting order (front = oldest), and the same
  // hashes as a set for lookup.
  std::deque<uint64_t> sighting_order_ SLOC_GUARDED_BY(mu_);
  std::unordered_set<uint64_t> sighted_ SLOC_GUARDED_BY(mu_);
};

}  // namespace hve
}  // namespace sloc

#endif  // SLOC_HVE_TOKEN_CACHE_H_
