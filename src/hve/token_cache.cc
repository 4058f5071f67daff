#include "hve/token_cache.h"

#include "common/wire.h"

namespace sloc {
namespace hve {

std::shared_ptr<const PrecompiledToken> TokenTableCache::Get(
    const std::vector<uint8_t>& blob) {
  const uint64_t hash = wire::Fnv1a(blob.data(), blob.size());
  MutexLock lock(mu_);
  auto it = index_.find(hash);
  if (it == index_.end() || it->second->blob != blob) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->table;
}

void TokenTableCache::Put(const std::vector<uint8_t>& blob,
                          std::shared_ptr<const PrecompiledToken> table) {
  if (capacity_ == 0) return;
  const uint64_t hash = wire::Fnv1a(blob.data(), blob.size());
  MutexLock lock(mu_);
  auto it = index_.find(hash);
  if (it != index_.end()) {
    Entry& entry = *it->second;
    if (entry.blob != blob) entry.blob = blob;  // a collision gives way
    entry.table = std::move(table);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (sighted_.insert(hash).second) {
    sighting_order_.push_back(hash);
    if (sighting_order_.size() > kSightingsPerEntry * capacity_) {
      sighted_.erase(sighting_order_.front());
      sighting_order_.pop_front();
    }
    return;
  }
  lru_.push_front(Entry{hash, blob, std::move(table)});
  index_.emplace(hash, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().hash);
    lru_.pop_back();
  }
}

size_t TokenTableCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

size_t TokenTableCache::sightings() const {
  MutexLock lock(mu_);
  return sighting_order_.size();
}

uint64_t TokenTableCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

uint64_t TokenTableCache::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

}  // namespace hve
}  // namespace sloc
