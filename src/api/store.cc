#include "api/store.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "hve/serialize.h"

namespace sloc {
namespace api {

size_t CiphertextStore::ShardOf(int user_id) const {
  // splitmix64 finalizer: user ids are often dense small integers, so a
  // plain modulus would put consecutive ids in consecutive shards and
  // make any id-correlated workload lopsided after deletions.
  uint64_t h = uint64_t(int64_t(user_id));
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return size_t(h % num_shards());
}

void CiphertextStore::Put(int user_id, hve::Ciphertext ct) {
  Put(user_id, std::move(ct), wire::ByteView{});
}

ShardedStore::ShardedStore(size_t num_shards) : num_shards_(num_shards) {
  SLOC_CHECK(num_shards >= 1) << "store needs at least one shard";
  shards_ = std::make_unique<Shard[]>(num_shards);
}

void ShardedStore::Put(int user_id, hve::Ciphertext ct, wire::ByteView) {
  // Declared before the lock, so the replaced ciphertext (swapped into
  // it) is freed after the lock is released.
  CtPtr slot = std::make_shared<const hve::Ciphertext>(std::move(ct));
  Shard& shard = shards_[ShardOf(user_id)];
  MutexLock lock(shard.mu);
  shard.users[user_id].swap(slot);
}

bool ShardedStore::Erase(int user_id) {
  Shard& shard = shards_[ShardOf(user_id)];
  MutexLock lock(shard.mu);
  return shard.users.erase(user_id) > 0;
}

bool ShardedStore::Contains(int user_id) const {
  const Shard& shard = shards_[ShardOf(user_id)];
  MutexLock lock(shard.mu);
  return shard.users.count(user_id) > 0;
}

size_t ShardedStore::size() const {
  size_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    const Shard& shard = shards_[i];
    MutexLock lock(shard.mu);
    total += shard.users.size();
  }
  return total;
}

void ShardedStore::VisitShard(
    size_t index,
    const std::function<void(int, const CtPtr&)>& fn) const {
  SLOC_CHECK(index < num_shards_) << "shard index out of range";
  const Shard& shard = shards_[index];
  std::vector<std::pair<int, CtPtr>> entries;
  {
    MutexLock lock(shard.mu);
    entries.assign(shard.users.begin(), shard.users.end());
  }
  for (const auto& [user_id, ct] : entries) fn(user_id, ct);
}

std::unique_ptr<CiphertextStore> MakeStore(size_t num_shards) {
  return std::make_unique<ShardedStore>(std::max<size_t>(num_shards, 1));
}

Status Ingest(CiphertextStore& store, const PairingGroup& group, int user_id,
              wire::ByteView blob) {
  SLOC_ASSIGN_OR_RETURN(hve::Ciphertext ct, hve::ParseCiphertext(group, blob));
  store.Put(user_id, std::move(ct), blob);
  return Status::Ok();
}

}  // namespace api
}  // namespace sloc
