// Pluggable ciphertext storage for the service provider.
//
// The SP's job is (a) keep the latest encrypted location per user and
// (b) scan all of them against alert tokens. Both operations are behind
// this interface so the matcher is storage-agnostic: ShardedStore keeps
// everything in memory, LogBackedStore (log_store.h) adds a write-ahead
// log and snapshots. Both partition users across N hash shards so
// ingestion and matching can fan out across worker threads, and both
// keep ingest running while a scan of the same shard is under way.

#ifndef SLOC_API_STORE_H_
#define SLOC_API_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "hve/hve.h"

namespace sloc {
namespace api {

/// Decouples "mutation applied and logged" from "mutation durable on
/// stable storage". A durable store running deferred sync (group
/// commit) hands one of these to its service front-end: the server
/// applies a batch, takes a ticket covering it, and withholds the
/// client's ack until the covering sync completes — the
/// fsync-before-ack contract at amortized (once per sync window) cost.
/// Implementations are thread-safe; tickets are monotone.
class DurabilityWaiter {
 public:
  virtual ~DurabilityWaiter() = default;

  /// Ticket covering every mutation applied to the store so far.
  virtual uint64_t CurrentTicket() const = 0;

  /// Invokes `fn` exactly once, after everything up to `ticket` is
  /// durable — synchronously when it already is (including stores whose
  /// configuration makes mutations durable at apply time), otherwise
  /// later from the store's sync thread. The Status is the covering
  /// sync's outcome; sync failures latch, so once one sync fails every
  /// later notification reports the failure. `fn` must be cheap and
  /// must not call back into the waiter.
  virtual void NotifyDurable(uint64_t ticket,
                             std::function<void(Status)> fn) = 0;

  /// Blocks until every notification registered before the call has
  /// fired, forcing a sync if one is pending. Callers tear down their
  /// reply paths only after this returns, so no callback can outlive
  /// its target.
  virtual void DrainNotifications() = 0;
};

/// A stored ciphertext. Stores never modify one after it is stored, so
/// a scan may keep reading it after the user's entry has been replaced
/// or erased; the last holder frees it.
using CtPtr = std::shared_ptr<const hve::Ciphertext>;

/// Abstract store of parsed, validated ciphertexts keyed by user id.
///
/// Concurrency contract: every method is thread-safe. Each shard has
/// exactly one mutex, owned by the store. VisitShard copies the shard's
/// (user id, ciphertext pointer) pairs under that mutex, releases it,
/// and only then runs the visitor over the copy: writers never wait on
/// a scan, a scan sees each shard as it was at one instant, and the
/// visitor may call any method of the store, including writes to the
/// shard it is visiting. The visitor receives the stored CtPtr, so a
/// scan may keep a ciphertext past the visit (a multi-shard scan holds
/// every shard's pointers at once) without copying it.
class CiphertextStore {
 public:
  virtual ~CiphertextStore() = default;

  /// Human-readable backend name ("sharded/8", "log/sharded/8").
  virtual std::string name() const = 0;

  /// Inserts or replaces a user's latest ciphertext.
  virtual void Put(int user_id, hve::Ciphertext ct) = 0;

  /// Removes a user's ciphertext; returns whether the user existed.
  virtual bool Erase(int user_id) = 0;

  virtual bool Contains(int user_id) const = 0;

  /// Total users stored, across all shards (exact once writers quiesce).
  virtual size_t size() const = 0;

  /// Number of independently scannable partitions (>= 1).
  virtual size_t num_shards() const = 0;

  /// The shard `user_id` lives in (< num_shards()): one hash partition
  /// for every backend.
  size_t ShardOf(int user_id) const;

  /// Invokes `fn(user_id, ciphertext)` for every entry shard `shard`
  /// held when the call copied it (iteration order unspecified), with
  /// no store lock held. Precondition: shard < num_shards(). The
  /// pointer is never null; a copy of it keeps the ciphertext alive
  /// whatever the visitor or other threads write meanwhile.
  virtual void VisitShard(
      size_t shard, const std::function<void(int, const CtPtr&)>& fn) const = 0;
};

/// Hash-partitioned in-memory backend: users are spread across
/// `num_shards` maps, the unit of parallelism for the sharded matcher.
class ShardedStore : public CiphertextStore {
 public:
  /// Precondition: num_shards >= 1.
  explicit ShardedStore(size_t num_shards);

  std::string name() const override {
    return "sharded/" + std::to_string(num_shards_);
  }
  void Put(int user_id, hve::Ciphertext ct) override;
  bool Erase(int user_id) override;
  bool Contains(int user_id) const override;
  size_t size() const override;
  size_t num_shards() const override { return num_shards_; }
  void VisitShard(size_t shard,
                  const std::function<void(int, const CtPtr&)>& fn)
      const override;

 private:
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<int, CtPtr> users SLOC_GUARDED_BY(mu);
  };

  size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
};

/// Factory: a ShardedStore with max(num_shards, 1) shards.
std::unique_ptr<CiphertextStore> MakeStore(size_t num_shards);

}  // namespace api
}  // namespace sloc

#endif  // SLOC_API_STORE_H_
