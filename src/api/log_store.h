// Durable ciphertext storage: append-only record log + compacted
// snapshots, with an mmap-indexed snapshot format sized for
// million-user stores.
//
// LogBackedStore keeps the same sharded in-memory state as store.h's
// ShardedStore behind a write-ahead persistence layer, so a
// service-provider store survives process restart (the net/
// front-end's durability story):
//
//   * every Put/Erase appends one length-prefixed, checksummed record
//     to the active log segment before returning (a Put's record holds
//     the validated blob it was handed, byte for byte) — by the time an
//     ingest ack is sent the mutation is in the OS page cache, and
//     under group commit (Options::fsync_batch_max > 0) on the disk by
//     the time the covering durability notification fires (see
//     DurabilityWaiter below);
//   * when the live log grows past Options::compact_log_bytes, the
//     full resident state is written to <dir>/snapshot.bin (tmp +
//     rename, so a crash mid-compaction leaves the old snapshot
//     intact) and the superseded log segments are retired;
//   * Open() recovers by loading the snapshot and replaying the live
//     log segments over it, in manifest order. A torn tail — an
//     append cut short by a crash, i.e. an incomplete or
//     checksum-failing record at end-of-file with no valid record
//     anywhere after it — is truncated away and recovery succeeds
//     with every fully-durable record intact. A bad record with
//     intact data after it (trailing records, a valid record boundary
//     inside the extent a corrupted length prefix claims, or an
//     implausibly large declared length) is real corruption and fails
//     recovery with DataLoss: silently skipping it could resurrect a
//     stale location for a user. Only the *last* segment may carry a
//     torn tail: earlier segments were fsynced when they were rotated
//     out, so damage there is always corruption.
//
// Log segmentation and the manifest (full spec: docs/WIRE.md):
//
//   The log is a sequence of segments — <dir>/wal.log initially,
//   <dir>/wal-NNNNNN.log for rotated segments — stitched together by
//   <dir>/MANIFEST, which lists the live segments in replay order and
//   is rewritten atomically (tmp + rename). A store that has never
//   compacted has no manifest and implicitly owns [wal.log].
//
//   Compaction is *incremental*: it first rotates the log (fsync +
//   retire the active segment, open a fresh one, commit both to the
//   manifest), then copies each shard's ciphertext pointers under that
//   shard's lock and serializes them after releasing it, writes the
//   snapshot, and finally shrinks the manifest to just the active
//   segment. Ingest proceeds concurrently throughout; a crash at any
//   point leaves a manifest whose snapshot + segment replay
//   reconstructs the full state (records already folded into the
//   snapshot replay idempotently — last record per user wins, and
//   per-user order is preserved across segments).
//
// Group commit (the one fsync mechanism):
//
//   With Options::fsync_batch_max > 0 a dedicated sync thread batches
//   appended records and fsyncs once per window — when the window
//   fills (fsync_batch_max records) or expires (fsync_interval_us),
//   whichever comes first. A window of one record (fsync_batch_max =
//   1) fsyncs as soon as anything is pending; appends that arrive
//   while it runs wait on the log lock and ride the next fsync
//   together. Appends never fsync: the sync thread owns syncing and
//   holds no shard lock. The
//   DurabilityWaiter interface (store.h) exposes the resulting
//   durability horizon: CurrentTicket() after a batch of Puts covers
//   them, and NotifyDurable(ticket, fn) runs fn once the covering
//   fsync has completed. The net/ server uses this to defer ingest
//   acks until the covered records are on disk ("acked means
//   durable"). With fsync_batch_max = 0 the store promises only
//   page-cache (process-crash) durability.
//
// Snapshot format (full byte-level spec: docs/WIRE.md):
//
//   v2 "SLS2" — a fixed 64-byte header, a per-shard index of (user id,
//   offset, length, checksum) entries sorted by user id, and
//   page-aligned per-shard blob regions. Open() mmaps the file,
//   verifies only the header and index checksums, and materializes
//   resident shards *lazily*: the first scan (or Compact) of a shard
//   faults in and parses just that shard's pages. Recovery of a
//   million-user store is an index read, not a full-file parse;
//   ingest against a freshly recovered store never pays
//   materialization at all (mutations overlay the index). The mapping
//   is released once every shard has materialized. A snapshot.bin
//   without "SLS2" magic fails Open() with DataLoss — including the
//   retired v1 "SLSS" format, which a store must be compacted out of
//   by an older build — and Open() never falls back to replaying the
//   log alone, which would silently drop every snapshotted user.
//
// Record format (little-endian, via common/wire.h):
//   u32 payload_len | payload | u64 fnv1a64(payload)
//   payload: u8 kind (1 = put, 2 = erase) | i32 user_id | [ct blob]
//
// Lazy-load failure semantics: header/index corruption fails Open()
// with DataLoss up front. A corrupt *blob* is only discovered when its
// shard materializes — the store then latches DataLoss in io_status()
// and drops the affected entries rather than serving unverifiable
// ciphertexts. Operators who want an all-or-nothing check at startup
// call LoadAllShards() right after Open and treat a non-OK Status as a
// recovery failure.
//
// Threading: the CiphertextStore contract (store.h) — every method is
// thread-safe, each shard has one mutex (Shard::mu, guarding the
// shard's ciphertext map and its lazy-recovery state), and VisitShard
// runs the visitor over a pointer copy taken under it. A mutation
// applies to resident state AND appends its log record under one
// shard-lock hold, so per-user log order always matches memory order —
// two racing Puts for the same user can never ack one ciphertext and
// recover the other. Lock order is always one shard -> {snapshot
// mapping, log} -> sync state: Put/Erase take one shard then the log,
// the compaction sweep copies one shard at a time (never two, asserted
// by compaction_max_shard_locks()), and auto-compaction runs after the
// triggering append's shard lock is released, so compaction cannot
// deadlock against appends. Recovery inside Open() takes shard locks
// with no other lock held.
//
// The lock discipline is machine-checked (common/thread_annotations.h):
// each capability declares what it guards via SLOC_GUARDED_BY, helpers
// that need a shard held say so with SLOC_REQUIRES(shard.mu), and the
// log -> sync leg of the order is a compile-time SLOC_ACQUIRED_AFTER
// edge. The shard -> log leg (a lock per array element) is exercised
// by TSan CI.

#ifndef SLOC_API_LOG_STORE_H_
#define SLOC_API_LOG_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "api/store.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "pairing/group.h"

namespace sloc {
namespace api {

class LogBackedStore : public CiphertextStore, public DurabilityWaiter {
 public:
  struct Options {
    size_t num_shards = 1;  ///< resident shards (0 is treated as 1)
    /// Compact (snapshot + retire segments) once the live log holds
    /// this many bytes appended since the last snapshot; 0 disables
    /// auto-compaction (Compact() stays available).
    size_t compact_log_bytes = 64u << 20;
    /// Group commit: > 0 starts a sync thread that fsyncs once per
    /// window — when this many records are pending or when
    /// fsync_interval_us expires since the first pending record,
    /// whichever comes first; 1 fsyncs as soon as anything is pending.
    /// 0 disables fsync: process-crash durability (the page cache) is
    /// the guarantee then.
    size_t fsync_batch_max = 0;
    /// Maximum time a pending record waits for its covering fsync
    /// under group commit; bounds ack latency when traffic is too
    /// light to fill fsync_batch_max.
    uint64_t fsync_interval_us = 500;
  };

  /// Opens (creating if absent) the store rooted at directory `dir`,
  /// recovering resident state from snapshot + manifest-listed log
  /// segments. The group is needed to parse recovered ciphertexts and
  /// serialize stored ones.
  static Result<std::unique_ptr<LogBackedStore>> Open(
      const std::string& dir, std::shared_ptr<const PairingGroup> group,
      const Options& options);

  ~LogBackedStore() override;

  LogBackedStore(const LogBackedStore&) = delete;
  LogBackedStore& operator=(const LogBackedStore&) = delete;

  // CiphertextStore. Put/Erase append to the log; a failed append
  // (disk full, I/O error) latches io_status() and the mutation still
  // applies in memory, so a degraded store keeps serving while ops see
  // a non-OK status. Against an unmaterialized shard, Put/Erase stay
  // O(1): the mutation lands in resident memory and overlays the
  // snapshot index entry, which is skipped if the shard later loads.
  std::string name() const override {
    return "log/sharded/" + std::to_string(num_shards_);
  }
  /// Logs `blob` as it is; it must be nonempty, the bytes `ct` was
  /// parsed from (replay parses them again).
  void Put(int user_id, hve::Ciphertext ct, wire::ByteView blob) override;
  /// Serializes `ct` once and forwards to the blob Put.
  void Put(int user_id, hve::Ciphertext ct) override;
  bool Erase(int user_id) override;
  bool Contains(int user_id) const override;
  /// Resident + lazily-pending entries (exact once writers quiesce).
  size_t size() const override;
  size_t num_shards() const override { return num_shards_; }
  /// Materializes the shard first when it is lazily pending (under its
  /// lock), then visits a pointer copy as the base contract says.
  void VisitShard(size_t shard,
                  const std::function<void(int, const CtPtr&)>& fn)
      const override;

  // DurabilityWaiter. With group commit off these degenerate to the
  // at-append durability contract: CurrentTicket() still advances per
  // append, but every notification fires synchronously.
  uint64_t CurrentTicket() const override {
    return append_seq_.load(std::memory_order_acquire);
  }
  void NotifyDurable(uint64_t ticket,
                     std::function<void(Status)> fn) override;
  void DrainNotifications() override;

  /// Blocks until everything up to `ticket` is durable (forcing a sync
  /// window to close early if needed) and returns the covering sync's
  /// outcome. Immediate under group-commit-off configurations.
  Status WaitDurable(uint64_t ticket);

  /// Highest ticket known durable on disk (observability; equals
  /// CurrentTicket() once writers quiesce and the sync thread drains).
  uint64_t durable_ticket() const {
    return durable_seq_.load(std::memory_order_acquire);
  }

  /// Rotates the log, snapshots the resident state one shard at a
  /// time (never holding more than one shard lock), and retires the
  /// superseded segments. Called automatically from Put/Erase past
  /// Options::compact_log_bytes. Materializes every pending shard
  /// along the way: the snapshot is always the full resident state.
  Status Compact();

  /// Materializes every lazily-pending shard from the mapped snapshot,
  /// releasing the mapping when done. First blob failure (DataLoss) is
  /// returned AND latched in io_status(); loading still completes so
  /// the store is fully resident either way.
  Status LoadAllShards();

  /// Snapshot entries not yet materialized into resident memory
  /// (observability; 0 once every shard has loaded).
  size_t pending_snapshot_entries() const {
    return pending_entries_.load(std::memory_order_relaxed);
  }

  /// First append/compaction/lazy-load failure since Open, or OK.
  /// Durability (or, for lazy-load failures, completeness of the
  /// recovered state) is compromised once non-OK.
  Status io_status() const;

  /// Live log bytes not yet folded into a snapshot, across segments
  /// (observability; the auto-compaction trigger).
  size_t log_bytes() const;

  /// High-water mark of shard locks held simultaneously by compaction
  /// sweeps since Open (observability; the incremental-compaction
  /// invariant is that this never exceeds 1).
  size_t compaction_max_shard_locks() const {
    return compact_locks_max_.load(std::memory_order_relaxed);
  }

  const std::string& dir() const { return dir_; }

  /// Test hook: called at named checkpoints inside Compact()
  /// ("rotated", "serialized", "snapshot-written"); a non-OK return
  /// aborts the compaction there, simulating a crash between on-disk
  /// steps. Not for production use; call before any concurrent use.
  void TestSetCompactionFault(std::function<Status(const char*)> fault) {
    compact_fault_ = std::move(fault);
  }

 private:
  struct MappedSnapshot;

  /// One resident shard: its mutex, the ciphertexts it guards, and the
  /// shard's lazy-recovery state.
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<int, CtPtr> users SLOC_GUARDED_BY(mu);
    /// True once the shard's snapshot entries live in `users`
    /// (immediately true for shards with no snapshot entries).
    bool loaded SLOC_GUARDED_BY(mu) = true;
    /// Users whose authoritative state is `users` (log replay or
    /// post-open mutation): their snapshot index entry, if any, is
    /// stale and skipped at materialization. Cleared once loaded.
    std::unordered_set<int> overlay SLOC_GUARDED_BY(mu);
  };

  LogBackedStore(std::string dir, std::shared_ptr<const PairingGroup> group,
                 const Options& options);

  /// Appends one encoded record; latches io_status_ on failure.
  /// Called with the mutation's shard lock held (the shard -> log leg
  /// of the lock order; it takes log_mu_, then sync_mu_, itself).
  /// Returns true when the live log has grown past the auto-compaction
  /// threshold (the caller compacts after releasing its shard lock).
  bool Append(const std::vector<uint8_t>& record)
      SLOC_EXCLUDES(log_mu_, sync_mu_);

  /// Loads snapshot + manifest-listed segments into the shards (v2
  /// snapshots: index only, blobs stay mapped and pending). Truncates
  /// a torn tail of the last segment in place; rejects mid-log
  /// corruption anywhere else. Runs inside Open(), before any other
  /// thread can reach the store; it takes shard locks one at a time
  /// and installs the rebuilt segment list and byte counters under
  /// log_mu_ at the end.
  Status Recover() SLOC_EXCLUDES(log_mu_);

  /// Replays one log segment over the shards. `last` permits (and
  /// truncates) a torn tail; non-last segments must parse to their
  /// exact end. On success sets `*valid_bytes` to the segment's intact
  /// length.
  Status ReplaySegment(const std::string& path, bool last,
                       size_t* valid_bytes);

  /// Recovery's apply step for snapshot entries and replayed records:
  /// makes `ct` the user's resident state, or erases the user when
  /// `ct` is null.
  void ApplyRecovered(int user_id, CtPtr ct);

  /// Parses + validates a v2 snapshot: maps the file, checks header and
  /// index checksums/bounds, and fills snap_. Blobs are not touched.
  Status RecoverMmapSnapshot(int fd, size_t file_bytes);

  /// Materializes shard `index` from the mapped snapshot; no-op when
  /// already loaded. Corrupt blobs latch DataLoss and are dropped (see
  /// file comment).
  Status EnsureShardLoadedLocked(size_t index, Shard& shard) const
      SLOC_REQUIRES(shard.mu);

  /// Makes the resident map authoritative for `user_id` in a shard
  /// whose snapshot entries are still pending: marks the user overlaid
  /// and drops its index entry, if any, from the pending count.
  /// Returns true when that dropped an index entry.
  bool OverlayLocked(size_t index, Shard& shard, int user_id)
      SLOC_REQUIRES(shard.mu);

  /// True when the (unmaterialized) snapshot index holds `user_id` in
  /// shard `index`.
  bool SnapshotIndexHas(size_t index, int user_id) const;

  /// Threshold-triggered Compact(); collapses a stampede of concurrent
  /// triggers to one sweep and latches io_status_ on failure.
  void AutoCompact();

  /// Retires the active segment (fsync + close), opens a fresh one,
  /// and commits [.., old, new] to the manifest. Everything appended
  /// before the rotation is durable once this returns.
  Status RotateLog();

  /// Atomically rewrites <dir>/MANIFEST to list `segments`.
  Status WriteManifest(const std::vector<std::string>& segments);

  /// Path of segment `name` under dir_.
  std::string SegmentPath(const std::string& name) const;

  /// The sync thread body (group commit): batch, fsync, notify.
  void SyncLoop() SLOC_EXCLUDES(sync_mu_, log_mu_);

  /// True while appends exist that no successful sync has covered yet
  /// (and no sync failure has latched). The sync thread's wakeup
  /// predicate, written as a member so the analysis can check the
  /// sync_status_ read (a lambda body would be analyzed lock-free).
  bool SyncPendingLocked() const SLOC_REQUIRES(sync_mu_);

  /// fsyncs the log and reports the ticket the sync covers. Holds
  /// log_mu_ only to read the ticket and duplicate the fd, not across
  /// the fsync; the caller must have dropped sync_mu_ first (lock
  /// order).
  Status SyncNow(uint64_t* covered) SLOC_EXCLUDES(log_mu_, sync_mu_);

  /// Marks everything up to `covered` durable with outcome `st` and
  /// fires the eligible notifications (all of them, with the latched
  /// error, once any sync has failed). Callbacks run without locks.
  void CompleteSync(uint64_t covered, Status st)
      SLOC_EXCLUDES(sync_mu_);

  std::string dir_;
  std::shared_ptr<const PairingGroup> group_;
  Options options_;
  size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
  /// Snapshot entries not yet materialized (and not overlaid).
  mutable std::atomic<size_t> pending_entries_{0};

  /// Guards the mapped v2 snapshot (innermost with shard locks:
  /// shard -> snap, never snap -> shard).
  mutable Mutex snap_mu_;
  /// Reset (munmap) once every shard has materialized.
  mutable std::shared_ptr<const MappedSnapshot> snap_
      SLOC_GUARDED_BY(snap_mu_);
  /// Shards not yet loaded.
  mutable size_t shards_pending_ SLOC_GUARDED_BY(snap_mu_) = 0;

  mutable Mutex log_mu_;
  /// Active segment fd.
  int log_fd_ SLOC_GUARDED_BY(log_mu_) = -1;
  /// Live bytes across segments.
  size_t log_bytes_ SLOC_GUARDED_BY(log_mu_) = 0;
  /// Bytes in the active segment.
  size_t active_bytes_ SLOC_GUARDED_BY(log_mu_) = 0;
  /// Live segments in replay order; back() is the active one.
  std::vector<std::string> segments_ SLOC_GUARDED_BY(log_mu_);
  /// Next wal-NNNNNN.log number.
  uint64_t next_segment_seq_ SLOC_GUARDED_BY(log_mu_) = 1;
  /// First I/O failure, latched.
  mutable Status io_status_ SLOC_GUARDED_BY(log_mu_);
  std::atomic<bool> compacting_{false};  ///< one auto-compactor at a time
  // lock-note: compact_mu_ serializes whole Compact() calls against
  // each other; it guards no data (the sweep reads under shard locks
  // and commits under log_mu_), so nothing is GUARDED_BY it.
  Mutex compact_mu_;
  /// Test hook; set before any concurrent use, immutable after.
  std::function<Status(const char*)> compact_fault_;
  std::atomic<size_t> compact_locks_now_{0};
  std::atomic<size_t> compact_locks_max_{0};

  // Group-commit state. append_seq_ counts successful appends (bumped
  // under log_mu_); durable_seq_ trails it to the last covering sync.
  // sync_mu_ guards the waiter map and the sync thread's scheduling;
  // the ACQUIRED_AFTER edge makes log_mu_ -> sync_mu_ the only legal
  // nesting (Append holds it; the reverse is a compile error under
  // -Wthread-safety-beta).
  std::atomic<uint64_t> append_seq_{0};
  std::atomic<uint64_t> durable_seq_{0};
  mutable Mutex sync_mu_ SLOC_ACQUIRED_AFTER(log_mu_);
  // lock-note: both condvars pair with sync_mu_; waits hold it by
  // construction (CondVar::Wait takes the MutexLock).
  CondVar sync_cv_;     ///< wakes the sync thread
  CondVar durable_cv_;  ///< wakes WaitDurable/Drain
  /// Pending notifications keyed by covering ticket.
  std::multimap<uint64_t, std::function<void(Status)>> waiters_
      SLOC_GUARDED_BY(sync_mu_);
  /// First sync failure, latched.
  Status sync_status_ SLOC_GUARDED_BY(sync_mu_);
  /// Destructor -> sync thread.
  bool sync_stop_ SLOC_GUARDED_BY(sync_mu_) = false;
  /// Callbacks in flight outside sync_mu_.
  bool firing_ SLOC_GUARDED_BY(sync_mu_) = false;
  /// WaitDurable/Drain callers skipping the window.
  size_t urgent_ SLOC_GUARDED_BY(sync_mu_) = 0;
  std::thread sync_thread_;
};

}  // namespace api
}  // namespace sloc

#endif  // SLOC_API_LOG_STORE_H_
