// AlertServer: the paper's C2/service-provider role as a long-lived
// network service.
//
// A non-blocking epoll TCP server speaking length-prefixed SLEV
// envelopes (net/frame.h over api/messages.h; wire spec in
// docs/WIRE.md). Options::io_threads epoll event loops own
// accept/read/write and all connection state; a pool of crypto workers
// does everything expensive. The data flow:
//
//   I/O threads (×N)             workers
//   ----------------             -------
//   read + frame-slice
//   kLocationUpload/kLocationBatch
//     -> bin uploads into per-shard
//        ingest queues ---------> drain one shard's queue: parse +
//                                 validate each blob (curve checks),
//                                 then store->Put it, in queue order
//   kAlertTokens ----------------> ProcessAlertBundle; each shard is
//                                 scanned from a pointer copy taken
//                                 under its lock (scans never block
//                                 ingest; api/store.h)
//   write acks/outcomes <-------- per-thread reply queue + eventfd
//
// Multi-threaded I/O: with io_threads > 1, each thread has its own
// listen socket bound to the same port with SO_REUSEPORT — the kernel
// shards incoming connections across threads with no user-space
// hand-off. A connection is owned by exactly one I/O thread for life
// (reads, decode state, write buffer, backpressure flags never cross
// threads); its id encodes the owner, so any worker routes a finished
// reply to the right thread's queue without a global connection table
// or lock. The per-shard ingest queues and the scan queue are shared —
// any I/O thread enqueues into any shard under that shard's own mutex.
// io_threads = 1 behaves exactly like the original single-loop server
// (no SO_REUSEPORT).
//
// Replies to one connection always flush in request order (a reorder
// buffer holds out-of-order completions), so a pipelining client can
// match replies positionally.
//
// Backpressure, in order of engagement:
//   * per-connection in-flight cap — a connection with more than
//     max_connection_inflight bytes of unanswered requests stops being
//     read (EPOLLIN off) until replies drain;
//   * global in-flight cap — ditto across all connections;
//   * slow-consumer shedding — a connection whose un-written reply
//     backlog exceeds max_write_buffer is closed outright: one reader
//     that stops reading must not pin server memory.
//
// Ordering guarantee: an alert scan observes every upload *acked*
// before the scan request was sent (acks are emitted after the shard
// apply). Uploads still queued when a scan arrives may or may not be
// seen — the usual asynchronous-service contract.
//
// Durability guarantee (opt-in): when Options::durability is set, a
// submit ack is additionally withheld until the store reports the
// batch durable (the group-commit fsync covering it has completed, or
// synchronously for stores durable at apply time), so "acked" means
// "on disk" end to end. A sync failure turns the ack's error_code
// non-zero rather than silently calling a lost write durable.

#ifndef SLOC_NET_SERVER_H_
#define SLOC_NET_SERVER_H_

#include <cstdint>
#include <memory>

#include "alert/protocol.h"
#include "api/store.h"
#include "common/result.h"

namespace sloc {
namespace net {

/// Monotonic counters since Start (snapshot; internally atomic).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t connections_shed = 0;  ///< slow consumers dropped
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t protocol_errors = 0;   ///< bad frames / bad envelopes
  uint64_t uploads_accepted = 0;
  uint64_t uploads_rejected = 0;
  uint64_t ingest_drains = 0;     ///< per-shard queue drain batches
  uint64_t alerts_served = 0;
  uint64_t reads_paused = 0;      ///< backpressure engagements
};

class AlertServer {
 public:
  struct Options {
    uint16_t port = 0;         ///< 0 picks an ephemeral port (see port())
    /// epoll I/O event loops. >1 shards accepts across per-thread
    /// listen sockets via SO_REUSEPORT (see file comment); 0 is
    /// clamped to 1. Reads paused by the *global* in-flight cap may
    /// take up to one 500 ms epoll tick to resume when the draining
    /// replies all belong to other threads' connections.
    unsigned io_threads = 1;
    unsigned num_workers = 4;  ///< crypto workers (ingest + scans)
    /// Workers *inside* one alert scan, at most: the scan's team runs on
    /// the process pool (common/parallel.h) and gets the helpers idle
    /// when it starts. Scans from different requests serialize, so
    /// total scan parallelism is this knob.
    unsigned scan_threads = 1;
    size_t token_cache_capacity = 64;

    // Backpressure knobs (see file comment).
    size_t max_frame_bytes = 64u << 20;
    size_t max_connection_inflight = 8u << 20;
    size_t max_total_inflight = 128u << 20;
    size_t max_write_buffer = 64u << 20;

    /// Defer submit acks until the store reports the covered batch
    /// durable (see file comment). Non-owning; must outlive the
    /// server. Point it at the LogBackedStore passed as `store` (which
    /// implements DurabilityWaiter) to get acked-means-on-disk
    /// semantics under group commit. nullptr acks at apply time, the
    /// pre-existing behavior.
    api::DurabilityWaiter* durability = nullptr;
  };

  /// Binds 127.0.0.1:<port>, hands `store` to the scanning provider,
  /// and starts the I/O thread + workers. The store's shard count is
  /// the ingest/scan parallelism ceiling.
  static Result<std::unique_ptr<AlertServer>> Start(
      std::shared_ptr<const PairingGroup> group, Fp2Elem marker,
      std::unique_ptr<api::CiphertextStore> store, const Options& options);

  ~AlertServer();

  AlertServer(const AlertServer&) = delete;
  AlertServer& operator=(const AlertServer&) = delete;

  /// The bound port (the ephemeral one when Options::port was 0).
  uint16_t port() const;

  /// Stops accepting, closes every connection, joins all threads.
  /// Queued-but-unprocessed requests are dropped — quiesce clients
  /// first when their acks matter. Idempotent; the destructor calls it.
  void Stop();

  ServerStats stats() const;

  /// The scanning provider (store identity, engine, cache counters).
  const alert::ServiceProvider& provider() const;

 private:
  struct Impl;
  explicit AlertServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace net
}  // namespace sloc

#endif  // SLOC_NET_SERVER_H_
