#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/messages.h"
#include "common/check.h"
#include "common/thread_annotations.h"
#include "net/frame.h"

namespace sloc {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// epoll_event.data.u64 sentinels for the two non-connection fds (each
/// I/O thread has its own epoll instance, so the sentinels never clash
/// across threads).
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kEventTag = ~uint64_t(0);

/// Connection ids encode their owning I/O thread in the high bits:
/// id = (thread_index + 1) << 40 | per-thread counter (counter starts
/// at 1). Any worker can then route a reply to the right thread's
/// queue with one shift — no global connection table, no global lock.
/// The +1 keeps every id distinct from kListenTag, and no realistic
/// thread count or connection churn reaches kEventTag.
constexpr unsigned kConnIdThreadShift = 40;

uint64_t MakeConnId(size_t thread_index, uint64_t local_id) {
  return (uint64_t(thread_index + 1) << kConnIdThreadShift) | local_id;
}

size_t ThreadOfConnId(uint64_t conn_id) {
  return size_t(conn_id >> kConnIdThreadShift) - 1;
}

}  // namespace

struct AlertServer::Impl {
  // ---- Fixed configuration (set before threads start) ----
  Options options;
  std::shared_ptr<const PairingGroup> group;
  api::CiphertextStore* store = nullptr;  // owned by provider
  std::unique_ptr<alert::ServiceProvider> provider;
  uint16_t port = 0;

  // ---- Cross-thread state ----
  /// One in-flight request from one connection.
  struct RequestState {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    size_t request_bytes = 0;
    std::atomic<size_t> remaining{0};
    std::atomic<uint32_t> accepted{0};
    std::atomic<uint32_t> rejected{0};
    Mutex mu;
    Status first_error SLOC_GUARDED_BY(mu);
  };

  struct PendingUpload {
    std::shared_ptr<RequestState> req;
    int user_id = 0;
    std::vector<uint8_t> blob;
  };

  /// Ingest uploads binned by destination shard. `draining` guarantees
  /// a single consumer per shard at a time, which preserves per-shard
  /// (and therefore per-user) apply order. Any I/O thread enqueues into
  /// any shard under that shard's own mutex — no global ingest lock.
  struct ShardQueue {
    Mutex mu;
    std::vector<PendingUpload> items SLOC_GUARDED_BY(mu);
    bool draining SLOC_GUARDED_BY(mu) = false;
  };
  std::vector<std::unique_ptr<ShardQueue>> shard_queues;

  /// One kAlertTokens request awaiting its serialized scan.
  struct ScanRequest {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    size_t request_bytes = 0;
    std::vector<uint8_t> frame;
  };

  /// Alert scans binned like shard ingest: `draining` guarantees a
  /// single consumer, so at most ONE worker is ever occupied by scan
  /// work no matter how many kAlertTokens requests are pipelined —
  /// ingest drains (and their acks) always have workers left.
  struct ScanQueue {
    Mutex mu;
    std::deque<ScanRequest> items SLOC_GUARDED_BY(mu);
    bool draining SLOC_GUARDED_BY(mu) = false;
  };
  ScanQueue scan_queue;

  struct Task {
    enum class Kind { kDrainShard, kDrainScans };
    Kind kind = Kind::kDrainShard;
    size_t shard = 0;  // kDrainShard only
  };
  Mutex tasks_mu;
  CondVar tasks_cv;  // lock-note: pairs with tasks_mu (WorkerLoop wait)
  std::deque<Task> tasks SLOC_GUARDED_BY(tasks_mu);
  bool stopping SLOC_GUARDED_BY(tasks_mu) = false;

  struct Reply {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    size_t request_bytes = 0;
    std::vector<uint8_t> envelope;
  };

  std::atomic<size_t> total_inflight{0};
  std::atomic<bool> running{false};

  struct AtomicStats {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_closed{0};
    std::atomic<uint64_t> connections_shed{0};
    std::atomic<uint64_t> frames_received{0};
    std::atomic<uint64_t> frames_sent{0};
    std::atomic<uint64_t> protocol_errors{0};
    std::atomic<uint64_t> uploads_accepted{0};
    std::atomic<uint64_t> uploads_rejected{0};
    std::atomic<uint64_t> ingest_drains{0};
    std::atomic<uint64_t> alerts_served{0};
    std::atomic<uint64_t> reads_paused{0};
  };
  AtomicStats stats;

  std::vector<std::thread> workers;

  // ---- Per-I/O-thread state ----
  /// Connection state; touched only by the owning I/O thread.
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    FrameDecoder decoder;
    std::vector<uint8_t> write_buf;  ///< per-thread: no cross-thread writes
    size_t write_pos = 0;
    uint64_t next_seq = 0;    ///< assigned to the next request read
    uint64_t next_reply = 0;  ///< next seq allowed onto the wire
    std::map<uint64_t, Reply> held;  ///< completed out of order
    size_t inflight_bytes = 0;
    bool reading_paused = false;
    bool want_write = false;

    explicit Connection(size_t max_frame_bytes)
        : decoder(max_frame_bytes) {}
  };

  /// One epoll event loop. Each I/O thread owns its own listen socket
  /// (all bound to the same port with SO_REUSEPORT when there is more
  /// than one, so the kernel shards accepts), its own epoll and eventfd,
  /// and every connection it accepted — reads, decodes, write buffers,
  /// and backpressure state never cross threads. Workers hand replies
  /// back through the owning thread's reply queue + eventfd.
  struct IoThread {
    Impl* impl = nullptr;
    size_t index = 0;
    int listen_fd = -1;
    int epoll_fd = -1;
    int event_fd = -1;
    std::thread thread;

    Mutex replies_mu;
    /// Completed, awaiting ordered flush.
    std::vector<Reply> replies SLOC_GUARDED_BY(replies_mu);

    // Everything below is owned by this thread's IoLoop.
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
    std::unordered_set<uint64_t> paused_conns;
    uint64_t next_local_id = 1;
    /// Listen fd disarmed after EMFILE/ENFILE (fd exhaustion). Re-armed
    /// when a connection closes or on the next epoll timeout tick —
    /// without this, level-triggered EPOLLIN on the unaccepted backlog
    /// would spin the I/O thread at 100% CPU until an fd frees.
    bool accept_paused = false;

    void WakeIo() {
      const uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof(one));
    }

    void IoLoop() {
      constexpr int kMaxEvents = 64;
      epoll_event events[kMaxEvents];
      while (impl->running.load(std::memory_order_relaxed)) {
        const int n = ::epoll_wait(epoll_fd, events, kMaxEvents, 500);
        if (n < 0) {
          if (errno == EINTR) continue;
          break;  // epoll broken: nothing sensible left to do
        }
        if (n == 0) {
          // Quiet tick: retry accepts, and re-check reads paused for
          // GLOBAL pressure — the replies that drained total_inflight
          // may have flowed entirely through other threads, which
          // cannot touch this thread's connections.
          ResumeAcceptIfPaused();
          RecheckPausedConns();
          continue;
        }
        for (int i = 0; i < n; ++i) {
          const uint64_t tag = events[i].data.u64;
          if (tag == kListenTag) {
            AcceptAll();
          } else if (tag == kEventTag) {
            uint64_t drained;
            while (::read(event_fd, &drained, sizeof(drained)) > 0) {
            }
            DeliverReplies();
          } else {
            auto it = conns.find(tag);
            if (it == conns.end()) continue;  // closed earlier this sweep
            Connection* conn = it->second.get();
            if (events[i].events & (EPOLLHUP | EPOLLERR)) {
              Close(conn, /*shed=*/false);
              continue;
            }
            if (events[i].events & EPOLLOUT) {
              if (!FlushWrites(conn)) continue;  // closed
            }
            if (events[i].events & EPOLLIN) HandleRead(conn);
          }
        }
      }
    }

    void ArmListen(bool on) {
      epoll_event ev;
      std::memset(&ev, 0, sizeof(ev));
      ev.events = on ? unsigned(EPOLLIN) : 0u;
      ev.data.u64 = kListenTag;
      ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, listen_fd, &ev);
      accept_paused = !on;
    }

    void ResumeAcceptIfPaused() {
      if (accept_paused) ArmListen(true);  // pending backlog re-fires EPOLLIN
    }

    void RecheckPausedConns() {
      if (paused_conns.empty()) return;
      std::vector<uint64_t> ids(paused_conns.begin(), paused_conns.end());
      for (uint64_t id : ids) {
        auto it = conns.find(id);
        if (it != conns.end()) UpdateBackpressure(it->second.get());
      }
    }

    void AcceptAll() {
      while (true) {
        const int fd = ::accept4(listen_fd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          if (errno == EINTR) continue;
          if (errno == EMFILE || errno == ENFILE) ArmListen(false);
          return;  // EAGAIN or transient error: epoll will retry
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn =
            std::make_unique<Connection>(impl->options.max_frame_bytes);
        conn->fd = fd;
        conn->id = MakeConnId(index, next_local_id++);
        epoll_event ev;
        std::memset(&ev, 0, sizeof(ev));
        ev.events = EPOLLIN;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
          ::close(fd);
          continue;
        }
        impl->stats.connections_accepted.fetch_add(1,
                                                   std::memory_order_relaxed);
        conns.emplace(conn->id, std::move(conn));
      }
    }

    void UpdateEpoll(Connection* conn) {
      epoll_event ev;
      std::memset(&ev, 0, sizeof(ev));
      ev.events = (conn->reading_paused ? 0u : unsigned(EPOLLIN)) |
                  (conn->want_write ? unsigned(EPOLLOUT) : 0u);
      ev.data.u64 = conn->id;
      ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
    }

    void Close(Connection* conn, bool shed) {
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
      ::close(conn->fd);
      paused_conns.erase(conn->id);
      impl->stats.connections_closed.fetch_add(1, std::memory_order_relaxed);
      if (shed) {
        impl->stats.connections_shed.fetch_add(1, std::memory_order_relaxed);
      }
      conns.erase(conn->id);  // destroys conn
      ResumeAcceptIfPaused();  // an fd just freed up
    }

    void HandleRead(Connection* conn) {
      uint8_t chunk[64 * 1024];
      while (!conn->reading_paused) {
        const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
        if (n > 0) {
          Status st = conn->decoder.Feed(chunk, size_t(n));
          if (!st.ok()) {
            impl->stats.protocol_errors.fetch_add(1,
                                                  std::memory_order_relaxed);
            Close(conn, /*shed=*/false);
            return;
          }
          std::vector<uint8_t> envelope;
          while (conn->decoder.Next(&envelope)) {
            if (!HandleEnvelope(conn, std::move(envelope))) return;  // closed
            envelope.clear();
          }
          UpdateBackpressure(conn);
          if (size_t(n) < sizeof(chunk)) return;  // drained the socket
        } else if (n == 0) {
          Close(conn, /*shed=*/false);  // peer closed
          return;
        } else {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) return;
          Close(conn, /*shed=*/false);
          return;
        }
      }
    }

    /// Routes one decoded SLEV envelope. Returns false when the
    /// connection was closed.
    bool HandleEnvelope(Connection* conn, std::vector<uint8_t> envelope) {
      impl->stats.frames_received.fetch_add(1, std::memory_order_relaxed);
      auto type = api::PeekType(envelope);
      if (!type.ok()) {
        // Framed correctly but fails the envelope's own checksum/version:
        // the stream itself is suspect. Drop the connection.
        impl->stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        Close(conn, /*shed=*/false);
        return false;
      }
      const uint64_t seq = conn->next_seq++;
      const size_t bytes = envelope.size();
      conn->inflight_bytes += bytes;
      impl->total_inflight.fetch_add(bytes, std::memory_order_relaxed);
      switch (*type) {
        case api::MessageType::kLocationUpload: {
          auto upload = api::DecodeLocationUpload(envelope);
          if (!upload.ok()) {
            return ReplyNow(conn, seq, bytes,
                            AckForBadRequest(upload.status()));
          }
          std::vector<api::LocationUpload> one;
          one.push_back(std::move(upload).value());
          return EnqueueIngest(conn, seq, bytes, std::move(one));
        }
        case api::MessageType::kLocationBatch: {
          auto uploads = api::DecodeLocationBatch(envelope);
          if (!uploads.ok()) {
            return ReplyNow(conn, seq, bytes,
                            AckForBadRequest(uploads.status()));
          }
          return EnqueueIngest(conn, seq, bytes, std::move(uploads).value());
        }
        case api::MessageType::kAlertTokens: {
          impl->EnqueueScan(
              ScanRequest{conn->id, seq, bytes, std::move(envelope)});
          return true;
        }
        default: {
          // A valid envelope the server has no handler for (e.g. a stray
          // outcome report): request-level error, connection survives.
          impl->stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          api::ErrorReply error;
          error.code = int32_t(StatusCode::kUnimplemented);
          error.message = std::string("server does not accept ") +
                          api::MessageTypeName(*type) + " messages";
          return ReplyNow(conn, seq, bytes, api::EncodeErrorReply(error));
        }
      }
      return true;
    }

    static std::vector<uint8_t> AckForBadRequest(const Status& status) {
      api::SubmitAck ack;
      ack.error_code = int32_t(status.code());
      ack.error_message = status.message();
      return api::EncodeSubmitAck(ack);
    }

    /// Bins the uploads into the shared per-shard queues. Returns false
    /// when an immediate reply (empty batch) closed the connection.
    bool EnqueueIngest(Connection* conn, uint64_t seq, size_t bytes,
                       std::vector<api::LocationUpload> uploads) {
      auto req = std::make_shared<RequestState>();
      req->conn_id = conn->id;
      req->seq = seq;
      req->request_bytes = bytes;
      if (uploads.empty()) {
        return ReplyNow(conn, seq, bytes, api::EncodeSubmitAck({}));
      }
      req->remaining.store(uploads.size(), std::memory_order_relaxed);
      std::vector<size_t> touched;
      for (api::LocationUpload& upload : uploads) {
        const size_t shard = impl->store->ShardOf(upload.user_id);
        ShardQueue& queue = *impl->shard_queues[shard];
        MutexLock lock(queue.mu);
        queue.items.push_back(
            PendingUpload{req, upload.user_id, std::move(upload.ciphertext)});
        if (!queue.draining) {
          queue.draining = true;
          touched.push_back(shard);
        }
      }
      for (size_t shard : touched) {
        Task task;
        task.kind = Task::Kind::kDrainShard;
        task.shard = shard;
        impl->PushTask(std::move(task));
      }
      return true;
    }

    /// Immediate reply from the I/O thread (decode errors, empty acks):
    /// same ordered-reply path as worker completions. Returns false when
    /// delivery closed the connection (write error, slow-consumer shed)
    /// — `conn` is destroyed and the caller must stop touching it.
    bool ReplyNow(Connection* conn, uint64_t seq, size_t bytes,
                  std::vector<uint8_t> envelope) {
      return DeliverOne({conn->id, seq, bytes, std::move(envelope)});
    }

    void DeliverReplies() {
      std::vector<Reply> batch;
      {
        MutexLock lock(replies_mu);
        batch.swap(replies);
      }
      for (Reply& reply : batch) DeliverOne(std::move(reply));
      // Replies drained in-flight bytes: reads paused for global
      // pressure can resume even when their own connection got no reply.
      RecheckPausedConns();
    }

    /// Queues one completed reply onto its connection's ordered write
    /// path and flushes. Returns false when the connection no longer
    /// exists — it died before delivery, or delivery itself closed it
    /// (write error or slow-consumer shed) and freed the Connection.
    bool DeliverOne(Reply reply) {
      const uint64_t conn_id = reply.conn_id;
      impl->total_inflight.fetch_sub(reply.request_bytes,
                                     std::memory_order_relaxed);
      auto it = conns.find(conn_id);
      if (it == conns.end()) return false;  // connection died first
      Connection* conn = it->second.get();
      conn->held.emplace(reply.seq, std::move(reply));
      // Flush every reply that is next in request order.
      while (true) {
        auto next = conn->held.find(conn->next_reply);
        if (next == conn->held.end()) break;
        conn->inflight_bytes -= next->second.request_bytes;
        AppendFrame(next->second.envelope, &conn->write_buf);
        impl->stats.frames_sent.fetch_add(1, std::memory_order_relaxed);
        conn->held.erase(next);
        ++conn->next_reply;
      }
      if (!FlushWrites(conn)) return false;  // closed (error or shed)
      UpdateBackpressure(conn);
      // Unpausing inside UpdateBackpressure re-enters HandleRead, which
      // can itself close the connection — re-check before vouching.
      return conns.find(conn_id) != conns.end();
    }

    /// Writes as much buffered output as the socket takes. Returns false
    /// when the connection was closed (error or slow-consumer shed).
    bool FlushWrites(Connection* conn) {
      while (conn->write_pos < conn->write_buf.size()) {
        // MSG_NOSIGNAL: a peer that resets mid-reply must surface EPIPE
        // here, not SIGPIPE the whole process.
        const ssize_t n =
            ::send(conn->fd, conn->write_buf.data() + conn->write_pos,
                   conn->write_buf.size() - conn->write_pos, MSG_NOSIGNAL);
        if (n > 0) {
          conn->write_pos += size_t(n);
          continue;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        Close(conn, /*shed=*/false);
        return false;
      }
      if (conn->write_pos >= conn->write_buf.size()) {
        conn->write_buf.clear();
        conn->write_pos = 0;
      } else if (conn->write_pos > (1u << 20)) {
        conn->write_buf.erase(
            conn->write_buf.begin(),
            conn->write_buf.begin() + long(conn->write_pos));
        conn->write_pos = 0;
      }
      const size_t backlog = conn->write_buf.size() - conn->write_pos;
      if (backlog > impl->options.max_write_buffer) {
        // Slow consumer: it is not reading its replies. Shedding it
        // frees the backlog; anything still queued for it gets dropped
        // on delivery.
        Close(conn, /*shed=*/true);
        return false;
      }
      const bool want_write = backlog > 0;
      if (want_write != conn->want_write) {
        conn->want_write = want_write;
        UpdateEpoll(conn);
      }
      return true;
    }

    void UpdateBackpressure(Connection* conn) {
      const bool should_pause =
          conn->inflight_bytes > impl->options.max_connection_inflight ||
          impl->total_inflight.load(std::memory_order_relaxed) >
              impl->options.max_total_inflight;
      if (should_pause && !conn->reading_paused) {
        conn->reading_paused = true;
        paused_conns.insert(conn->id);
        impl->stats.reads_paused.fetch_add(1, std::memory_order_relaxed);
        UpdateEpoll(conn);
      } else if (!should_pause && conn->reading_paused) {
        conn->reading_paused = false;
        paused_conns.erase(conn->id);
        UpdateEpoll(conn);
        // Bytes may already be buffered in the kernel; poke the decoder
        // now instead of waiting for the next epoll edge.
        HandleRead(conn);
      }
    }
  };
  std::vector<std::unique_ptr<IoThread>> io_threads;

  ~Impl() { StopThreads(); }

  // ============ lifecycle ============

  Status Listen() {
    const size_t nio = io_threads.size();
    uint16_t bound_port = options.port;
    for (size_t t = 0; t < nio; ++t) {
      IoThread& io = *io_threads[t];
      io.listen_fd =
          ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (io.listen_fd < 0) return Errno("socket");
      const int one = 1;
      ::setsockopt(io.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (nio > 1) {
        // One listen socket per I/O thread on the same port: the kernel
        // hashes incoming connections across them, sharding accepts
        // with no user-space hand-off. Single-threaded servers skip
        // REUSEPORT and keep the exact pre-existing bind semantics.
        if (::setsockopt(io.listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                         sizeof(one)) != 0) {
          return Errno("setsockopt(SO_REUSEPORT)");
        }
      }
      sockaddr_in addr;
      std::memset(&addr, 0, sizeof(addr));
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(bound_port);
      if (::bind(io.listen_fd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        return Errno("bind 127.0.0.1:" + std::to_string(bound_port));
      }
      if (::listen(io.listen_fd, 128) != 0) return Errno("listen");
      if (t == 0) {
        // First socket resolves an ephemeral port; the rest bind it.
        socklen_t len = sizeof(addr);
        if (::getsockname(io.listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len) != 0) {
          return Errno("getsockname");
        }
        bound_port = ntohs(addr.sin_port);
        port = bound_port;
      }

      io.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      if (io.epoll_fd < 0) return Errno("epoll_create1");
      io.event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (io.event_fd < 0) return Errno("eventfd");
      epoll_event ev;
      std::memset(&ev, 0, sizeof(ev));
      ev.events = EPOLLIN;
      ev.data.u64 = kListenTag;
      if (::epoll_ctl(io.epoll_fd, EPOLL_CTL_ADD, io.listen_fd, &ev) != 0) {
        return Errno("epoll_ctl(listen)");
      }
      ev.data.u64 = kEventTag;
      if (::epoll_ctl(io.epoll_fd, EPOLL_CTL_ADD, io.event_fd, &ev) != 0) {
        return Errno("epoll_ctl(eventfd)");
      }
    }
    return Status::Ok();
  }

  void StartThreads() {
    running.store(true);
    for (auto& io : io_threads) {
      IoThread* t = io.get();
      t->thread = std::thread([t] { t->IoLoop(); });
    }
    workers.reserve(options.num_workers);
    for (unsigned w = 0; w < options.num_workers; ++w) {
      workers.emplace_back([this] { WorkerLoop(); });
    }
  }

  void StopThreads() {
    if (!running.exchange(false)) return;
    for (auto& io : io_threads) io->WakeIo();
    for (auto& io : io_threads) {
      if (io->thread.joinable()) io->thread.join();
    }
    {
      MutexLock lock(tasks_mu);
      stopping = true;
    }
    tasks_cv.NotifyAll();
    for (std::thread& t : workers) {
      if (t.joinable()) t.join();
    }
    workers.clear();
    if (options.durability != nullptr) {
      // Workers are quiet, so no new deferred acks can register; wait
      // out the ones already handed to the store's sync thread before
      // closing the fds their PushReply targets.
      options.durability->DrainNotifications();
    }
    for (auto& io : io_threads) {
      for (auto& [id, conn] : io->conns) ::close(conn->fd);
      io->conns.clear();
      if (io->listen_fd >= 0) ::close(io->listen_fd);
      if (io->event_fd >= 0) ::close(io->event_fd);
      if (io->epoll_fd >= 0) ::close(io->epoll_fd);
      io->listen_fd = io->event_fd = io->epoll_fd = -1;
    }
  }

  // ============ worker side ============

  void PushTask(Task task) {
    {
      MutexLock lock(tasks_mu);
      tasks.push_back(std::move(task));
    }
    tasks_cv.NotifyOne();
  }

  void WorkerLoop() {
    while (true) {
      Task task;
      {
        // Explicit while-loop (not a predicate lambda) so the analysis
        // sees the guarded reads under the lock.
        MutexLock lock(tasks_mu);
        while (!stopping && tasks.empty()) tasks_cv.Wait(lock);
        if (stopping) return;
        task = std::move(tasks.front());
        tasks.pop_front();
      }
      switch (task.kind) {
        case Task::Kind::kDrainShard:
          DrainShard(task.shard);
          break;
        case Task::Kind::kDrainScans:
          DrainScans();
          break;
      }
    }
  }

  void DrainShard(size_t shard) {
    ShardQueue& queue = *shard_queues[shard];
    std::vector<PendingUpload> batch;
    while (true) {
      {
        MutexLock lock(queue.mu);
        if (queue.items.empty()) {
          queue.draining = false;
          return;
        }
        batch.swap(queue.items);
      }
      // Parse and validate with no locks held — the expensive half —
      // and apply in queue order: this worker is the shard's only
      // drainer, so per-user order is the arrival order. The store logs
      // each validated blob as it arrived. The acks go out together
      // once the whole drain is applied (and logged).
      std::vector<Status> why(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        const std::vector<uint8_t>& blob = batch[i].blob;
        why[i] = api::Ingest(*store, *group, batch[i].user_id,
                             wire::ByteView{blob.data(), blob.size()});
      }
      stats.ingest_drains.fetch_add(1, std::memory_order_relaxed);
      for (size_t i = 0; i < batch.size(); ++i) {
        RequestState& req = *batch[i].req;
        if (why[i].ok()) {
          req.accepted.fetch_add(1, std::memory_order_relaxed);
          stats.uploads_accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          req.rejected.fetch_add(1, std::memory_order_relaxed);
          stats.uploads_rejected.fetch_add(1, std::memory_order_relaxed);
          MutexLock lock(req.mu);
          if (req.first_error.ok()) req.first_error = why[i];
        }
        if (req.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          FinishIngest(batch[i].req);
        }
      }
      batch.clear();
    }
  }

  void FinishIngest(const std::shared_ptr<RequestState>& req) {
    if (options.durability == nullptr) {
      SendIngestAck(req, Status::Ok());
      return;
    }
    // The batch is fully applied (and appended) by the time remaining
    // hits zero, so a ticket taken now covers every record of it. The
    // callback fires from the store's sync thread once the covering
    // fsync lands — StopThreads drains these before tearing down the
    // reply path.
    const uint64_t ticket = options.durability->CurrentTicket();
    options.durability->NotifyDurable(
        ticket, [this, req](Status durable) {
          SendIngestAck(req, std::move(durable));
        });
  }

  void SendIngestAck(const std::shared_ptr<RequestState>& req,
                     Status durable) {
    api::SubmitAck ack;
    ack.accepted = req->accepted.load(std::memory_order_relaxed);
    ack.rejected = req->rejected.load(std::memory_order_relaxed);
    {
      MutexLock lock(req->mu);
      if (!req->first_error.ok()) {
        ack.error_code = int32_t(req->first_error.code());
        ack.error_message = req->first_error.message();
      }
    }
    if (!durable.ok() && ack.error_code == 0) {
      // Applied but not durable: the client must not treat this ack as
      // a persistence promise.
      ack.error_code = int32_t(durable.code());
      ack.error_message = "durability lost: " + durable.message();
    }
    PushReply({req->conn_id, req->seq, req->request_bytes,
               api::EncodeSubmitAck(ack)});
  }

  /// I/O thread: queues a scan and wakes a drainer only when none is
  /// already running.
  void EnqueueScan(ScanRequest scan) {
    bool start_drain = false;
    {
      MutexLock lock(scan_queue.mu);
      scan_queue.items.push_back(std::move(scan));
      if (!scan_queue.draining) {
        scan_queue.draining = true;
        start_drain = true;
      }
    }
    if (start_drain) {
      Task task;
      task.kind = Task::Kind::kDrainScans;
      PushTask(std::move(task));
    }
  }

  void DrainScans() {
    while (true) {
      ScanRequest scan;
      {
        MutexLock lock(scan_queue.mu);
        if (scan_queue.items.empty()) {
          scan_queue.draining = false;
          return;
        }
        scan = std::move(scan_queue.items.front());
        scan_queue.items.pop_front();
      }
      // Single-drainer serialization doubles as the provider's safety
      // contract: the token-table LRU is not safe under concurrent
      // ProcessAlert calls, and one scan already fans out over
      // Options::scan_threads workers of its own.
      std::vector<uint8_t> envelope;
      auto reply = provider->ProcessAlertBundle(scan.frame);
      if (reply.ok()) {
        envelope = std::move(reply).value();
      } else {
        api::ErrorReply error;
        error.code = int32_t(reply.status().code());
        error.message = reply.status().message();
        envelope = api::EncodeErrorReply(error);
      }
      stats.alerts_served.fetch_add(1, std::memory_order_relaxed);
      PushReply({scan.conn_id, scan.seq, scan.request_bytes,
                 std::move(envelope)});
    }
  }

  /// Routes a completed reply to the I/O thread that owns the
  /// connection (encoded in the connection id) and wakes it.
  void PushReply(Reply reply) {
    IoThread& io = *io_threads[ThreadOfConnId(reply.conn_id)];
    {
      MutexLock lock(io.replies_mu);
      io.replies.push_back(std::move(reply));
    }
    io.WakeIo();
  }
};

AlertServer::AlertServer(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

AlertServer::~AlertServer() { Stop(); }

Result<std::unique_ptr<AlertServer>> AlertServer::Start(
    std::shared_ptr<const PairingGroup> group, Fp2Elem marker,
    std::unique_ptr<api::CiphertextStore> store, const Options& options) {
  if (group == nullptr || store == nullptr) {
    return Status::InvalidArgument("null group or store");
  }
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  if (impl->options.num_workers == 0) impl->options.num_workers = 1;
  if (impl->options.io_threads == 0) impl->options.io_threads = 1;
  impl->group = group;

  impl->store = store.get();
  alert::ServiceProvider::Options sp_options;
  sp_options.num_shards = store->num_shards();
  sp_options.num_threads =
      options.scan_threads == 0 ? 1 : options.scan_threads;
  sp_options.token_cache_capacity = options.token_cache_capacity;
  impl->provider = std::make_unique<alert::ServiceProvider>(
      std::move(group), std::move(marker), std::move(store), sp_options);
  SLOC_RETURN_IF_ERROR(impl->provider->config_status());

  impl->shard_queues.resize(impl->store->num_shards());
  for (auto& queue : impl->shard_queues) {
    queue = std::make_unique<Impl::ShardQueue>();
  }
  impl->io_threads.resize(impl->options.io_threads);
  for (size_t t = 0; t < impl->io_threads.size(); ++t) {
    impl->io_threads[t] = std::make_unique<Impl::IoThread>();
    impl->io_threads[t]->impl = impl.get();
    impl->io_threads[t]->index = t;
  }
  SLOC_RETURN_IF_ERROR(impl->Listen());
  impl->StartThreads();
  return std::unique_ptr<AlertServer>(new AlertServer(std::move(impl)));
}

uint16_t AlertServer::port() const { return impl_->port; }

void AlertServer::Stop() { impl_->StopThreads(); }

const alert::ServiceProvider& AlertServer::provider() const {
  return *impl_->provider;
}

ServerStats AlertServer::stats() const {
  const Impl::AtomicStats& a = impl_->stats;
  ServerStats s;
  s.connections_accepted = a.connections_accepted.load();
  s.connections_closed = a.connections_closed.load();
  s.connections_shed = a.connections_shed.load();
  s.frames_received = a.frames_received.load();
  s.frames_sent = a.frames_sent.load();
  s.protocol_errors = a.protocol_errors.load();
  s.uploads_accepted = a.uploads_accepted.load();
  s.uploads_rejected = a.uploads_rejected.load();
  s.ingest_drains = a.ingest_drains.load();
  s.alerts_served = a.alerts_served.load();
  s.reads_paused = a.reads_paused.load();
  return s;
}

}  // namespace net
}  // namespace sloc
