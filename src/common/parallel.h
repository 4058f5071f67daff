// The process worker pool shared by the batch paths (ingest
// validation, WAL replay, token precompilation, batched issuance, the
// alert scan), and the barrier a team of workers uses to run in
// lockstep phases.
//
// The pool. The process has one pool, created on first use with
// hardware_concurrency() - 1 helper threads (none on a one-core host);
// with the calling thread that makes one thread per core. Making it
// waits until every helper is idle, so the first team on a new pool is
// granted all of them. Its helpers live as long as the process. Two
// kinds of call run on it:
//
//   * RunWorkers (striped): fn(w) for every worker index w. Idle
//     helpers claim indexes and the calling thread claims the rest, so
//     any thread may run several indexes one after another, and a call
//     finishes even when no helper is free. Callers stripe or claim
//     their work units by index and never wait for a sibling index.
//   * WorkerTeam (all at once): parties that meet at a TeamBarrier
//     must all run at the same time. A team takes exactly the helpers
//     that are idle when it is made, and shrinks to that many parties
//     (plus the calling thread) before it starts; the caller sizes its
//     barrier and per-party state from size().
//
// Neither kind waits for a helper that is busy, so calls may nest
// (a striped index or a team party may call RunWorkers or make a
// team) and may run concurrently from many threads without deadlock,
// and the pool never has more threads than there are cores. (Threads
// outside the pool, such as the server's crypto workers, also call
// into it, so the process as a whole may still run more threads than
// cores.)
//
// Fork. A forked child has none of its parent's helper threads. The
// child forgets the parent's pool (a pthread_atfork handler, which
// also holds the pool's creation lock across the fork) and makes its
// own on first use.

#ifndef SLOC_COMMON_PARALLEL_H_
#define SLOC_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>

#include "common/thread_annotations.h"

namespace sloc {

/// Workers a call should ask for: the configured thread budget clamped
/// to the number of work units, never less than one.
inline size_t ClampWorkers(size_t num_threads, size_t work_units) {
  return std::max<size_t>(1, std::min(num_threads, work_units));
}

namespace parallel_internal {

/// A caller's callable behind one plain function pointer, so handing
/// work to the pool allocates nothing (a std::function may).
struct Task {
  void (*call)(const void* fn, size_t index) = nullptr;
  const void* fn = nullptr;
};

template <typename Fn>
Task MakeTask(Fn& fn) {
  return {[](const void* f, size_t index) {
            (*static_cast<Fn*>(const_cast<void*>(f)))(index);
          },
          &fn};
}

/// One call's work on the pool: indexes [0, count) of `task`. It lives
/// in the caller's frame, and the pool links it while helpers may
/// claim from it. Every field is guarded by the pool's mutex.
struct Job {
  Task task;
  size_t count = 0;
  size_t next = 0;       ///< striped: first unclaimed index
  size_t seats = 0;      ///< team: helper parties not yet seated
  bool team = false;
  bool started = false;  ///< team: `task` is set (null: cancelled)
  size_t running = 0;    ///< helpers inside the job
  std::exception_ptr error;  ///< first exception any index threw
  Job* link = nullptr;       ///< next open job
  // lock-note: pairs with the pool's mutex; wakes the job's owner when
  // its helpers finish, and seated helpers when a team starts.
  CondVar cv;
};

/// Runs task(w) for w in [0, count) on the pool; see RunWorkers.
void RunStriped(size_t count, Task task);
/// Seats up to wanted - 1 idle helpers on `job`; returns the parties,
/// the caller included.
size_t OpenTeam(Job* job, size_t wanted);
/// Starts the seated team (a null task releases it unrun), runs party
/// 0 on the caller and waits for the others; rethrows the first throw.
void RunTeam(Job* job, Task task);

}  // namespace parallel_internal

/// Runs fn(worker) for worker in [0, num_workers) on the process pool:
/// inline when one worker suffices; otherwise idle helpers claim
/// indexes and the calling thread runs whatever they do not. Callers
/// handle work unit w, w + num_workers, ... inside fn. A warm call
/// allocates nothing.
///
/// Exception safety: a throw from fn is captured and rethrown on the
/// calling thread once every index has run (the first exception
/// captured wins; later ones are swallowed). An exception never
/// crosses a thread boundary, which would std::terminate the process.
template <typename Fn>
void RunWorkers(size_t num_workers, Fn&& fn) {
  if (num_workers <= 1) {
    fn(size_t(0));
    return;
  }
  parallel_internal::RunStriped(num_workers, parallel_internal::MakeTask(fn));
}

/// Parties that run at the same time: the calling thread plus the pool
/// helpers that were idle when the team was made, at most `wanted` in
/// all (one when none was idle). The helpers stay reserved until Run.
class WorkerTeam {
 public:
  explicit WorkerTeam(size_t wanted)
      : parties_(wanted <= 1 ? 1
                             : parallel_internal::OpenTeam(&job_, wanted)) {}
  ~WorkerTeam() {
    if (parties_ > 1 && !job_.started) {
      parallel_internal::RunTeam(&job_, parallel_internal::Task{});
    }
  }
  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  size_t size() const { return parties_; }

  /// Runs fn(party) for every party in [0, size()) at once; party 0 is
  /// the calling thread. Call at most once. Throws as RunWorkers does.
  template <typename Fn>
  void Run(Fn&& fn) {
    if (parties_ == 1) {
      fn(size_t(0));
      return;
    }
    parallel_internal::RunTeam(&job_, parallel_internal::MakeTask(fn));
  }

 private:
  parallel_internal::Job job_;
  const size_t parties_;
};

/// A reusable barrier for the parties of one WorkerTeam that run in
/// lockstep phases. The last worker to arrive runs `last`, the serial
/// step between two phases, before it releases the others: the step
/// sees every worker's writes, and every worker sees the step's.
/// Abort() releases every current and future waiter. A worker that
/// fails, by returning early or by throwing, calls it, so no teammate
/// waits for it forever.
class TeamBarrier {
 public:
  explicit TeamBarrier(size_t parties) : parties_(parties) {}

  /// Blocks until all parties have arrived. Returns false once the
  /// team has been aborted, before or during the wait; `last` then may
  /// not have run. If `last` throws, the barrier releases no one: the
  /// thrower must Abort().
  bool ArriveAndWait(const std::function<void()>& last = nullptr) {
    MutexLock lock(mu_);
    if (aborted()) return false;
    const uint64_t generation = generation_;
    if (++arrived_ < parties_) {
      while (generation_ == generation && !aborted()) cv_.Wait(lock);
      return !aborted();
    }
    if (last) {
      // The others wait for the generation to change, so the step runs
      // alone without holding the lock.
      lock.Unlock();
      last();
      lock.Lock();
    }
    arrived_ = 0;
    ++generation_;
    cv_.NotifyAll();
    return !aborted();
  }

  void Abort() {
    MutexLock lock(mu_);
    aborted_.store(true, std::memory_order_release);
    cv_.NotifyAll();
  }

  /// Cheap enough to poll between work units.
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

 private:
  const size_t parties_;
  Mutex mu_;
  // lock-note: cv_ pairs with mu_; waiters hold it by construction.
  CondVar cv_;
  size_t arrived_ SLOC_GUARDED_BY(mu_) = 0;
  uint64_t generation_ SLOC_GUARDED_BY(mu_) = 0;
  std::atomic<bool> aborted_{false};
};

}  // namespace sloc

#endif  // SLOC_COMMON_PARALLEL_H_
