// Worker-pool helpers shared by the batch paths (ingest validation,
// token precompilation, batched issuance, the alert scan). Each caller
// stripes or claims its own work units by worker index; this file owns
// the clamp-spawn-join choreography, so fixes to it (e.g. exception
// safety around join) land in one place, and the barrier a team of
// workers uses to run in lockstep phases.

#ifndef SLOC_COMMON_PARALLEL_H_
#define SLOC_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace sloc {

/// Workers a pool should actually spawn: the configured thread budget
/// clamped to the number of work units, never less than one.
inline size_t ClampWorkers(size_t num_threads, size_t work_units) {
  return std::max<size_t>(1, std::min(num_threads, work_units));
}

/// Runs fn(worker) for worker in [0, num_workers): inline when one
/// worker suffices, on spawned-and-joined std::threads otherwise.
/// Callers handle work unit w, w + num_workers, ... inside fn.
///
/// Exception safety: a throw from fn on a worker thread is captured and
/// rethrown on the calling thread after every worker has joined (the
/// first exception captured wins; later ones are swallowed). A throw
/// during the spawn loop itself (e.g. std::system_error from thread
/// creation) joins the already-spawned workers before propagating.
/// Letting either escape raw would std::terminate the process — an
/// exception crossing a std::thread boundary, or destroying a joinable
/// std::thread, both abort.
inline void RunWorkers(size_t num_workers,
                       const std::function<void(size_t)>& fn) {
  if (num_workers <= 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(num_workers);
  // lock-note: mu guards first_error until the joins below; both are
  // locals captured by reference, and GUARDED_BY cannot name a local
  // variable's capability from inside a lambda.
  Mutex mu;
  std::exception_ptr first_error;
  auto guarded = [&](size_t w) {
    try {
      fn(w);
    } catch (...) {
      MutexLock lock(mu);
      if (!first_error) first_error = std::current_exception();
    }
  };
  struct JoinGuard {
    std::vector<std::thread>* threads;
    ~JoinGuard() {
      for (std::thread& t : *threads) {
        if (t.joinable()) t.join();
      }
    }
  };
  {
    JoinGuard join_all{&workers};
    for (size_t w = 0; w < num_workers; ++w) workers.emplace_back(guarded, w);
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// A reusable barrier for the workers of one RunWorkers call that run
/// in lockstep phases. The last worker to arrive runs `last`, the
/// serial step between two phases, before it releases the others: the
/// step sees every worker's writes, and every worker sees the step's.
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
