#include "common/parallel.h"

#include <pthread.h>

#include <thread>

namespace sloc {
namespace parallel_internal {
namespace {

/// The process pool: helper threads that claim indexes from open jobs.
/// It lives as long as the process, and so do its helpers. A helper is
/// either waiting on work_cv_ (counted in waiting_) or inside a job;
/// both change only under mu_, so a caller holding mu_ sees exactly how
/// many helpers are idle.
class Pool {
 public:
  /// Returns once every helper is idle, so the first team made on a
  /// new pool is granted all of them.
  explicit Pool(size_t helpers) {
    MutexLock lock(mu_);
    starting_ = helpers;
    for (size_t i = 0; i < helpers; ++i) {
      std::thread([this] { HelperLoop(); }).detach();
    }
    while (starting_ > 0) work_cv_.Wait(lock);
  }

  void RunStriped(size_t count, Task task) {
    Job job;
    job.task = task;
    job.count = count;
    job.started = true;
    MutexLock lock(mu_);
    LinkLocked(&job);
    std::exception_ptr error;
    while (job.next < job.count) {
      const size_t index = job.next++;
      lock.Unlock();
      try {
        task.call(task.fn, index);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
      lock.Lock();
    }
    UnlinkLocked(&job);
    while (job.running > 0) job.cv.Wait(lock);
    if (!job.error) job.error = error;
    lock.Unlock();
    if (job.error) std::rethrow_exception(job.error);
  }

  size_t OpenTeam(Job* job, size_t wanted) {
    MutexLock lock(mu_);
    // Seats already promised to other teams are filled from the idle
    // helpers too (a waking helper takes a seat before anything else).
    const size_t granted = std::min(wanted - 1, waiting_ - seats_);
    if (granted == 0) return 1;
    job->team = true;
    job->count = granted + 1;
    job->seats = granted;
    seats_ += granted;
    LinkLocked(job);
    return granted + 1;
  }

  void RunTeam(Job* job, Task task) {
    MutexLock lock(mu_);
    job->task = task;
    job->started = true;
    job->cv.NotifyAll();
    std::exception_ptr error;
    if (task.call != nullptr) {
      lock.Unlock();
      try {
        task.call(task.fn, 0);
      } catch (...) {
        error = std::current_exception();
      }
      lock.Lock();
    }
    while (job->seats > 0 || job->running > 0) job->cv.Wait(lock);
    UnlinkLocked(job);
    if (!job->error) job->error = error;
    lock.Unlock();
    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  void HelperLoop() {
    MutexLock lock(mu_);
    // Counted idle below before the lock is let go; the constructor
    // waits on the same condition variable.
    if (--starting_ == 0) work_cv_.NotifyAll();
    for (;;) {
      Job* job = nullptr;
      size_t index = 0;
      if (!ClaimLocked(&job, &index)) {
        ++waiting_;
        work_cv_.Wait(lock);
        --waiting_;
        continue;
      }
      ++job->running;
      while (!job->started) job->cv.Wait(lock);  // a seat waits for Run
      const Task task = job->task;
      lock.Unlock();
      std::exception_ptr error;
      if (task.call != nullptr) {
        try {
          task.call(task.fn, index);
        } catch (...) {
          error = std::current_exception();
        }
      }
      lock.Lock();
      if (error && !job->error) job->error = error;
      if (--job->running == 0) job->cv.NotifyAll();
    }
  }

  /// Claims a team seat if any team has one open, else the next index
  /// of a striped job. Seats come first: a team was granted them from
  /// helpers that were idle, and its parties wait for each other.
  bool ClaimLocked(Job** claimed, size_t* index) SLOC_REQUIRES(mu_) {
    if (seats_ > 0) {
      for (Job* job = jobs_; job != nullptr; job = job->link) {
        if (job->team && job->seats > 0) {
          *index = job->count - job->seats--;
          --seats_;
          *claimed = job;
          return true;
        }
      }
    }
    for (Job* job = jobs_; job != nullptr; job = job->link) {
      if (!job->team && job->next < job->count) {
        *index = job->next++;
        *claimed = job;
        return true;
      }
    }
    return false;
  }

  void LinkLocked(Job* job) SLOC_REQUIRES(mu_) {
    job->link = jobs_;
    jobs_ = job;
    if (waiting_ > 0) work_cv_.NotifyAll();
  }

  void UnlinkLocked(Job* job) SLOC_REQUIRES(mu_) {
    Job** at = &jobs_;
    while (*at != job) at = &(*at)->link;
    *at = job->link;
  }

  Mutex mu_;
  // lock-note: work_cv_ pairs with mu_; idle helpers wait on it, and
  // the constructor waits on it for its helpers to start.
  CondVar work_cv_;
  Job* jobs_ SLOC_GUARDED_BY(mu_) = nullptr;  ///< open jobs, newest first
  size_t waiting_ SLOC_GUARDED_BY(mu_) = 0;   ///< helpers on work_cv_
  size_t seats_ SLOC_GUARDED_BY(mu_) = 0;     ///< open team seats, all jobs
  size_t starting_ SLOC_GUARDED_BY(mu_) = 0;  ///< helpers not yet idle
};

// lock-note: g_pool_mu serialises making the pool, and a fork holds
// it, so a child never inherits it locked by a thread it does not have.
Mutex g_pool_mu;
std::atomic<Pool*> g_pool{nullptr};
bool g_at_fork SLOC_GUARDED_BY(g_pool_mu) = false;  ///< handlers registered

// The atfork handlers hold g_pool_mu across fork() itself, which the
// analysis cannot follow from one handler to the next.
void LockPoolForFork() SLOC_NO_THREAD_SAFETY_ANALYSIS { g_pool_mu.Lock(); }
void UnlockPoolAfterFork() SLOC_NO_THREAD_SAFETY_ANALYSIS {
  g_pool_mu.Unlock();
}

/// A forked child has only the forking thread: the parent's helpers,
/// and any lock one of them held, are gone. The child leaves that pool
/// behind and makes its own on first use.
void ForgetPoolInChild() SLOC_NO_THREAD_SAFETY_ANALYSIS {
  g_pool.store(nullptr, std::memory_order_relaxed);
  g_pool_mu.Unlock();
}

Pool& ProcessPool() {
  Pool* pool = g_pool.load(std::memory_order_acquire);
  if (pool != nullptr) return *pool;
  MutexLock lock(g_pool_mu);
  pool = g_pool.load(std::memory_order_relaxed);
  if (pool != nullptr) return *pool;
  if (!g_at_fork) {
    pthread_atfork(&LockPoolForFork, &UnlockPoolAfterFork, &ForgetPoolInChild);
    g_at_fork = true;
  }
  const unsigned cores = std::thread::hardware_concurrency();
  pool = new Pool(cores > 1 ? cores - 1 : 0);
  g_pool.store(pool, std::memory_order_release);
  return *pool;
}

}  // namespace

void RunStriped(size_t count, Task task) {
  ProcessPool().RunStriped(count, task);
}

size_t OpenTeam(Job* job, size_t wanted) {
  return ProcessPool().OpenTeam(job, wanted);
}

void RunTeam(Job* job, Task task) { ProcessPool().RunTeam(job, task); }

}  // namespace parallel_internal
}  // namespace sloc
