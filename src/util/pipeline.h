#ifndef ALPHAEVOLVE_UTIL_PIPELINE_H_
#define ALPHAEVOLVE_UTIL_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "util/threadpool.h"

namespace alphaevolve {

/// Completion tracking for tasks submitted to a ThreadPool by one driving
/// thread — the future/completion-queue primitive behind asynchronous
/// pipelines (EvaluatorPool::ForEachAsync, the evolution batch driver).
/// Where ThreadPool::WaitAll blocks on the *whole pool*, a TaskGroup
/// scopes waiting to its own submissions and supports waiting on
/// arbitrary intermediate conditions ("this one candidate's fitness
/// landed"), not just full drain.
///
/// Waiting helps: while a condition is unmet, the waiter drains queued pool
/// tasks (ThreadPool::TryRunOneTask) instead of parking, so a group whose
/// tasks are still stuck behind other work — including the waiter's own
/// enclosing pool task in a nested/concurrent-search setting — always makes
/// progress. Only when the queue is empty (every submitted task is running
/// or done, and will therefore signal) does the waiter sleep on the group's
/// condition variable.
///
/// Single-submitter: one thread calls Submit/WaitUntil/WaitAll; tasks on any
/// thread may call Notify. The destructor waits for all submitted tasks, so
/// state captured by reference from the submitter's frame outlives every
/// task body. The sync state itself is shared-owned by each in-flight
/// wrapper: a waiter that observes the final completion through the atomic
/// may destroy the group while the last wrapper is still inside its
/// post-completion notify, which must therefore never touch the group.
class TaskGroup {
 public:
  /// `pool == nullptr` is valid: Submit then runs the task inline on the
  /// caller (the degenerate serial pipeline).
  explicit TaskGroup(ThreadPool* pool)
      : pool_(pool), state_(std::make_shared<State>()) {}

  ~TaskGroup() { WaitAll(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `task` on the pool (or runs it inline when poolless). The
  /// group's counters observe its completion; Wait* and Notify wake-ups see
  /// every memory effect of completed tasks.
  void Submit(std::function<void()> task) {
    ++submitted_;
    if (pool_ == nullptr) {
      task();
      return;
    }
    pool_->Submit([state = state_, task = std::move(task)] {
      task();
      state->completed.fetch_add(1, std::memory_order_release);
      NotifyState(*state);
    });
  }

  /// Wakes any waiter so its predicate re-checks. Call from inside a task
  /// after publishing a partial result (e.g. one item of a work-stealing
  /// batch) with release ordering; WaitUntil's predicate runs either under
  /// the group mutex or after draining a task, so a published flag read with
  /// acquire ordering is never missed. Must be called before the enclosing
  /// task body returns (the group is only guaranteed alive until then).
  void Notify() { NotifyState(*state_); }

  /// Blocks until pred() is true, draining queued pool tasks while waiting.
  /// `pred` must be monotone (once true, stays true), satisfied by the
  /// completion — or a Notify-published partial result — of tasks already
  /// submitted to this group, and lock-free (read atomics: it runs with the
  /// group mutex held).
  void WaitUntil(const std::function<bool()>& pred) {
    State& s = *state_;
    for (;;) {
      if (pred()) return;
      if (pool_ != nullptr && pool_->TryRunOneTask()) continue;
      // Queue empty: every task of ours is running or done and will notify.
      std::unique_lock<std::mutex> lock(s.mu);
      if (pred()) return;
      s.cv.wait(lock);
      // Re-check and go back to draining: the wake-up may have been for a
      // different condition, and new helpable work may have been queued.
    }
  }

  /// Blocks until every task submitted so far has finished (helping).
  void WaitAll() {
    if (pool_ == nullptr) return;  // inline tasks finished inside Submit
    const int64_t target = submitted_;
    State& s = *state_;
    WaitUntil([&s, target] {
      return s.completed.load(std::memory_order_acquire) >= target;
    });
  }

  /// Tasks submitted so far (submitter thread's view).
  int64_t submitted() const { return submitted_; }

 private:
  /// Owned jointly by the group and every in-flight wrapper, so the final
  /// notify outlives the group (cf. ThreadPool::ParallelFor's ForState).
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<int64_t> completed{0};
  };

  /// The empty critical section pairs with the waiter's predicate check
  /// under `mu`: a final completion published between that check and the
  /// wait cannot have its notify slip in between.
  static void NotifyState(State& s) {
    { std::lock_guard<std::mutex> lock(s.mu); }
    s.cv.notify_all();
  }

  ThreadPool* pool_;
  std::shared_ptr<State> state_;
  int64_t submitted_ = 0;  ///< submitter thread only
};

}  // namespace alphaevolve

#endif  // ALPHAEVOLVE_UTIL_PIPELINE_H_
