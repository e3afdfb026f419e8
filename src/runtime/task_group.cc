#include "runtime/task_group.h"

#include <chrono>
#include <utility>

#include "netbase/contract.h"

namespace bdrmap::runtime {

TaskGroup::~TaskGroup() {
  BDRMAP_EXPECTS(unfinished_.load(std::memory_order_acquire) == 0,
                 "TaskGroup destroyed with unjoined tasks; call wait()");
}

void TaskGroup::record_exception() noexcept {
  {
    net::MutexLock lk(mu_);
    if (!eptr_) eptr_ = std::current_exception();
  }
  cancel();  // no point running the siblings of a failed task
}

void TaskGroup::finish_one() noexcept {
  // Count down AND notify while holding mu_. wait() re-acquires mu_ on its
  // exit path, so once a joiner has seen unfinished_ == 0 it cannot return
  // (and destroy mu_ and cv_) before this critical section ends. A
  // decrement outside the lock would let a helping joiner observe zero,
  // take and release mu_, and destroy the group before we lock it.
  net::MutexLock lk(mu_);
  if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    cv_.notify_all();
  }
}

void TaskGroup::spawn(std::function<void()> fn) {
  BDRMAP_EXPECTS(static_cast<bool>(fn), "spawned task must be callable");
  unfinished_.fetch_add(1, std::memory_order_acq_rel);
  auto body = [this, fn = std::move(fn)]() {
    if (!cancelled()) {
      try {
        fn();
      } catch (...) {
        record_exception();
      }
    }
    finish_one();
  };
  if (pool_ == nullptr) {
    body();
  } else {
    pool_->submit(std::move(body));
  }
}

void TaskGroup::wait() {
  while (unfinished_.load(std::memory_order_acquire) > 0) {
    // Help: run pending pool tasks (our own children first — workers pop
    // their deque LIFO) instead of blocking a thread the children need.
    if (pool_ != nullptr && pool_->try_run_one()) continue;
    net::MutexLock lk(mu_);
    // Re-check under the lock, then sleep briefly rather than forever:
    // our remaining children may be RUNNING on workers that are
    // themselves parked in a nested wait, in which case new helpable
    // tasks can appear without any completion signal on cv_. The outer
    // loop re-checks unfinished_ after every wakeup (timeout, notify, or
    // spurious), so no predicate is needed on the wait itself.
    if (unfinished_.load(std::memory_order_acquire) == 0) break;
    cv_.wait_for(mu_, std::chrono::milliseconds(1));
  }
  net::MutexLock lk(mu_);
  if (eptr_) {
    std::exception_ptr e = eptr_;
    eptr_ = nullptr;  // rethrow once; later wait() calls return clean
    std::rethrow_exception(e);
  }
}

}  // namespace bdrmap::runtime
