// RCU-style snapshot publication: readers never sleep, never see a torn map.
//
// The daemon's query threads call current() — one spinlocked shared_ptr
// copy — and keep the returned snapshot alive for as long as their query
// runs, regardless of how many epochs the writer publishes meanwhile. The
// writer side (ServeEngine) serializes publications under a net::Mutex and
// swaps the pointer inside the same spinlock; the superseded snapshot is
// reclaimed by shared_ptr refcounting once its last in-flight reader drops
// it, outside any lock.
//
// Why not std::atomic<std::shared_ptr>: libstdc++ 12's _Sp_atomic unlocks
// the reader side of its internal spinlock with a RELAXED fetch_sub, so the
// reader's plain _M_ptr read is not ordered before a later writer's _M_ptr
// write — ThreadSanitizer (correctly, per the memory model) reports a data
// race under reader/swapper stress. This class implements the same
// pointer-sized spinlock protocol with proper acquire/release pairing:
// readers spin only for the handful of instructions a concurrent swap
// holds the latch, exactly like the library implementation, but every
// unlock is a release so the happens-before chain is complete.
//
// tests/serve_handle_test.cc stress-tests this read path under a
// concurrent swapper with tsan.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "netbase/sync.h"
#include "serve/snapshot.h"

namespace bdrmap::serve {

class SnapshotHandle {
 public:
  using SnapshotPtr = std::shared_ptr<const BorderMapSnapshot>;

  // The snapshot live right now; nullptr before the first publish. The
  // latch acquire pairs with publish()'s release, so every table of the
  // snapshot is visible before the pointer is.
  SnapshotPtr current() const {
    lock_latch();
    SnapshotPtr copy = snap_;
    unlock_latch();
    return copy;
  }

  // Installs `next` as the live snapshot. Writers are serialized (the
  // version counter and the pointer move together); readers are never
  // waited on beyond the latch. The superseded snapshot's refcount drop —
  // potentially the destructor — runs after the latch is released.
  void publish(SnapshotPtr next) BDRMAP_EXCLUDES(mu_) {
    net::MutexLock lk(mu_);
    lock_latch();
    snap_.swap(next);
    unlock_latch();
    version_.fetch_add(1, std::memory_order_release);
  }

  // Number of publish() calls so far; strictly monotonic.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

 private:
  void lock_latch() const {
    while (latch_.exchange(true, std::memory_order_acquire)) {
      // Spin; the holder only copies or swaps one shared_ptr.
    }
  }
  void unlock_latch() const { latch_.store(false, std::memory_order_release); }

  net::Mutex mu_;  // serializes writers only
  mutable std::atomic<bool> latch_{false};
  SnapshotPtr snap_;
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace bdrmap::serve
