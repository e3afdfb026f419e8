// MetricsRegistry: the system-wide counter/gauge/histogram store
// (DESIGN.md §11).
//
// One registry serves a whole run — every subsystem (probe engines, route
// caches, the work-stealing pool, the remote channel, the inference core)
// registers its instruments against the same registry and increments them
// from whatever thread it runs on. The design splits the cold path from
// the hot path:
//
//   * Registration (cold) takes a mutex, allocates the backing cells in a
//     deque (stable addresses, never invalidated by later registrations)
//     and returns a trivially-copyable handle.
//   * Increments (hot) are a single relaxed atomic RMW through the handle —
//     no locks, no lookups. A default-constructed handle is a no-op, which
//     is how "observability off" costs one predictable branch.
//   * snapshot() (cold) copies every instrument's current value under the
//     registration mutex into plain structs, sorted by name. The copy is
//     isolated: later increments never mutate an existing snapshot.
//
// Naming contract: registration is get-or-create — counter(), gauge() and
// histogram() return the existing instrument for a known name, which is
// what per-VP pipeline instances use to share one logical counter. A name
// requested as another kind, or a histogram re-requested with other
// bounds, contract-fails: one name means one instrument.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netbase/sync.h"

namespace bdrmap::obs {

// Monotonic event count. Handle semantics: trivially copyable, no-op when
// default-constructed (the disabled-observability path).
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) const {
    if (cell_) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return cell_ ? cell_->load(std::memory_order_relaxed) : 0;
  }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::atomic<std::uint64_t>* cell) : cell_(cell) {}
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

// Instantaneous signed level (queue depths, open spans, breaker state).
class Gauge {
 public:
  Gauge() = default;

  void set(std::int64_t v) const {
    if (cell_) cell_->store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) const {
    if (cell_) cell_->fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return cell_ ? cell_->load(std::memory_order_relaxed) : 0;
  }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<std::int64_t>* cell) : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

// Fixed-bucket histogram over non-negative integer samples. Bucket i
// counts samples v with bounds[i-1] < v <= bounds[i]; one extra overflow
// bucket counts v > bounds.back(). count/sum ride along so means are
// recoverable from a snapshot.
class Histogram {
 public:
  Histogram() = default;

  void observe(std::uint64_t v) const;
  std::uint64_t count() const;
  explicit operator bool() const { return cells_ != nullptr; }

 private:
  friend class MetricsRegistry;
  struct Cells {
    std::vector<std::uint64_t> bounds;  // ascending, fixed at registration
    std::deque<std::atomic<std::uint64_t>> buckets;  // bounds.size() + 1
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  explicit Histogram(Cells* cells) : cells_(cells) {}
  Cells* cells_ = nullptr;
};

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};

// A point-in-time copy of every instrument, each section sorted by name.
// Lookup helpers return 0 / nullptr for unknown names so assertions on
// optional instruments stay one-liners.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  std::uint64_t counter(std::string_view name) const;
  std::int64_t gauge(std::string_view name) const;
  const HistogramSample* histogram(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create: returns the existing instrument when `name` is already
  // registered with the same kind (and, for histograms, the same bounds);
  // contract-fails on a kind or bounds mismatch.
  Counter counter(std::string_view name) BDRMAP_EXCLUDES(mu_);
  Gauge gauge(std::string_view name) BDRMAP_EXCLUDES(mu_);
  Histogram histogram(std::string_view name, std::vector<std::uint64_t> bounds)
      BDRMAP_EXCLUDES(mu_);

  MetricsSnapshot snapshot() const BDRMAP_EXCLUDES(mu_);

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::size_t index;  // into the matching cell store
  };

  // The entry registered under `name`, or nullptr; contract-fails when it
  // is of another kind.
  const Entry* lookup(const std::string& name, Kind want)
      BDRMAP_REQUIRES(mu_);

  // mu_ guards registration and snapshot; the handle hot path never takes
  // it — handles hold pointers to cells whose addresses the deques keep
  // stable, and cell access is a relaxed atomic op (see file comment).
  mutable net::Mutex mu_;
  std::unordered_map<std::string, Entry> names_ BDRMAP_GUARDED_BY(mu_);
  // Deques: cell addresses must survive every later registration.
  std::deque<std::atomic<std::uint64_t>> counters_ BDRMAP_GUARDED_BY(mu_);
  std::deque<std::atomic<std::int64_t>> gauges_ BDRMAP_GUARDED_BY(mu_);
  std::deque<Histogram::Cells> histograms_ BDRMAP_GUARDED_BY(mu_);
  std::vector<std::string> counter_names_ BDRMAP_GUARDED_BY(mu_);
  std::vector<std::string> gauge_names_ BDRMAP_GUARDED_BY(mu_);
  std::vector<std::string> histogram_names_ BDRMAP_GUARDED_BY(mu_);
};

}  // namespace bdrmap::obs
