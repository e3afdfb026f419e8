// MetricsRegistry semantics (src/obs/metrics.h): handle no-op convention,
// counter/gauge/histogram arithmetic, exact sums under 8-thread contention,
// snapshot isolation, and the get-or-create naming contract (one name, one
// instrument: kind and histogram bounds must match).
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "netbase/contract.h"

namespace bdrmap::obs {
namespace {

TEST(ObsMetrics, NullHandlesAreNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_FALSE(static_cast<bool>(g));
  EXPECT_FALSE(static_cast<bool>(h));
  c.inc();
  c.inc(41);
  g.set(7);
  g.add(-3);
  h.observe(5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsMetrics, CounterAccumulates) {
  MetricsRegistry reg;
  Counter c = reg.counter("test.events");
  EXPECT_TRUE(static_cast<bool>(c));
  c.inc();
  c.inc(9);
  EXPECT_EQ(c.value(), 10u);
  EXPECT_EQ(reg.snapshot().counter("test.events"), 10u);
  // Unknown names read as zero so optional instruments need no branching.
  EXPECT_EQ(reg.snapshot().counter("test.never_registered"), 0u);
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge g = reg.gauge("test.level");
  g.set(5);
  g.add(-8);
  EXPECT_EQ(g.value(), -3);
  EXPECT_EQ(reg.snapshot().gauge("test.level"), -3);
}

TEST(ObsMetrics, HistogramBucketsCountAndSum) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("test.sizes", {1, 4, 16});
  // Bucket i counts bounds[i-1] < v <= bounds[i]; overflow bucket last.
  h.observe(0);   // <= 1
  h.observe(1);   // <= 1
  h.observe(2);   // <= 4
  h.observe(16);  // <= 16
  h.observe(99);  // overflow
  EXPECT_EQ(h.count(), 5u);

  MetricsSnapshot snap = reg.snapshot();
  const HistogramSample* s = snap.histogram("test.sizes");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->bounds, (std::vector<std::uint64_t>{1, 4, 16}));
  EXPECT_EQ(s->buckets, (std::vector<std::uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(s->count, 5u);
  EXPECT_EQ(s->sum, 0u + 1 + 2 + 16 + 99);
  EXPECT_EQ(snap.histogram("test.missing"), nullptr);
}

TEST(ObsMetrics, ConcurrentIncrementsSumExactly) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  MetricsRegistry reg;
  Counter c = reg.counter("test.contended");
  Gauge g = reg.gauge("test.net_level");
  Histogram h = reg.histogram("test.samples", {2, 4});

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        g.add(t % 2 == 0 ? 1 : -1);  // pairs cancel across the 8 threads
        h.observe(i % 5);
      }
    });
  }
  for (auto& w : workers) w.join();

  MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("test.contended"), kThreads * kPerThread);
  EXPECT_EQ(snap.gauge("test.net_level"), 0);
  const HistogramSample* s = snap.histogram("test.samples");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, kThreads * kPerThread);
  // Each thread observes 0,1,2,3,4 repeating: sum = 10 per 5 samples.
  EXPECT_EQ(s->sum, kThreads * (kPerThread / 5) * 10);
  std::uint64_t bucketed = 0;
  for (std::uint64_t b : s->buckets) bucketed += b;
  EXPECT_EQ(bucketed, s->count);
}

TEST(ObsMetrics, SnapshotIsIsolatedFromLaterIncrements) {
  MetricsRegistry reg;
  Counter c = reg.counter("test.frozen");
  c.inc(3);
  MetricsSnapshot before = reg.snapshot();
  c.inc(100);
  Counter late = reg.counter("test.late");
  late.inc();
  EXPECT_EQ(before.counter("test.frozen"), 3u);
  EXPECT_EQ(before.counter("test.late"), 0u);  // not registered yet then
  MetricsSnapshot after = reg.snapshot();
  EXPECT_EQ(after.counter("test.frozen"), 103u);
  EXPECT_EQ(after.counter("test.late"), 1u);
}

TEST(ObsMetrics, SnapshotSectionsAreSortedByName) {
  MetricsRegistry reg;
  reg.counter("zz.last");
  reg.counter("aa.first");
  reg.counter("mm.middle");
  MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "aa.first");
  EXPECT_EQ(snap.counters[1].name, "mm.middle");
  EXPECT_EQ(snap.counters[2].name, "zz.last");
}

TEST(ObsMetrics, GetOrCreateSharesOneInstrument) {
  MetricsRegistry reg;
  Counter a = reg.counter("test.shared");
  Counter b = reg.counter("test.shared");
  a.inc(2);
  b.inc(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(reg.snapshot().counter("test.shared"), 5u);
  Histogram h1 = reg.histogram("test.shared_hist", {1, 2});
  Histogram h2 = reg.histogram("test.shared_hist", {1, 2});
  h1.observe(0);
  h2.observe(0);
  MetricsSnapshot snap = reg.snapshot();
  const HistogramSample* s = snap.histogram("test.shared_hist");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->bounds, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(s->count, 2u);
}

TEST(ObsMetrics, GetOrCreateRejectsKindMismatch) {
  net::ScopedContractMode guard(net::ContractMode::kThrow);
  MetricsRegistry reg;
  reg.counter("test.kinded");
  EXPECT_THROW(reg.gauge("test.kinded"), net::ContractViolation);
  EXPECT_THROW(reg.histogram("test.kinded", {1}), net::ContractViolation);
}

TEST(ObsMetrics, GetOrCreateRejectsBoundsMismatch) {
  net::ScopedContractMode guard(net::ContractMode::kThrow);
  MetricsRegistry reg;
  reg.histogram("test.bounded", {1, 2});
  EXPECT_THROW(reg.histogram("test.bounded", {100, 200, 300}),
               net::ContractViolation);
  EXPECT_THROW(reg.histogram("test.bounded", {1}), net::ContractViolation);
  EXPECT_NO_THROW(reg.histogram("test.bounded", {1, 2}));
}

}  // namespace
}  // namespace bdrmap::obs
