// Heap traffic of a cold pass (docs/performance.md, "Heap traffic of a
// cold pass"). This executable replaces the global operator new and delete
// with counting versions, so it holds the allocation budget of a
// sequential 19-VP `access` pass, and shows that an Ally pair test and a
// trace's reply loop allocate nothing per sample or per hop. The sanitizer
// presets leave it out: their runtimes replace the allocator themselves.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/alias_resolution.h"
#include "core/bdrmap.h"
#include "eval/scenario.h"
#include "eval/scenario_registry.h"
#include "runtime/multi_vp.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Not inlined, so the compiler pairs new with delete, never with malloc
// and free.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace bdrmap {
namespace {

// Counts every operator new between construction and count().
class CountAllocations {
 public:
  CountAllocations() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~CountAllocations() { g_counting.store(false, std::memory_order_relaxed); }
  CountAllocations(const CountAllocations&) = delete;
  CountAllocations& operator=(const CountAllocations&) = delete;

  std::uint64_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

constexpr std::uint64_t kSeed = 0x515;

const eval::Scenario& access() {
  static const eval::Scenario scenario(*eval::scenario_spec("access", 42));
  return scenario;
}

// The first address of each of the first `n` announced prefixes past
// their network address.
std::vector<net::Ipv4Addr> destinations(std::size_t n) {
  std::vector<net::Ipv4Addr> out;
  for (const auto& ap : access().net().announced()) {
    if (out.size() == n) break;
    out.emplace_back(ap.prefix.first().value() + 1);
  }
  return out;
}

// A sequential cold pass makes ~6.7 allocations per trace: the trace's
// and the stored copy's hops, plus the per-slice and per-tail structures
// spread over the traces (1.06M, ~17 per trace, before the per-probe
// allocations were taken out).
TEST(ColdPassAllocations, SequentialAccessPassStaysInBudget) {
  constexpr double kPerTraceBudget = 7.0;
  constexpr std::uint64_t kPassBudget = 450'000;
  const std::vector<topo::Vp> vps =
      access().vps_in(access().featured_access());
  ASSERT_EQ(vps.size(), 19u);

  std::uint64_t allocations = 0;
  std::uint64_t traces = 0;
  {
    CountAllocations counting;
    const runtime::MultiVpResult run =
        access().run_bdrmap_parallel(vps, {}, kSeed, nullptr);
    allocations = counting.count();
    traces = run.total.traces;
  }
  ASSERT_GT(traces, 50'000u);
  EXPECT_LE(static_cast<double>(allocations),
            kPerTraceBudget * static_cast<double>(traces))
      << allocations << " allocations for " << traces << " traces";
  EXPECT_LE(allocations, kPassBudget);
}

// Ally samples up to 30 IP-IDs per pair test, 6 per round. Once the
// stack's memos hold the pair's reachability, a repeated test allocates
// nothing at all.
TEST(ColdPassAllocations, AllyPairTestDoesNotAllocatePerSample) {
  const topo::Vp vp = access().vps_in(access().featured_access()).front();
  const auto services = access().services_for(vp, kSeed);
  std::vector<net::Ipv4Addr> addrs;
  for (net::Ipv4Addr dst : destinations(60)) {
    for (const probe::TraceHop& hop : services->trace(dst, nullptr).hops) {
      if (hop.kind == probe::ReplyKind::kTimeExceeded) {
        addrs.push_back(hop.addr);
      }
    }
  }
  ASSERT_GT(addrs.size(), 20u);
  core::AliasResolver resolver(*services);
  auto test_all = [&] {
    std::size_t measured = 0;
    for (std::size_t i = 0; i + 1 < addrs.size(); ++i) {
      if (addrs[i] == addrs[i + 1]) continue;
      measured += resolver.ally(addrs[i], addrs[i + 1]) !=
                  core::AliasVerdict::kUnknown;
    }
    return measured;
  };
  (void)test_all();  // fills the reach memo and the reply-count scratch

  const std::uint64_t probes_before = services->probes_sent();
  std::size_t measured = 0;
  std::uint64_t allocations = 0;
  {
    CountAllocations counting;
    measured = test_all();
    allocations = counting.count();
  }
  ASSERT_GT(measured, 10u);
  ASSERT_GE(services->probes_sent() - probes_before, 6 * measured);
  EXPECT_EQ(allocations, 0u);
}

// A trace's one allocation is its hops, sized from the walk; the reply
// loop and the stop predicate allocate nothing per hop.
TEST(ColdPassAllocations, TraceReplyLoopAllocatesOncePerTrace) {
  const topo::Vp vp = access().vps_in(access().featured_access()).front();
  const auto services = access().services_for(vp, kSeed);
  const std::vector<net::Ipv4Addr> dsts = destinations(200);
  for (net::Ipv4Addr dst : dsts) (void)services->trace(dst, nullptr);

  const auto never = [](net::Ipv4Addr) { return false; };
  std::size_t hops = 0;
  std::uint64_t allocations = 0;
  {
    CountAllocations counting;
    for (net::Ipv4Addr dst : dsts) {
      hops += services->trace(dst, never).hops.size();
    }
    allocations = counting.count();
  }
  ASSERT_GT(hops, 4 * dsts.size());
  EXPECT_EQ(allocations, dsts.size());
}

// A churn epoch with no event: every VP's inference tail re-runs over the
// kept slices and the kept alias evidence, probing nothing. The tails
// build each VP's router graph and run the §5.4 heuristics over flat
// columns and reused scratch, so an epoch allocates a fixed number of
// times per VP, not per router (169,828 allocations before the per-router
// sets went flat).
TEST(ColdPassAllocations, WarmTailsStayInBudget) {
  constexpr std::uint64_t kEpochBudget = 40'000;
  const std::vector<topo::Vp> vps =
      access().vps_in(access().featured_access());
  ASSERT_EQ(vps.size(), 19u);
  std::vector<runtime::VpJob> jobs;
  for (const topo::Vp& vp : vps) {
    runtime::VpJob job;
    job.make_services = [vp](std::uint64_t seed) {
      return access().services_for(vp, seed);
    };
    job.inputs = access().inputs_for(vp.as);
    jobs.push_back(std::move(job));
  }
  const runtime::MultiVpExecutor executor(nullptr);
  runtime::SliceStore store;
  std::vector<core::BdrmapResult> results;
  (void)executor.run_into(jobs, {}, kSeed, &store, results);  // cold

  std::uint64_t allocations = 0;
  {
    CountAllocations counting;
    (void)executor.run_into(jobs, {}, kSeed, &store, results);
    allocations = counting.count();
  }
  std::uint64_t live_routers = 0;
  std::uint64_t probed = 0;
  for (const core::BdrmapResult& r : results) {
    live_routers += r.graph.live_router_count();
    probed += r.stats.alias_pair_tests - r.stats.alias_pairs_reused;
  }
  ASSERT_EQ(probed, 0u) << "a warm tail re-probed alias pairs";
  EXPECT_LE(allocations, kEpochBudget);
  EXPECT_LT(allocations, live_routers)
      << allocations << " allocations for " << live_routers
      << " live routers";
}

}  // namespace
}  // namespace bdrmap
