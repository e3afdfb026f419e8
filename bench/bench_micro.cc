// Microbenchmarks (google-benchmark): the hot paths of the pipeline —
// longest-prefix matching, forwarding steps, trace generation, alias
// closure, and the full per-VP inference.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <span>

#include "core/alias_resolution.h"
#include "core/bdrmap.h"
#include "core/blocks.h"
#include "eval/scenario.h"
#include "netbase/radix_trie.h"
#include "netbase/rng.h"

// Every operator new is counted, so a benchmark can report its
// allocations per iteration (a relaxed increment, shared by all threads).
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

using namespace bdrmap;

namespace {

// Reports the allocations made since `before` as a per-iteration counter.
void report_allocations(benchmark::State& state, std::uint64_t before) {
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          before),
      benchmark::Counter::kAvgIterations);
}

const eval::Scenario& shared_scenario() {
  static eval::Scenario scenario(eval::small_access_config(42));
  return scenario;
}

void BM_TrieLongestPrefixMatch(benchmark::State& state) {
  net::RadixTrie<int> trie;
  net::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    trie.insert(net::Prefix(net::Ipv4Addr(rng.uniform(0, 0xffffffffu)),
                            static_cast<std::uint8_t>(rng.uniform(8, 24))),
                i);
  }
  std::uint32_t probe = 0;
  for (auto _ : state) {
    probe = probe * 2654435761u + 12345u;
    benchmark::DoNotOptimize(trie.match(net::Ipv4Addr(probe)));
  }
}
BENCHMARK(BM_TrieLongestPrefixMatch);

void BM_FibNextHop(benchmark::State& state) {
  const auto& s = shared_scenario();
  auto vp = s.vps_in(s.first_of(topo::AsKind::kAccess)).front();
  const auto& announced = s.net().announced();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& ap = announced[i++ % announced.size()];
    const route::Fib::RouteQuery q =
        s.fib().query(net::Ipv4Addr(ap.prefix.first().value() + 1));
    benchmark::DoNotOptimize(s.fib().next_hop(vp.attach_router, q));
  }
}
BENCHMARK(BM_FibNextHop);

// Full walks (first hop to delivery) from every VP's attach router toward
// every announced prefix, over one Fib shared by all benchmark threads and
// warmed before timing: the reads a pool worker's traces make. Reports
// time per walk; at 4 threads it shows what the walk's shared reads cost
// under contention.
struct SharedWalks {
  std::vector<net::RouterId> starts;
  std::vector<route::Fib::RouteQuery> queries;
};

std::size_t walk_to_delivery(const route::Fib& fib, net::RouterId r,
                             const route::Fib::RouteQuery& q) {
  std::size_t hops = 0;
  for (; hops < 64; ++hops) {
    const auto next = fib.next_hop(r, q);
    if (!next) break;
    r = next->router;
  }
  return hops;
}

const SharedWalks& shared_walks() {
  static const SharedWalks walks = [] {
    const auto& s = shared_scenario();
    SharedWalks w;
    for (const auto& vp : s.vps_in(s.first_of(topo::AsKind::kAccess))) {
      w.starts.push_back(vp.attach_router);
    }
    for (const auto& ap : s.net().announced()) {
      w.queries.push_back(
          s.fib().query(net::Ipv4Addr(ap.prefix.first().value() + 1)));
    }
    for (net::RouterId r : w.starts) {  // warm every memo the walks read
      for (const auto& q : w.queries) walk_to_delivery(s.fib(), r, q);
    }
    return w;
  }();
  return walks;
}

void BM_FibWalkShared(benchmark::State& state) {
  const route::Fib& fib = shared_scenario().fib();
  const SharedWalks& w = shared_walks();
  const std::size_t n = w.starts.size() * w.queries.size();
  // Threads start at different walks so they do not move in lockstep.
  std::size_t i = static_cast<std::size_t>(state.thread_index()) * 7919;
  for (auto _ : state) {
    const std::size_t k = i++ % n;
    benchmark::DoNotOptimize(walk_to_delivery(
        fib, w.starts[k % w.starts.size()], w.queries[k / w.starts.size()]));
  }
}
BENCHMARK(BM_FibWalkShared)->Threads(1)->Threads(4);

void BM_Traceroute(benchmark::State& state) {
  const auto& s = shared_scenario();
  auto vp = s.vps_in(s.first_of(topo::AsKind::kAccess)).front();
  probe::TracerouteEngine engine(s.net(), s.fib(), vp, 7);
  const auto& announced = s.net().announced();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& ap = announced[i++ % announced.size()];
    benchmark::DoNotOptimize(
        engine.trace(net::Ipv4Addr(ap.prefix.first().value() + 1)));
  }
}
BENCHMARK(BM_Traceroute);

void BM_AliasClosure(benchmark::State& state) {
  const auto& s = shared_scenario();
  auto vp = s.vps_in(s.first_of(topo::AsKind::kAccess)).front();
  auto services = s.services_for(vp);
  core::AliasResolver resolver(*services);
  // Synthesize a few hundred verdicts over a dense address set.
  std::vector<net::Ipv4Addr> addrs;
  net::Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    addrs.push_back(net::Ipv4Addr(0x0a000000u + static_cast<uint32_t>(i)));
  }
  for (int i = 0; i < 300; ++i) {
    auto a = rng.pick(addrs);
    auto b = rng.pick(addrs);
    if (a == b) continue;
    resolver.declare(a, b,
                     rng.chance(0.8) ? core::AliasVerdict::kAlias
                                     : core::AliasVerdict::kNotAlias);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.groups(addrs));
  }
}
BENCHMARK(BM_AliasClosure);

// One (VP, target-AS) slice, the target AS with the most blocks, collected
// on a fresh probe stack per iteration over a warm Fib.
void BM_CollectSlice(benchmark::State& state) {
  const auto& s = shared_scenario();
  const auto vp = s.vps_in(s.first_of(topo::AsKind::kAccess)).front();
  const core::InferenceInputs inputs = s.inputs_for(vp.as);
  const std::vector<core::ProbeBlock> blocks =
      core::build_probe_blocks(*inputs.origins, inputs.vp_ases);
  std::size_t best = 0, best_len = 0;
  for (std::size_t i = 0, end; i < blocks.size(); i = end) {
    end = i + 1;
    while (end < blocks.size() &&
           blocks[end].target_as == blocks[i].target_as) {
      ++end;
    }
    if (end - i > best_len) {
      best = i;
      best_len = end - i;
    }
  }
  const std::span<const core::ProbeBlock> slice(blocks.data() + best,
                                                best_len);
  (void)core::collect_blocks(*s.services_for(vp), inputs, {}, slice);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto services = s.services_for(vp);
    benchmark::DoNotOptimize(
        core::collect_blocks(*services, inputs, {}, slice));
  }
  report_allocations(state, before);
}
BENCHMARK(BM_CollectSlice);

// One Ally pair test (up to 30 IP-ID samples) between two responsive hop
// addresses, on a warm stack.
void BM_AllyPairTest(benchmark::State& state) {
  const auto& s = shared_scenario();
  const auto vp = s.vps_in(s.first_of(topo::AsKind::kAccess)).front();
  auto services = s.services_for(vp);
  core::AliasResolver resolver(*services);
  std::vector<net::Ipv4Addr> addrs;
  for (const auto& ap : s.net().announced()) {
    const net::Ipv4Addr dst(ap.prefix.first().value() + 1);
    for (const probe::TraceHop& hop : services->trace(dst, nullptr).hops) {
      if (hop.kind == probe::ReplyKind::kTimeExceeded) {
        addrs.push_back(hop.addr);
      }
    }
    if (addrs.size() > 64) break;
  }
  // The first distinct pair Ally measures.
  net::Ipv4Addr a, b;
  for (std::size_t i = 0; i + 1 < addrs.size() && a.is_zero(); ++i) {
    if (addrs[i] != addrs[i + 1] && resolver.ally(addrs[i], addrs[i + 1]) !=
                                        core::AliasVerdict::kUnknown) {
      a = addrs[i];
      b = addrs[i + 1];
    }
  }
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.ally(a, b));
  }
  report_allocations(state, before);
}
BENCHMARK(BM_AllyPairTest);

void BM_FullBdrmapRun(benchmark::State& state) {
  const auto& s = shared_scenario();
  auto vp = s.vps_in(s.first_of(topo::AsKind::kAccess)).front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.run_bdrmap(vp));
  }
}
BENCHMARK(BM_FullBdrmapRun)->Unit(benchmark::kMillisecond);

void BM_GenerateInternet(benchmark::State& state) {
  for (auto _ : state) {
    auto config = eval::small_access_config(42);
    benchmark::DoNotOptimize(topo::generate(config));
  }
}
BENCHMARK(BM_GenerateInternet)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
