// Microbenchmarks (google-benchmark): the hot paths of the pipeline —
// longest-prefix matching, forwarding steps, trace generation, alias
// closure, and the full per-VP inference.
#include <benchmark/benchmark.h>

#include "core/alias_resolution.h"
#include "core/bdrmap.h"
#include "eval/scenario.h"
#include "netbase/radix_trie.h"
#include "netbase/rng.h"

using namespace bdrmap;

namespace {

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
