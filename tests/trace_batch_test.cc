// Golden bit-identity suite for batched probe-wave tracing (DESIGN.md §14).
//
// TraceBatch pre-walks many flows in lockstep over the shared FIB; every
// path it produces must be byte-identical to the one a solo (single-flow)
// walk computes, across ECMP salts, selectively-announced (pinned)
// prefixes, shared-query flows, and arena reuse across wave epochs. At
// the pipeline level, waves narrowed or dropped must leave the border map
// untouched, a sharded plan must be byte-identical at 1, 2 and 8
// pool workers filling cold caches concurrently, and the heuristics'
// compiled first-external table must equal a per-router rescan. Suite
// name carries "TraceBatch" so check.sh's tsan pass picks these tests up.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/bdrmap.h"
#include "core/heuristics.h"
#include "core/router_graph.h"
#include "eval/degradation.h"
#include "eval/scenario.h"
#include "eval/scenario_registry.h"
#include "netbase/arena.h"
#include "probe/trace_batch.h"
#include "probe/types.h"
#include "route/fib.h"
#include "runtime/thread_pool.h"
#include "topo/generator.h"

namespace bdrmap::probe {
namespace {

using net::Ipv4Addr;

// Flattens a prewalked path for exact comparison.
std::vector<std::uint64_t> encode(const PrewalkedPath& p) {
  std::vector<std::uint64_t> out;
  out.reserve(p.count * 2);
  for (std::uint32_t i = 0; i < p.count; ++i) {
    const PathHop& h = p.hops[i];
    out.push_back((std::uint64_t{h.router.value} << 32) | h.ingress.value);
    out.push_back((h.is_delivery ? 4u : 0u) | (h.dst_is_own_addr ? 2u : 0u) |
                  (h.firewalled ? 1u : 0u));
  }
  return out;
}

// Every announced prefix interior (including the selectively-announced /
// pinned ones) under ECMP salts 0-3: the address classes the tracer
// actually probes, each exercising a distinct FIB resolution path.
std::vector<FlowSpec> salted_workload(const eval::Scenario& s) {
  std::vector<FlowSpec> flows;
  for (const auto& ap : s.net().announced()) {
    Ipv4Addr inside(ap.prefix.network().value() + 1);
    if (!ap.prefix.contains(inside)) inside = ap.prefix.network();
    for (std::uint32_t salt = 0; salt < 4; ++salt) {
      flows.push_back({inside, salt, 48, nullptr});
    }
  }
  return flows;
}

TEST(TraceBatchTest, LockstepMatchesSoloWalks) {
  eval::Scenario s(eval::small_access_config(42));
  std::vector<FlowSpec> flows = salted_workload(s);
  const net::RouterId start = s.vps().front().attach_router;
  bool saw_pinned = false;
  for (const auto& ap : s.net().announced()) {
    saw_pinned |= !ap.only_via_links.empty();
  }
  EXPECT_TRUE(saw_pinned) << "workload must cover pinned prefixes";

  TraceBatch batched(s.net(), s.fib());
  net::Arena wave_arena;
  std::vector<PrewalkedPath> wave(flows.size());
  batched.prewalk(start, flows.data(), flows.size(), wave_arena,
                  wave.data());

  TraceBatch solo(s.net(), s.fib());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    net::Arena solo_arena;
    PrewalkedPath alone;
    solo.prewalk(start, &flows[i], 1, solo_arena, &alone);
    EXPECT_EQ(encode(wave[i]), encode(alone))
        << "flow " << i << " (salt " << flows[i].flow_salt << ")";
  }
}

TEST(TraceBatchTest, SharedQueryMatchesOwnResolution) {
  eval::Scenario s(eval::small_access_config(42));
  const net::RouterId start = s.vps().front().attach_router;
  const auto& ap = s.net().announced().front();
  Ipv4Addr dst(ap.prefix.network().value() + 1);
  if (!ap.prefix.contains(dst)) dst = ap.prefix.network();

  // Classic traceroute's shape: per-TTL salts, one destination. The
  // shared resolution must not perturb any flow's path.
  const route::Fib::RouteQuery q = s.fib().query(dst);
  std::vector<FlowSpec> shared, owned;
  for (std::uint32_t salt = 0; salt < 4; ++salt) {
    shared.push_back({dst, salt, 48, &q});
    owned.push_back({dst, salt, 48, nullptr});
  }
  TraceBatch batch(s.net(), s.fib());
  net::Arena arena_a, arena_b;
  std::vector<PrewalkedPath> a(shared.size()), b(owned.size());
  batch.prewalk(start, shared.data(), shared.size(), arena_a, a.data());
  batch.prewalk(start, owned.data(), owned.size(), arena_b, b.data());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(encode(a[i]), encode(b[i])) << "salt " << i;
  }
}

TEST(TraceBatchTest, ArenaReuseAcrossEpochs) {
  eval::Scenario s(eval::small_access_config(42));
  std::vector<FlowSpec> flows = salted_workload(s);
  const net::RouterId start = s.vps().front().attach_router;

  TraceBatch batch(s.net(), s.fib());
  net::Arena arena;
  std::vector<PrewalkedPath> first(flows.size());
  batch.prewalk(start, flows.data(), flows.size(), arena, first.data());
  std::vector<std::vector<std::uint64_t>> golden;
  golden.reserve(first.size());
  for (const auto& p : first) golden.push_back(encode(p));
  const net::Arena::Stats warm = arena.stats();

  // Epoch 2: reset rewinds the arena; the identical wave must replay into
  // the retained capacity — same paths, no new reservation.
  arena.reset();
  std::vector<PrewalkedPath> second(flows.size());
  batch.prewalk(start, flows.data(), flows.size(), arena, second.data());
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(golden[i], encode(second[i])) << "flow " << i;
  }
  EXPECT_EQ(arena.stats().bytes_reserved, warm.bytes_reserved)
      << "reset must retain capacity, not grow it";
  EXPECT_EQ(arena.stats().bytes_used, warm.bytes_used);
}

// Forwards every probe, but passes on only the first `width` addresses of
// each announced wave (none at width 0): the pipeline's waves, narrowed.
class NarrowWaveServices final : public ProbeServices {
 public:
  NarrowWaveServices(ProbeServices& inner, std::size_t width)
      : inner_(inner), width_(width) {}

  TraceResult trace(Ipv4Addr dst, const StopFn& stop) override {
    return inner_.trace(dst, stop);
  }
  void prewalk_wave(const std::vector<Ipv4Addr>& dsts) override {
    if (width_ == 0) return;
    inner_.prewalk_wave(std::vector<Ipv4Addr>(
        dsts.begin(), dsts.begin() + std::min(width_, dsts.size())));
  }
  std::optional<Ipv4Addr> udp_probe(Ipv4Addr addr) override {
    return inner_.udp_probe(addr);
  }
  std::optional<std::uint16_t> ipid_sample(Ipv4Addr addr, double t) override {
    return inner_.ipid_sample(addr, t);
  }
  std::optional<bool> timestamp_probe(Ipv4Addr path_dst,
                                      Ipv4Addr candidate) override {
    return inner_.timestamp_probe(path_dst, candidate);
  }
  std::uint64_t probes_sent() const override { return inner_.probes_sent(); }
  void reseed(std::uint64_t seed) override { inner_.reseed(seed); }

 private:
  ProbeServices& inner_;
  std::size_t width_;
};

TEST(TraceBatchTest, WaveInvarianceEndToEnd) {
  eval::Scenario s(eval::small_access_config(42));
  const topo::Vp vp = s.vps_in(s.featured_access()).front();
  const core::InferenceInputs inputs = s.inputs_for(vp.as);
  auto run = [&](std::size_t width) {
    auto services = s.services_for(vp, 0x515);
    NarrowWaveServices narrowed(*services, width);
    return core::Bdrmap(narrowed, inputs).run();
  };

  core::BdrmapResult unbatched = run(0);
  core::BdrmapResult narrow = run(7);  // odd width: most blocks go unhinted
  auto services = s.services_for(vp, 0x515);
  core::BdrmapResult full = core::Bdrmap(*services, inputs).run();
  EXPECT_TRUE(eval::same_border_map(unbatched, narrow));
  EXPECT_TRUE(eval::same_border_map(unbatched, full));
  EXPECT_GT(full.links.size(), 0u);
}

TEST(TraceBatchTest, ShardedColdFillIdenticalAcrossWorkers) {
  // A fresh scenario per worker count: every run fills the shared FIB
  // caches from cold, concurrently at 2 and 8 workers, while the slices of
  // both VPs interleave on the pool — the executor's determinism contract
  // (byte-identical at any worker count).
  auto run = [](unsigned workers) {
    eval::Scenario s(eval::small_access_config(42));
    std::vector<topo::Vp> vps = s.vps_in(s.featured_access());
    if (vps.size() > 2) vps.resize(2);
    runtime::ThreadPool pool(workers);
    return s.run_bdrmap_parallel(vps, {}, 0x1517, &pool);
  };
  runtime::MultiVpResult one = run(1);
  runtime::MultiVpResult two = run(2);
  runtime::MultiVpResult eight = run(8);
  ASSERT_EQ(one.per_vp.size(), two.per_vp.size());
  ASSERT_EQ(one.per_vp.size(), eight.per_vp.size());
  for (std::size_t i = 0; i < one.per_vp.size(); ++i) {
    EXPECT_TRUE(eval::same_border_map(one.per_vp[i], two.per_vp[i]))
        << "vp " << i << " diverges at 2 workers";
    EXPECT_TRUE(eval::same_border_map(one.per_vp[i], eight.per_vp[i]))
        << "vp " << i << " diverges at 8 workers";
  }
  EXPECT_GT(one.total.traces, 0u);
}

// Reference for Heuristics::first_external_after: rescans every trace for
// the one router (the per-router scan the single-pass table replaced).
std::vector<net::AsId> first_external_rescan(const core::Heuristics& h,
                                             const core::RouterGraph& graph,
                                             std::size_t router) {
  std::vector<net::AsId> out;
  for (const auto& trace : graph.traces()) {
    bool seen = false;
    for (const auto& hop : trace.hops) {
      if (hop.kind != ReplyKind::kTimeExceeded) continue;
      auto r = graph.router_of(hop.addr);
      if (!r) continue;
      if (!seen) {
        if (*r == router) seen = true;
        continue;
      }
      if (*r == router) continue;
      core::AddrInfo info = h.classify(hop.addr);
      if (info.cls == core::AddrClass::kExternal) {
        out.push_back(info.origin);
        break;  // first routed external interface after the router
      }
    }
  }
  return out;
}

TEST(TraceBatchTest, CompiledScanParityEndToEnd) {
  // The graph is rebuilt from a real run's traces and alias sets, so the
  // compiled table is built before any merge touches it.
  for (const char* family : {"small", "access"}) {
    auto s = eval::make_scenario(family, 42);
    const topo::Vp vp = s->vps_in(s->first_of(s->spec().vp_kind)).front();
    const core::InferenceInputs inputs = s->inputs_for(vp.as);
    const core::BdrmapResult run = s->run_bdrmap(vp, {}, 0x515);
    std::vector<std::vector<Ipv4Addr>> groups;
    for (const auto& router : run.graph.routers()) {
      if (router.addrs.size() > 1) groups.push_back(router.addrs);
    }
    core::RouterGraph graph(run.graph.traces(), groups);
    const core::Heuristics h(graph, inputs);
    std::size_t observed = 0;
    std::size_t mismatches = 0;
    for (std::size_t r = 0; r < graph.routers().size(); ++r) {
      const std::vector<net::AsId> expected =
          first_external_rescan(h, graph, r);
      observed += expected.size();
      if (h.first_external_after(r) != expected && ++mismatches <= 5) {
        ADD_FAILURE() << family << ": router " << r << " diverges";
      }
    }
    EXPECT_EQ(mismatches, 0u) << family;
    EXPECT_GT(observed, 0u) << family;
  }
}

}  // namespace
}  // namespace bdrmap::probe
