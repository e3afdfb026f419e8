// Forward-path and pipeline identity checks (DESIGN.md §14).
//
// Every trace() hop must land on the router a reference walk over the
// public FIB calls predicts, for every announced prefix (pinned ones
// included) and across an ECMP diamond. At the pipeline level, a
// sharded plan must be byte-identical at 1, 2 and 8 pool workers filling
// cold caches concurrently, the heuristics' compiled first-external table
// must equal a per-router rescan, and the per-address table (classes,
// §5.4.1 VP-extra blocks, the id -> router column after §5.4.7 merges) must
// equal a per-hop recomputation from the public inputs. check.sh's tsan
// pass selects the suite by name ("WalkReference").
#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asdata/bgp_origins.h"
#include "core/bdrmap.h"
#include "core/heuristics.h"
#include "core/router_graph.h"
#include "eval/degradation.h"
#include "eval/scenario.h"
#include "eval/scenario_registry.h"
#include "probe/tracer.h"
#include "probe/types.h"
#include "route/bgp_sim.h"
#include "route/fib.h"
#include "runtime/thread_pool.h"
#include "test_support.h"
#include "topo/generator.h"

namespace bdrmap::probe {
namespace {

using net::Ipv4Addr;

// Reference forward path toward one destination, written against the
// public FIB calls only: the routers a probe with TTL budget kMaxTtl
// visits from `start` toward `dst`. Enterprise borders drop
// probes that entered over an interdomain link unless dst is their own
// interface address.
struct RefPath {
  std::vector<std::uint32_t> routers;
  bool host = false;     // delivered to a host prefix behind the last router
};

RefPath reference_walk(const topo::Internet& net, const route::Fib& fib,
                       net::RouterId start, Ipv4Addr dst) {
  const route::Fib::RouteQuery q = fib.query(dst);
  const auto own = net.iface_at(dst);
  RefPath path;
  net::RouterId cur = start;
  bool entered = false;
  while (static_cast<int>(path.routers.size()) < kMaxTtl) {
    path.routers.push_back(cur.value);
    const bool own_addr = own && net.iface(*own).router == cur;
    if (fib.delivered_at(cur, q)) {
      path.host = !own_addr;
      break;
    }
    if (entered && net.router(cur).behavior.firewall_edge) break;
    auto hop = fib.next_hop(cur, q);
    if (!hop) break;
    entered = hop->crossed_interdomain;
    cur = hop->router;
  }
  return path;
}

// The truth routers a trace() toward `dst` must report: the reference
// walk, plus one more probe answered behind the delivery router when
// `dst` is in a host prefix.
std::vector<std::uint32_t> expected_routers(const topo::Internet& net,
                                            const route::Fib& fib,
                                            net::RouterId start,
                                            Ipv4Addr dst) {
  RefPath path = reference_walk(net, fib, start, dst);
  if (path.host) path.routers.push_back(path.routers.back());
  return path.routers;
}

// Traces every destination from `vp` under probe seeds 0-3. The gap
// limit exceeds the TTL budget, so every trace covers its whole forward
// path. Returns the traces whose truth routers differ from the reference.
std::size_t reference_mismatches(const topo::Internet& net,
                                 const route::Fib& fib, const topo::Vp& vp,
                                 const std::vector<Ipv4Addr>& dsts) {
  std::size_t mismatches = 0;
  TracerConfig config;
  config.gap_limit = kMaxTtl + 1;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    TracerouteEngine engine(net, fib, vp, 0x515 + seed, config);
    for (Ipv4Addr dst : dsts) {
      std::vector<std::uint32_t> got;
      for (const TraceHop& hop : engine.trace(dst).hops) {
        got.push_back(hop.truth_router.value);
      }
      const std::vector<std::uint32_t> want =
          expected_routers(net, fib, vp.attach_router, dst);
      if (got != want && ++mismatches <= 3) {
        ADD_FAILURE() << "seed " << seed << " dst " << dst.str() << ": "
                      << ::testing::PrintToString(got) << " != reference "
                      << ::testing::PrintToString(want);
      }
    }
  }
  return mismatches;
}

TEST(WalkReferenceTest, TraceHopsFollowReferenceWalk) {
  // Every announced prefix interior of the small access network, pinned
  // prefixes and enterprise firewalls included.
  eval::Scenario s(eval::small_access_config(42));
  std::vector<Ipv4Addr> dsts;
  bool saw_pinned = false;
  for (const auto& ap : s.net().announced()) {
    saw_pinned |= !ap.only_via_links.empty();
    Ipv4Addr inside(ap.prefix.network().value() + 1);
    dsts.push_back(ap.prefix.contains(inside) ? inside : ap.prefix.network());
  }
  ASSERT_TRUE(saw_pinned) << "workload must cover pinned prefixes";
  EXPECT_EQ(reference_mismatches(s.net(), s.fib(), s.vps().front(), dsts),
            0u);

  // The generator's IGP costs leave no equal-cost ties on those paths, so
  // an ECMP diamond r1 -> {r2, r3} -> r4 -> r5 (AS 2) supplies
  // destinations whose paths split across the two arms.
  test::MiniNet m;
  const net::AsId as1 = m.add_as();
  const net::AsId as2 = m.add_as();
  const net::RouterId r1 = m.add_router(as1);
  const net::RouterId r2 = m.add_router(as1);
  const net::RouterId r3 = m.add_router(as1);
  const net::RouterId r4 = m.add_router(as1);
  const net::RouterId r5 = m.add_router(as2);
  m.net().truth_relationships().add_c2p(as2, as1);
  m.link(topo::LinkKind::kInternal, as1, r1, test::ip("10.0.0.1"), r2,
         test::ip("10.0.0.2"));
  m.link(topo::LinkKind::kInternal, as1, r1, test::ip("10.0.0.5"), r3,
         test::ip("10.0.0.6"));
  m.link(topo::LinkKind::kInternal, as1, r2, test::ip("10.0.0.9"), r4,
         test::ip("10.0.0.10"));
  m.link(topo::LinkKind::kInternal, as1, r3, test::ip("10.0.0.13"), r4,
         test::ip("10.0.0.14"));
  m.link(topo::LinkKind::kInterdomain, as1, r4, test::ip("10.0.1.1"), r5,
         test::ip("10.0.1.2"));
  m.announce("10.0.0.0/16", as1, r1);
  m.announce("20.0.0.0/16", as2, r5);
  const route::BgpSimulator bgp(m.net());
  const route::Fib fib(m.net(), bgp);
  std::vector<Ipv4Addr> diamond;
  for (std::uint32_t d = 1; d < 64; ++d) {
    diamond.emplace_back(test::ip("20.0.2.0").value() + d);
  }
  const topo::Vp vp{as1, r1, test::ip("10.0.255.1"), 0};
  EXPECT_EQ(reference_mismatches(m.net(), fib, vp, diamond), 0u);
}

TEST(WalkReferenceTest, ShardedColdFillIdenticalAcrossWorkers) {
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

TEST(WalkReferenceTest, CompiledScanParityEndToEnd) {
  // The graph is rebuilt from a real run's traces and alias sets, so the
  // compiled table is built before any merge touches it.
  for (const char* family : {"small", "access"}) {
    auto s = eval::make_scenario(family, 42);
    const topo::Vp vp = s->vps_in(s->first_of(s->spec().vp_kind)).front();
    const core::InferenceInputs inputs = s->inputs_for(vp.as);
    const core::BdrmapResult run = s->run_bdrmap(vp, {}, 0x515);
    core::AliasGroups groups;
    for (std::size_t r = 0; r < run.graph.routers().size(); ++r) {
      if (run.graph.addrs(r).size() > 1) groups.add(run.graph.addrs(r));
    }
    core::RouterGraph graph(run.graph.traces(), groups);
    const core::Heuristics h(graph, inputs);
    std::size_t observed = 0;
    std::size_t mismatches = 0;
    for (std::size_t r = 0; r < graph.routers().size(); ++r) {
      const std::vector<net::AsId> expected =
          first_external_rescan(h, graph, r);
      observed += expected.size();
      const std::span<const net::AsId> got = h.first_external_after(r);
      if (!std::equal(got.begin(), got.end(), expected.begin(),
                      expected.end()) &&
          ++mismatches <= 5) {
        ADD_FAILURE() << family << ": router " << r << " diverges";
      }
    }
    EXPECT_EQ(mismatches, 0u) << family;
    EXPECT_GT(observed, 0u) << family;
  }
}

// Reference for the §5.4.1 RIR extension, hop by hop as the heuristics
// ran it before the per-address table: TTL-1 anchors (plus every block of
// their organizations), then the unrouted hops before each trace's last
// VP-originated hop. Written against the public inputs only.
bool reference_is_vp(const core::InferenceInputs& in, net::AsId as) {
  return std::find(in.vp_ases.begin(), in.vp_ases.end(), as) !=
         in.vp_ases.end();
}

std::vector<net::Prefix> reference_vp_extra_blocks(
    const core::SharedTraces& traces,
    const core::InferenceInputs& in) {
  std::vector<net::Prefix> blocks;
  if (!in.rir) return blocks;
  auto add = [&](const net::Prefix& block) {
    if (std::find(blocks.begin(), blocks.end(), block) == blocks.end()) {
      blocks.push_back(block);
    }
  };
  auto missing = [&](const core::ObservedHop& hop) {
    return hop.kind == ReplyKind::kTimeExceeded &&
           in.origins->origins(hop.addr) == nullptr &&
           !(in.ixps && in.ixps->is_ixp_address(hop.addr));
  };
  std::vector<net::OrgId> orgs;
  for (const auto& trace : traces) {
    if (trace.hops.empty() || !missing(trace.hops.front())) continue;
    auto delegation = in.rir->lookup(trace.hops.front().addr);
    if (!delegation) continue;
    add(delegation->block);
    if (std::find(orgs.begin(), orgs.end(), delegation->org) == orgs.end()) {
      orgs.push_back(delegation->org);
    }
  }
  for (net::OrgId org : orgs) {
    for (const auto& d : in.rir->all()) {
      if (d.org == org) add(d.block);
    }
  }
  for (const auto& trace : traces) {
    std::ptrdiff_t last_vp = -1;
    for (std::size_t i = 0; i < trace.hops.size(); ++i) {
      const auto& hop = trace.hops[i];
      if (hop.kind != ReplyKind::kTimeExceeded) continue;
      const auto* origins = in.origins->origins(hop.addr);
      if (origins && std::any_of(origins->begin(), origins->end(),
                                 [&](net::AsId o) {
                                   return reference_is_vp(in, o);
                                 })) {
        last_vp = static_cast<std::ptrdiff_t>(i);
      }
    }
    for (std::ptrdiff_t i = 0; i < last_vp; ++i) {
      const auto& hop = trace.hops[static_cast<std::size_t>(i)];
      if (!missing(hop)) continue;
      if (auto delegation = in.rir->lookup(hop.addr)) add(delegation->block);
    }
  }
  return blocks;
}

// Reference classify(): the longest match, IXP and RIR-extension lookups
// per address.
core::AddrInfo reference_classify(const core::InferenceInputs& in,
                                  const std::vector<net::Prefix>& blocks,
                                  Ipv4Addr addr) {
  const net::AsId vp_as = in.vp_ases.empty() ? net::AsId{} : in.vp_ases.front();
  if (in.ixps && in.ixps->is_ixp_address(addr)) {
    return {core::AddrClass::kIxp, net::AsId{}};
  }
  const auto* origins = in.origins->origins(addr);
  if (origins && !origins->empty()) {
    for (net::AsId o : *origins) {
      if (reference_is_vp(in, o)) return {core::AddrClass::kVp, vp_as};
    }
    return {core::AddrClass::kExternal, origins->front()};
  }
  for (const auto& block : blocks) {
    if (block.contains(addr)) return {core::AddrClass::kVp, vp_as};
  }
  return {core::AddrClass::kUnrouted, net::AsId{}};
}

// Every replying hop's id names its address, and the id -> router column
// names the live router whose alias set lists it. Returns the mismatches.
std::size_t column_mismatches(const core::RouterGraph& graph,
                              const char* what) {
  std::map<Ipv4Addr, std::uint32_t> listed_by;
  for (std::size_t r = 0; r < graph.routers().size(); ++r) {
    for (Ipv4Addr a : graph.addrs(r)) {
      listed_by.emplace(a, static_cast<std::uint32_t>(r));
    }
  }
  std::size_t mismatches = 0;
  for (std::size_t t = 0; t < graph.traces().size(); ++t) {
    const auto& hops = graph.traces()[t].hops;
    const auto ids = graph.hop_ids(t);
    EXPECT_EQ(ids.size(), hops.size()) << what;
    for (std::size_t i = 0; i < hops.size() && i < ids.size(); ++i) {
      if (hops[i].kind == ReplyKind::kNone) {
        mismatches += ids[i] != core::RouterGraph::kNoId;
        continue;
      }
      if (ids[i] >= graph.address_count() ||
          graph.address(ids[i]) != hops[i].addr) {
        ++mismatches;
        continue;
      }
      auto it = listed_by.find(hops[i].addr);
      const std::uint32_t want =
          it == listed_by.end() ? core::RouterGraph::kNoRouter : it->second;
      if (graph.router_of_id(ids[i]) != want && ++mismatches <= 3) {
        ADD_FAILURE() << what << ": " << hops[i].addr.str()
                      << " column names router "
                      << graph.router_of_id(ids[i]) << ", listed by "
                      << want;
      }
    }
  }
  return mismatches;
}

// The dense classification of `graph` under `inputs` against the per-hop
// reference: VP-extra blocks (as a set) and, for every replying hop
// address, class and origin. Returns the number of reference blocks.
std::size_t expect_classes_match(core::RouterGraph graph,
                                 const core::InferenceInputs& inputs,
                                 const std::string& what) {
  const core::Heuristics h(graph, inputs);
  std::vector<net::Prefix> want_blocks =
      reference_vp_extra_blocks(graph.traces(), inputs);
  std::vector<net::Prefix> got_blocks = h.vp_extra_blocks();
  std::sort(want_blocks.begin(), want_blocks.end());
  std::sort(got_blocks.begin(), got_blocks.end());
  EXPECT_EQ(got_blocks, want_blocks) << what;
  std::size_t mismatches = 0;
  for (const auto& trace : graph.traces()) {
    for (const auto& hop : trace.hops) {
      if (hop.kind == ReplyKind::kNone) continue;
      const core::AddrInfo want =
          reference_classify(inputs, want_blocks, hop.addr);
      const core::AddrInfo got = h.classify(hop.addr);
      if ((got.cls != want.cls || got.origin != want.origin) &&
          ++mismatches <= 3) {
        ADD_FAILURE() << what << ": " << hop.addr.str() << " class "
                      << static_cast<int>(got.cls) << "/" << got.origin.str()
                      << ", reference " << static_cast<int>(want.cls) << "/"
                      << want.origin.str();
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
  return want_blocks.size();
}

TEST(WalkReferenceTest, AddressTableMatchesPerHopReference) {
  // noisy_inputs corrupts origin, IXP and RIR rows; hidden_ixp puts IXP LAN
  // addresses on the paths.
  std::size_t extra_blocks = 0;
  std::size_t interior_cases = 0;
  for (const char* family : {"small", "access", "noisy_inputs", "hidden_ixp"}) {
    auto s = eval::make_scenario(family, 42);
    const topo::Vp vp = s->vps_in(s->first_of(s->spec().vp_kind)).front();
    const core::InferenceInputs inputs = s->inputs_for(vp.as);
    const core::BdrmapResult run = s->run_bdrmap(vp, {}, 0x515);

    // The column after the run's own §5.4.7 merges, and after merging
    // every other router into its neighbor.
    EXPECT_EQ(column_mismatches(run.graph, family), 0u) << family;
    core::RouterGraph merged = run.graph;
    std::size_t forced = 0;
    for (std::size_t r = 0; r + 1 < merged.routers().size(); r += 2) {
      if (merged.merged_away(r) || merged.merged_away(r + 1)) continue;
      merged.merge(r, r + 1);
      ++forced;
    }
    EXPECT_GT(forced, 0u) << family;
    EXPECT_EQ(column_mismatches(merged, family), 0u) << family << " merged";

    extra_blocks += expect_classes_match(run.graph, inputs, family);

    // Stale collector views that lost every announcement covering the
    // VP's gateway (the TTL-1 hop), so the §5.4.1 RIR extension must
    // recover the VP's space exactly as the per-hop reference does:
    //  - gateway unrouted: the TTL-1 anchor fires;
    //  - interior unrouted: the gateway and a later VP hop keep /32
    //    announcements, so only the walk back from that hop reaches the
    //    unrouted hop between them.
    const core::ObservedTrace* probe_trace = nullptr;
    for (const auto& trace : run.graph.traces()) {
      if (trace.hops.size() >= 3 &&
          std::all_of(trace.hops.begin(), trace.hops.begin() + 3,
                      [](const core::ObservedHop& hop) {
                        return hop.kind == ReplyKind::kTimeExceeded;
                      }) &&
          trace.hops[0].addr != trace.hops[1].addr &&
          trace.hops[0].addr != trace.hops[2].addr &&
          trace.hops[1].addr != trace.hops[2].addr) {
        probe_trace = &trace;
        break;
      }
    }
    ASSERT_NE(probe_trace, nullptr) << family;
    const Ipv4Addr gateway = probe_trace->hops[0].addr;
    const Ipv4Addr later = probe_trace->hops[2].addr;
    const std::vector<net::AsId>* vp_origins = inputs.origins->origins(gateway);
    ASSERT_NE(vp_origins, nullptr) << family;
    auto drop_gateway = [&](asdata::OriginTable& out) {
      for (const auto& [prefix, origins] : inputs.origins->all_prefixes()) {
        if (prefix.contains(gateway)) continue;
        for (net::AsId o : origins) out.add(prefix, o);
      }
    };
    asdata::OriginTable stale;
    drop_gateway(stale);
    core::InferenceInputs stale_inputs = inputs;
    stale_inputs.origins = &stale;
    extra_blocks += expect_classes_match(
        run.graph, stale_inputs, std::string(family) + " (gateway unrouted)");

    asdata::OriginTable interior;
    drop_gateway(interior);
    for (net::AsId o : *vp_origins) {
      interior.add(net::Prefix(gateway, 32), o);
      interior.add(net::Prefix(later, 32), o);
    }
    core::InferenceInputs interior_inputs = inputs;
    interior_inputs.origins = &interior;
    if (interior.origins(probe_trace->hops[1].addr) == nullptr) {
      extra_blocks += expect_classes_match(
          run.graph, interior_inputs,
          std::string(family) + " (interior unrouted)");
      ++interior_cases;
    }
  }
  // The oracle must reach the RIR anchor and the walk behind it.
  EXPECT_GT(extra_blocks, 0u);
  EXPECT_GT(interior_cases, 0u);
}

}  // namespace
}  // namespace bdrmap::probe
