// Multi-VP aggregation: cross-VP router identity, ownership voting and
// marginal-utility accounting.
#include "core/merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <string>
#include <tuple>

#include "eval/ground_truth.h"
#include "eval/scenario.h"
#include "eval/scenario_registry.h"
#include "runtime/thread_pool.h"
#include "test_support.h"

namespace bdrmap::core {
namespace {

using net::AsId;
using test::ip;
using test::make_trace;

// Builds a BdrmapResult directly from traces + manual annotations.
BdrmapResult fake_result(std::vector<ObservedTrace> traces,
                         std::vector<std::vector<net::Ipv4Addr>> groups) {
  return BdrmapResult{RouterGraph(std::move(traces), groups),
                      {}, {}, {}, {}, {}};
}

TEST(Merge, SharedAddressesUnifyRouters) {
  auto a = fake_result(
      {make_trace(AsId(2), "20.0.0.9", {{"10.0.0.1"}, {"10.0.0.5"}})}, {});
  auto b = fake_result(
      {make_trace(AsId(2), "20.0.1.9", {{"10.0.0.2"}, {"10.0.0.5"}})}, {});
  // Annotate owners so the merge has something to vote on.
  for (auto* r : {&a, &b}) {
    for (auto& router : r->graph.routers()) {
      router.owner = AsId(1);
      router.how = Heuristic::kVpNetwork;
      router.vp_side = true;
    }
  }
  auto merged = merge_results({&a, &b});
  // 10.0.0.5 appears in both runs: its routers unify; total = 3 routers.
  EXPECT_EQ(merged.routers.size(), 3u);
  auto shared = merged.router_of(ip("10.0.0.5"));
  ASSERT_TRUE(shared.has_value());
  EXPECT_EQ(merged.routers[*shared].seen_by.size(), 2u);
}

TEST(Merge, AliasSetsBridgeAcrossRuns) {
  // Run A saw {x1, x2} as one router; run B saw {x2, x3}: the merge must
  // produce a single router {x1, x2, x3}.
  auto a = fake_result(
      {make_trace(AsId(2), "20.0.0.9", {{"10.0.0.1"}, {"10.0.0.2"}})},
      {{ip("10.0.0.1"), ip("10.0.0.2")}});
  auto b = fake_result(
      {make_trace(AsId(2), "20.0.1.9", {{"10.0.0.2"}, {"10.0.0.3"}})},
      {{ip("10.0.0.2"), ip("10.0.0.3")}});
  auto merged = merge_results({&a, &b});
  auto r1 = merged.router_of(ip("10.0.0.1"));
  auto r3 = merged.router_of(ip("10.0.0.3"));
  ASSERT_TRUE(r1 && r3);
  EXPECT_EQ(*r1, *r3);
  EXPECT_EQ(merged.routers[*r1].addrs.size(), 3u);
}

TEST(Merge, OwnershipMajorityVote) {
  auto mk = [&](AsId owner) {
    auto r = fake_result(
        {make_trace(AsId(2), "20.0.0.9", {{"10.0.0.1"}})}, {});
    r.graph.routers()[0].owner = owner;
    r.graph.routers()[0].how = Heuristic::kIpAs;
    return r;
  };
  auto a = mk(AsId(2)), b = mk(AsId(2)), c = mk(AsId(3));
  auto merged = merge_results({&a, &b, &c});
  ASSERT_EQ(merged.routers.size(), 1u);
  EXPECT_EQ(merged.routers[0].owner, AsId(2));
  EXPECT_EQ(merged.routers[0].seen_by.size(), 3u);
}

TEST(Merge, CumulativeLinksTrackMarginalUtility) {
  eval::Scenario s(eval::small_access_config(42));
  net::AsId vp_as = s.first_of(topo::AsKind::kAccess);
  auto vps = s.vps_in(vp_as);
  ASSERT_GE(vps.size(), 3u);
  std::vector<BdrmapResult> results;
  for (std::size_t i = 0; i < 3; ++i) {
    results.push_back(s.run_bdrmap(vps[i], {}, 0x600 + i));
  }
  auto merged = merge_results({&results[0], &results[1], &results[2]});
  ASSERT_EQ(merged.cumulative_links.size(), 3u);
  // Monotone non-decreasing; first point equals run 0's distinct links.
  EXPECT_LE(merged.cumulative_links[0], merged.cumulative_links[1]);
  EXPECT_LE(merged.cumulative_links[1], merged.cumulative_links[2]);
  EXPECT_GT(merged.cumulative_links[0], 0u);
  EXPECT_EQ(merged.cumulative_links[2], merged.links.size());
  // Every link records who saw it, with the discoverer first.
  for (const auto& link : merged.links) {
    EXPECT_FALSE(link.seen_by.empty());
    EXPECT_EQ(*link.seen_by.begin(), link.first_seen_by);
  }
}

TEST(Merge, MergedOwnersRemainMostlyCorrect) {
  eval::Scenario s(eval::small_access_config(42));
  net::AsId vp_as = s.first_of(topo::AsKind::kAccess);
  auto vps = s.vps_in(vp_as);
  std::vector<BdrmapResult> results;
  std::vector<const BdrmapResult*> ptrs;
  for (std::size_t i = 0; i < vps.size(); ++i) {
    results.push_back(s.run_bdrmap(vps[i], {}, 0x700 + i));
  }
  for (const auto& r : results) ptrs.push_back(&r);
  auto merged = merge_results(ptrs);
  eval::GroundTruth truth(s.net(), vp_as);
  std::size_t total = 0, correct = 0;
  for (const auto& router : merged.routers) {
    if (router.vp_side || !router.owner.valid()) continue;
    auto owner = truth.true_owner(router.addrs);
    if (!owner) continue;
    ++total;
    correct += truth.same_org(*owner, router.owner);
  }
  ASSERT_GT(total, 50u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.85);
}

// The merge as it was written over std::map / std::set nodes, kept here as
// the oracle of the flat merge: union-find over (run, router) sources
// keyed by a map of first holders, per-component owner vote maps, and a
// map from link identity to merged link.
struct ReferenceRouter {
  std::vector<net::Ipv4Addr> addrs;
  AsId owner;
  Heuristic how = Heuristic::kNone;
  bool vp_side = false;
  std::set<std::size_t> seen_by;
};

struct ReferenceLink {
  std::size_t near_router = MergedLink::kNoRouter;
  std::size_t far_router = MergedLink::kNoRouter;
  AsId neighbor_as;
  Heuristic how = Heuristic::kNone;
  std::size_t first_seen_by = 0;
  std::set<std::size_t> seen_by;
};

struct ReferenceMap {
  std::vector<ReferenceRouter> routers;
  std::vector<ReferenceLink> links;
  std::map<AsId, std::vector<std::size_t>> links_by_as;
  std::vector<std::size_t> cumulative_links;
  std::map<net::Ipv4Addr, std::size_t> addr_index;
};

ReferenceMap reference_merge(const std::vector<const BdrmapResult*>& runs) {
  ReferenceMap merged;
  struct Source {
    std::size_t run;
    std::size_t router;
  };
  std::vector<Source> sources;
  std::vector<std::vector<std::size_t>> run_offsets(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const RouterGraph& graph = runs[r]->graph;
    run_offsets[r].resize(graph.routers().size(),
                          std::numeric_limits<std::size_t>::max());
    for (std::size_t i = 0; i < graph.routers().size(); ++i) {
      if (graph.merged_away(i)) continue;
      run_offsets[r][i] = sources.size();
      sources.push_back({r, i});
    }
  }
  std::vector<std::size_t> parent(sources.size());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::map<net::Ipv4Addr, std::size_t> first_holder;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (net::Ipv4Addr a :
         runs[sources[s].run]->graph.addrs(sources[s].router)) {
      auto [it, inserted] = first_holder.emplace(a, s);
      if (!inserted) parent[find(s)] = find(it->second);
    }
  }
  std::map<std::size_t, std::size_t> component_index;
  std::vector<std::map<AsId, int>> owner_votes;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    auto [it, inserted] =
        component_index.emplace(find(s), merged.routers.size());
    if (inserted) {
      merged.routers.emplace_back();
      owner_votes.emplace_back();
    }
    ReferenceRouter& out = merged.routers[it->second];
    const RouterGraph& graph = runs[sources[s].run]->graph;
    const GraphRouter& router = graph.routers()[sources[s].router];
    const std::span<const net::Ipv4Addr> addrs =
        graph.addrs(sources[s].router);
    out.addrs.insert(out.addrs.end(), addrs.begin(), addrs.end());
    out.seen_by.insert(sources[s].run);
    out.vp_side |= router.vp_side;
    if (router.how != Heuristic::kNone) {
      if (out.how == Heuristic::kNone ||
          static_cast<int>(router.how) < static_cast<int>(out.how)) {
        out.how = router.how;
      }
      if (router.owner.valid()) ++owner_votes[it->second][router.owner];
    }
  }
  for (std::size_t i = 0; i < merged.routers.size(); ++i) {
    ReferenceRouter& out = merged.routers[i];
    std::sort(out.addrs.begin(), out.addrs.end());
    out.addrs.erase(std::unique(out.addrs.begin(), out.addrs.end()),
                    out.addrs.end());
    int best = 0;
    for (const auto& [as, votes] : owner_votes[i]) {
      if (votes > best) {
        out.owner = as;
        best = votes;
      }
    }
    if (out.vp_side) out.how = Heuristic::kVpNetwork;
    for (net::Ipv4Addr a : out.addrs) merged.addr_index.emplace(a, i);
  }
  auto merged_of = [&](std::size_t run, std::size_t router) {
    if (router == InferredLink::kNoRouter) return MergedLink::kNoRouter;
    std::size_t flat = run_offsets[run][router];
    if (flat == std::numeric_limits<std::size_t>::max()) {
      return MergedLink::kNoRouter;
    }
    return component_index.at(find(flat));
  };
  std::map<std::tuple<std::size_t, std::size_t, std::uint32_t>, std::size_t>
      link_index;
  merged.cumulative_links.resize(runs.size(), 0);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (const auto& link : runs[r]->links) {
      std::size_t near = merged_of(r, link.vp_router);
      std::size_t far = merged_of(r, link.neighbor_router);
      auto key = std::make_tuple(
          near, far, far == MergedLink::kNoRouter ? link.neighbor_as.value : 0u);
      auto [it, inserted] = link_index.emplace(key, merged.links.size());
      if (inserted) {
        ReferenceLink out;
        out.near_router = near;
        out.far_router = far;
        out.neighbor_as = link.neighbor_as;
        out.how = link.how;
        out.first_seen_by = r;
        merged.links.push_back(out);
      }
      merged.links[it->second].seen_by.insert(r);
    }
    merged.cumulative_links[r] = merged.links.size();
  }
  for (std::size_t i = 0; i < merged.links.size(); ++i) {
    merged.links_by_as[merged.links[i].neighbor_as].push_back(i);
  }
  return merged;
}

std::vector<std::size_t> as_vector(const std::set<std::size_t>& s) {
  return {s.begin(), s.end()};
}

// Every field of every router and link, the per-AS index, the cumulative
// curve, and router_of for every address plus one absent address.
void expect_same_merge(const std::vector<const BdrmapResult*>& runs,
                       const std::string& label) {
  const ReferenceMap want = reference_merge(runs);
  const MergedMap got = merge_results(runs);
  ASSERT_EQ(got.routers.size(), want.routers.size()) << label;
  for (std::size_t i = 0; i < want.routers.size(); ++i) {
    const ReferenceRouter& w = want.routers[i];
    const MergedRouter& g = got.routers[i];
    EXPECT_EQ(g.addrs, w.addrs) << label << " router " << i;
    EXPECT_EQ(g.owner, w.owner) << label << " router " << i;
    EXPECT_EQ(g.how, w.how) << label << " router " << i;
    EXPECT_EQ(g.vp_side, w.vp_side) << label << " router " << i;
    EXPECT_EQ(g.seen_by, as_vector(w.seen_by)) << label << " router " << i;
  }
  ASSERT_EQ(got.links.size(), want.links.size()) << label;
  for (std::size_t i = 0; i < want.links.size(); ++i) {
    const ReferenceLink& w = want.links[i];
    const MergedLink& g = got.links[i];
    EXPECT_EQ(g.near_router, w.near_router) << label << " link " << i;
    EXPECT_EQ(g.far_router, w.far_router) << label << " link " << i;
    EXPECT_EQ(g.neighbor_as, w.neighbor_as) << label << " link " << i;
    EXPECT_EQ(g.how, w.how) << label << " link " << i;
    EXPECT_EQ(g.first_seen_by, w.first_seen_by) << label << " link " << i;
    EXPECT_EQ(g.seen_by, as_vector(w.seen_by)) << label << " link " << i;
  }
  EXPECT_EQ(got.links_by_as, want.links_by_as) << label;
  EXPECT_EQ(got.cumulative_links, want.cumulative_links) << label;
  for (const auto& [addr, router] : want.addr_index) {
    EXPECT_EQ(got.router_of(addr), std::optional<std::size_t>(router))
        << label << " " << addr.str();
  }
  net::Ipv4Addr absent(0xfffffffeu);
  while (want.addr_index.count(absent)) absent = net::Ipv4Addr(absent.value() - 1);
  EXPECT_EQ(got.router_of(absent), std::nullopt) << label;
}

// Hand-built runs: alias sets that bridge runs transitively (A {1,2},
// B {2,3}, C {3,4}), tied owner votes (one each for AS 7 and AS 4; AS 9
// and AS 8; a VP-side router voted AS 1 and AS 5), votes from placements
// without a heuristic (ignored), router-less links that share a near
// router under different ASes, and a link with no near router.
std::vector<BdrmapResult> hand_built_runs() {
  using test::make_trace;
  auto run = [](std::vector<ObservedTrace> traces,
                std::vector<std::vector<net::Ipv4Addr>> groups) {
    return BdrmapResult{RouterGraph(std::move(traces), groups),
                        {}, {}, {}, {}, {}};
  };
  std::vector<BdrmapResult> runs;
  runs.push_back(run({make_trace(AsId(4), "40.0.0.9",
                                 {{"10.0.9.1"}, {"10.0.0.1"}, {"10.0.0.2"}})},
                     {{ip("10.0.0.1"), ip("10.0.0.2")}}));
  runs.push_back(run({make_trace(AsId(4), "40.0.1.9",
                                 {{"10.0.9.1"}, {"10.0.0.2"}, {"10.0.0.3"}})},
                     {{ip("10.0.0.2"), ip("10.0.0.3")}}));
  runs.push_back(run({make_trace(AsId(4), "40.0.2.9",
                                 {{"10.0.9.2"}, {"10.0.0.3"}, {"10.0.0.4"}})},
                     {{ip("10.0.0.3"), ip("10.0.0.4")}}));
  runs.push_back(run({make_trace(AsId(9), "90.0.0.9",
                                 {{"10.0.9.2"}, {"10.0.0.5"}})},
                     {}));
  runs.push_back(run({make_trace(AsId(9), "90.0.1.9",
                                 {{"10.0.9.3"}, {"10.0.0.5"}})},
                     {}));
  auto at = [](BdrmapResult& r, const char* addr) -> GraphRouter& {
    return r.graph.routers()[*r.graph.router_of(ip(addr))];
  };
  auto place = [](GraphRouter& router, AsId owner, Heuristic how,
                  bool vp_side) {
    router.owner = owner;
    router.how = how;
    router.vp_side = vp_side;
  };
  auto index = [](BdrmapResult& r, const char* addr) {
    return *r.graph.router_of(ip(addr));
  };
  auto link = [](BdrmapResult& r, std::size_t near, std::size_t far, AsId as,
                 Heuristic how) {
    r.links.push_back({near, far, as, how, 0.5});
    r.links_by_as[as].push_back(r.links.size() - 1);
  };
  constexpr std::size_t kNo = InferredLink::kNoRouter;
  BdrmapResult& a = runs[0];
  place(at(a, "10.0.9.1"), AsId(1), Heuristic::kVpNetwork, true);
  place(at(a, "10.0.0.1"), AsId(7), Heuristic::kCount, false);
  link(a, index(a, "10.0.9.1"), index(a, "10.0.0.1"), AsId(7),
       Heuristic::kCount);
  link(a, index(a, "10.0.9.1"), kNo, AsId(20), Heuristic::kSilent);
  BdrmapResult& b = runs[1];
  place(at(b, "10.0.9.1"), AsId(1), Heuristic::kVpNetwork, true);
  place(at(b, "10.0.0.2"), AsId(4), Heuristic::kThirdParty, false);
  link(b, index(b, "10.0.9.1"), index(b, "10.0.0.2"), AsId(4),
       Heuristic::kThirdParty);
  BdrmapResult& c = runs[2];
  place(at(c, "10.0.9.2"), AsId(1), Heuristic::kVpNetwork, true);
  place(at(c, "10.0.0.3"), AsId(7), Heuristic::kNone, false);
  link(c, index(c, "10.0.9.2"), kNo, AsId(20), Heuristic::kSilent);
  BdrmapResult& d = runs[3];
  place(at(d, "10.0.9.2"), AsId(5), Heuristic::kIpAs, false);
  place(at(d, "10.0.0.5"), AsId(9), Heuristic::kRelationship, false);
  link(d, index(d, "10.0.9.2"), kNo, AsId(21), Heuristic::kOtherIcmp);
  link(d, index(d, "10.0.9.2"), kNo, AsId(20), Heuristic::kSilent);
  link(d, kNo, index(d, "10.0.0.5"), AsId(9), Heuristic::kRelationship);
  BdrmapResult& e = runs[4];
  place(at(e, "10.0.9.3"), AsId(1), Heuristic::kVpNetwork, true);
  place(at(e, "10.0.0.5"), AsId(8), Heuristic::kHiddenPeer, false);
  link(e, kNo, index(e, "10.0.0.5"), AsId(8), Heuristic::kHiddenPeer);
  link(e, index(e, "10.0.9.3"), index(e, "10.0.0.5"), AsId(8),
       Heuristic::kHiddenPeer);
  return runs;
}

TEST(Merge, FlatMergeMatchesReference) {
  std::mt19937_64 rng(0x3e76e);
  auto subsets = [&](const std::vector<BdrmapResult>& results,
                     const std::string& label) {
    std::vector<const BdrmapResult*> all;
    for (const BdrmapResult& r : results) all.push_back(&r);
    expect_same_merge(all, label + " in order");
    for (int round = 0; round < 6; ++round) {
      std::vector<const BdrmapResult*> shuffled = all;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      shuffled.resize(1 + rng() % shuffled.size());
      expect_same_merge(shuffled, label + " subset " + std::to_string(round));
    }
  };

  const std::vector<BdrmapResult> hand = hand_built_runs();
  {
    // The hand-built case pins the tie rules, not only reference parity.
    std::vector<const BdrmapResult*> all;
    for (const BdrmapResult& r : hand) all.push_back(&r);
    const MergedMap merged = merge_results(all);
    const std::size_t bridged = *merged.router_of(ip("10.0.0.1"));
    EXPECT_EQ(merged.router_of(ip("10.0.0.4")), bridged);
    EXPECT_EQ(merged.routers[bridged].addrs.size(), 4u);
    EXPECT_EQ(merged.routers[bridged].owner, AsId(4));
    EXPECT_EQ(merged.routers[bridged].how, Heuristic::kThirdParty);
    EXPECT_EQ(merged.routers[bridged].seen_by,
              (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(merged.routers[*merged.router_of(ip("10.0.0.5"))].owner,
              AsId(8));
    const MergedRouter& vp = merged.routers[*merged.router_of(ip("10.0.9.2"))];
    EXPECT_EQ(vp.owner, AsId(1));
    EXPECT_EQ(vp.how, Heuristic::kVpNetwork);
  }
  subsets(hand, "hand-built");

  const auto spec = eval::scenario_spec("access", 42);
  ASSERT_TRUE(spec.has_value());
  const eval::Scenario scenario(*spec);
  const std::vector<topo::Vp> vps =
      scenario.vps_in(scenario.first_of(spec->vp_kind));
  ASSERT_EQ(vps.size(), 19u);
  auto pool = runtime::make_pool(2);
  const runtime::MultiVpResult cold =
      scenario.run_bdrmap_parallel(vps, {}, 0x515, pool.get());
  subsets(cold.per_vp, "access");
}

}  // namespace
}  // namespace bdrmap::core
