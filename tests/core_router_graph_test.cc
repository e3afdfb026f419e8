#include "core/router_graph.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_support.h"

namespace bdrmap::core {
namespace {

using net::AsId;
using probe::ReplyKind;
using test::ip;
using test::make_trace;

// Membership in one of the graph's sorted flat sets.
template <typename T>
bool has(std::span<const T> set, T x) {
  return std::binary_search(set.begin(), set.end(), x);
}

template <typename T>
std::vector<T> vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

TEST(RouterGraph, BuildsAdjacencyFromConsecutiveHops) {
  std::vector<ObservedTrace> traces{
      make_trace(AsId(5), "20.0.0.1",
                 {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.0.3"}})};
  RouterGraph g(std::move(traces), {});
  ASSERT_EQ(g.routers().size(), 3u);
  auto r0 = *g.router_of(ip("10.0.0.1"));
  auto r1 = *g.router_of(ip("10.0.0.2"));
  auto r2 = *g.router_of(ip("10.0.0.3"));
  EXPECT_TRUE(has(g.next(r0), std::uint32_t(r1)));
  EXPECT_TRUE(has(g.prev(r1), std::uint32_t(r0)));
  EXPECT_TRUE(has(g.next(r1), std::uint32_t(r2)));
  EXPECT_EQ(g.routers()[r0].min_hop, 0);
  EXPECT_EQ(g.routers()[r2].min_hop, 2);
}

TEST(RouterGraph, GapsBreakAdjacency) {
  std::vector<ObservedTrace> traces{make_trace(
      AsId(5), "20.0.0.1", {{"10.0.0.1"}, {nullptr}, {"10.0.0.3"}})};
  RouterGraph g(std::move(traces), {});
  auto r0 = *g.router_of(ip("10.0.0.1"));
  EXPECT_TRUE(g.next(r0).empty());
}

TEST(RouterGraph, AliasGroupsCollapseAddresses) {
  std::vector<ObservedTrace> traces{
      make_trace(AsId(5), "20.0.0.1", {{"10.0.0.1"}, {"10.0.0.2"}}),
      make_trace(AsId(6), "30.0.0.1", {{"10.0.0.1"}, {"10.0.0.6"}})};
  RouterGraph g(std::move(traces), {{ip("10.0.0.2"), ip("10.0.0.6")}});
  auto merged = *g.router_of(ip("10.0.0.2"));
  EXPECT_EQ(*g.router_of(ip("10.0.0.6")), merged);
  EXPECT_EQ(g.addrs(merged).size(), 2u);
  EXPECT_EQ(g.dest_ases(merged).size(), 2u);
  EXPECT_EQ(g.live_router_count(), 2u);
}

TEST(RouterGraph, SelfLoopsFromAliasesAreSkipped) {
  std::vector<ObservedTrace> traces{
      make_trace(AsId(5), "20.0.0.1", {{"10.0.0.1"}, {"10.0.0.2"}})};
  RouterGraph g(std::move(traces), {{ip("10.0.0.1"), ip("10.0.0.2")}});
  auto r = *g.router_of(ip("10.0.0.1"));
  EXPECT_TRUE(g.next(r).empty());
  EXPECT_TRUE(g.prev(r).empty());
}

// Without alias groups every time-exceeded address is a router of its own,
// numbered in trace order: the same graph as singleton groups listed in
// first-seen order (what Bdrmap passes when alias resolution is off).
TEST(RouterGraph, NoGroupsEqualsFirstSeenSingletons) {
  std::vector<ObservedTrace> traces{
      make_trace(AsId(5), "20.0.0.1",
                 {{"10.0.0.9"}, {"10.0.0.3"}, {nullptr}, {"10.0.0.7"}}),
      make_trace(AsId(6), "30.0.0.1",
                 {{"10.0.0.9"}, {"10.0.0.1"}, {"10.0.0.3"},
                  {"30.0.0.1", ReplyKind::kEchoReply}}, true)};
  RouterGraph ungrouped(traces, {});
  RouterGraph singletons(traces, {{ip("10.0.0.9")}, {ip("10.0.0.3")},
                                  {ip("10.0.0.7")}, {ip("10.0.0.1")}});
  ASSERT_EQ(ungrouped.routers().size(), singletons.routers().size());
  for (std::size_t i = 0; i < ungrouped.routers().size(); ++i) {
    EXPECT_EQ(vec(ungrouped.addrs(i)), vec(singletons.addrs(i)))
        << "router " << i;
    EXPECT_EQ(vec(ungrouped.prev(i)), vec(singletons.prev(i)))
        << "router " << i;
    EXPECT_EQ(vec(ungrouped.next(i)), vec(singletons.next(i)))
        << "router " << i;
    EXPECT_EQ(vec(ungrouped.dest_ases(i)), vec(singletons.dest_ases(i)))
        << "router " << i;
    EXPECT_EQ(ungrouped.routers()[i].min_hop, singletons.routers()[i].min_hop)
        << "router " << i;
  }
}

TEST(RouterGraph, EchoRepliesCreateNoRoutersOrAdjacency) {
  std::vector<ObservedTrace> traces{make_trace(
      AsId(5), "20.0.0.1",
      {{"10.0.0.1"}, {"20.0.0.1", ReplyKind::kEchoReply}}, true)};
  RouterGraph g(std::move(traces), {});
  // An echo reply's source is the probed address — positionally useless
  // (§5.3) — so it contributes neither a router nor an edge.
  EXPECT_FALSE(g.router_of(ip("20.0.0.1")).has_value());
  auto r0 = *g.router_of(ip("10.0.0.1"));
  EXPECT_TRUE(g.next(r0).empty());
}

TEST(RouterGraph, TerminalForLastResponsiveRouter) {
  std::vector<ObservedTrace> traces{
      make_trace(AsId(5), "20.0.0.1",
                 {{"10.0.0.1"}, {"10.0.0.2"}, {nullptr}, {nullptr}})};
  RouterGraph g(std::move(traces), {});
  auto last = *g.router_of(ip("10.0.0.2"));
  EXPECT_TRUE(has(g.terminal_for(last), AsId(5)));
  auto first = *g.router_of(ip("10.0.0.1"));
  EXPECT_TRUE(g.terminal_for(first).empty());
}

TEST(RouterGraph, StopSetTracesAreNotTerminal) {
  auto t = make_trace(AsId(5), "20.0.0.1", {{"10.0.0.1"}, {"10.0.0.2"}});
  t.stopped_by_stopset = true;
  std::vector<ObservedTrace> traces{std::move(t)};
  RouterGraph g(std::move(traces), {});
  auto last = *g.router_of(ip("10.0.0.2"));
  EXPECT_TRUE(g.terminal_for(last).empty());
}

TEST(RouterGraph, ReachedTracesAreNotTerminal) {
  std::vector<ObservedTrace> traces{make_trace(
      AsId(5), "20.0.0.1",
      {{"10.0.0.1"}, {"20.0.0.1", ReplyKind::kEchoReply}}, true)};
  RouterGraph g(std::move(traces), {});
  auto r0 = *g.router_of(ip("10.0.0.1"));
  EXPECT_TRUE(g.terminal_for(r0).empty());
}

TEST(RouterGraph, ByHopDistanceOrdersNearestFirst) {
  std::vector<ObservedTrace> traces{
      make_trace(AsId(5), "20.0.0.1",
                 {{"10.0.0.1"}, {"10.0.0.2"}, {"10.0.0.3"}})};
  RouterGraph g(std::move(traces), {});
  auto order = g.by_hop_distance();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(g.routers()[order[0]].min_hop, 0);
  EXPECT_EQ(g.routers()[order[2]].min_hop, 2);
}

TEST(RouterGraph, MergeRewiresAdjacency) {
  std::vector<ObservedTrace> traces{
      make_trace(AsId(5), "20.0.0.1", {{"10.0.0.1"}, {"10.0.0.9"}}),
      make_trace(AsId(6), "30.0.0.1", {{"10.0.0.2"}, {"10.0.0.9"}})};
  RouterGraph g(std::move(traces), {});
  auto a = *g.router_of(ip("10.0.0.1"));
  auto b = *g.router_of(ip("10.0.0.2"));
  auto n = *g.router_of(ip("10.0.0.9"));
  g.merge(a, b);
  EXPECT_TRUE(g.merged_away(b));
  EXPECT_EQ(*g.router_of(ip("10.0.0.2")), a);
  EXPECT_EQ(g.addrs(a).size(), 2u);
  EXPECT_TRUE(has(g.next(a), std::uint32_t(n)));
  EXPECT_TRUE(has(g.prev(n), std::uint32_t(a)));
  EXPECT_FALSE(has(g.prev(n), std::uint32_t(b)));
  EXPECT_EQ(g.live_router_count(), 2u);
}

// ---- Differential oracle: the flat graph against per-router std::sets ----

// The graph as the paper describes it, written the plain way: one std::set
// per router and per relation, built hop by hop, and merges that union the
// sets and rewire the neighbors one edge at a time.
struct ReferenceGraph {
  struct Router {
    std::set<Ipv4Addr> addrs;
    std::set<Ipv4Addr> ttl_addrs;
    std::set<std::size_t> prev, next;
    std::set<AsId> dest_ases, terminal_for;
    int min_hop = INT_MAX;
  };
  std::vector<Router> routers;
  std::map<Ipv4Addr, std::size_t> router_of;

  ReferenceGraph(const std::vector<ObservedTrace>& traces,
                 const std::vector<std::vector<Ipv4Addr>>& groups) {
    for (const auto& group : groups) {
      if (group.empty()) continue;
      Router r;
      for (Ipv4Addr a : group) {
        r.addrs.insert(a);
        router_of.emplace(a, routers.size());  // the first group keeps it
      }
      routers.push_back(r);
    }
    for (const ObservedTrace& trace : traces) {
      std::size_t prev = SIZE_MAX, last = SIZE_MAX;
      bool replied_after = false;
      for (std::size_t i = 0; i < trace.hops.size(); ++i) {
        const ObservedHop& hop = trace.hops[i];
        if (hop.kind != ReplyKind::kTimeExceeded) {
          prev = SIZE_MAX;
          replied_after |= hop.kind != ReplyKind::kNone;
          continue;
        }
        auto it = router_of.find(hop.addr);
        if (it == router_of.end()) {
          it = router_of.emplace(hop.addr, routers.size()).first;
          routers.emplace_back().addrs.insert(hop.addr);
        }
        const std::size_t r = it->second;
        Router& router = routers[r];
        router.ttl_addrs.insert(hop.addr);
        router.min_hop = std::min(router.min_hop, static_cast<int>(i));
        router.dest_ases.insert(trace.target_as);
        if (prev != SIZE_MAX && prev != r) {
          routers[prev].next.insert(r);
          router.prev.insert(prev);
        }
        prev = last = r;
        replied_after = false;
      }
      if (last != SIZE_MAX && !replied_after && !trace.reached_dst &&
          !trace.stopped_by_stopset) {
        routers[last].terminal_for.insert(trace.target_as);
      }
    }
  }

  bool dead(std::size_t i) const { return routers[i].addrs.empty(); }

  void merge(std::size_t into, std::size_t from) {
    Router& dst = routers[into];
    Router& src = routers[from];
    dst.addrs.insert(src.addrs.begin(), src.addrs.end());
    dst.ttl_addrs.insert(src.ttl_addrs.begin(), src.ttl_addrs.end());
    dst.dest_ases.insert(src.dest_ases.begin(), src.dest_ases.end());
    dst.terminal_for.insert(src.terminal_for.begin(), src.terminal_for.end());
    dst.min_hop = std::min(dst.min_hop, src.min_hop);
    for (std::size_t p : src.prev) {
      routers[p].next.erase(from);
      if (p != into) {
        routers[p].next.insert(into);
        dst.prev.insert(p);
      }
    }
    for (std::size_t n : src.next) {
      routers[n].prev.erase(from);
      if (n != into) {
        routers[n].prev.insert(into);
        dst.next.insert(n);
      }
    }
    src = Router{};
    for (auto& [addr, r] : router_of) {
      if (r == from) r = into;
    }
  }
};

template <typename T, typename U>
std::vector<T> as_vector(const std::set<U>& s) {
  return std::vector<T>(s.begin(), s.end());
}

// Every column, min_hop and router_of of `g` against `ref`.
void expect_same(const RouterGraph& g, const ReferenceGraph& ref,
                 const std::string& where) {
  ASSERT_EQ(g.routers().size(), ref.routers.size()) << where;
  std::size_t live = 0;
  for (std::size_t i = 0; i < ref.routers.size(); ++i) {
    const ReferenceGraph::Router& want = ref.routers[i];
    live += !ref.dead(i);
    EXPECT_EQ(g.merged_away(i), ref.dead(i)) << where << " router " << i;
    EXPECT_EQ(vec(g.addrs(i)), as_vector<Ipv4Addr>(want.addrs))
        << where << " addrs of router " << i;
    std::vector<Ipv4Addr> ttl;
    for (std::uint32_t id : g.ttl_ids(i)) ttl.push_back(g.address(id));
    EXPECT_EQ(ttl, as_vector<Ipv4Addr>(want.ttl_addrs))
        << where << " ttl addresses of router " << i;
    EXPECT_EQ(vec(g.prev(i)), as_vector<std::uint32_t>(want.prev))
        << where << " prev of router " << i;
    EXPECT_EQ(vec(g.next(i)), as_vector<std::uint32_t>(want.next))
        << where << " next of router " << i;
    EXPECT_EQ(vec(g.dest_ases(i)), as_vector<AsId>(want.dest_ases))
        << where << " dest_ases of router " << i;
    EXPECT_EQ(vec(g.terminal_for(i)), as_vector<AsId>(want.terminal_for))
        << where << " terminal_for of router " << i;
    EXPECT_EQ(g.routers()[i].min_hop, want.min_hop)
        << where << " min_hop of router " << i;
  }
  EXPECT_EQ(g.live_router_count(), live) << where;
  for (std::uint32_t id = 0; id < g.address_count(); ++id) {
    const Ipv4Addr a = g.address(id);
    const auto it = ref.router_of.find(a);
    const std::optional<std::size_t> want =
        it == ref.router_of.end() ? std::nullopt
                                  : std::optional<std::size_t>(it->second);
    EXPECT_EQ(g.router_of(a), want) << where << " router_of " << a.str();
  }
  for (const auto& [addr, r] : ref.router_of) {
    EXPECT_TRUE(g.id_of(addr).has_value()) << where << " " << addr.str();
  }
}

// Seeded random trace sets over a small address pool, so addresses repeat
// within and across traces: gaps, echo and unreachable replies, stop-set
// and reached traces, and alias groups that miss trace addresses, list
// addresses no trace saw, and list one address in two groups.
struct RandomInput {
  std::vector<ObservedTrace> traces;
  std::vector<std::vector<Ipv4Addr>> groups;
};

RandomInput random_input(std::uint32_t seed) {
  std::mt19937 rng(seed);
  auto uniform = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const int pool = uniform(4, 40);
  auto addr = [&] {
    return Ipv4Addr(0x0a000001u + static_cast<std::uint32_t>(uniform(0, pool)));
  };
  RandomInput in;
  const int traces = uniform(0, 30);
  for (int t = 0; t < traces; ++t) {
    ObservedTrace trace;
    trace.target_as = AsId(static_cast<std::uint32_t>(uniform(1, 6)));
    trace.dst = Ipv4Addr(0x14000000u + static_cast<std::uint32_t>(t));
    const int hops = uniform(0, 9);
    for (int h = 0; h < hops; ++h) {
      const int roll = uniform(0, 99);
      if (roll < 12) {
        trace.hops.push_back({Ipv4Addr{}, ReplyKind::kNone});
      } else if (roll < 18) {
        trace.hops.push_back({addr(), ReplyKind::kEchoReply});
      } else if (roll < 23) {
        trace.hops.push_back({addr(), ReplyKind::kDestUnreachable});
      } else {
        trace.hops.push_back({addr(), ReplyKind::kTimeExceeded});
      }
    }
    trace.reached_dst = uniform(0, 4) == 0;
    trace.stopped_by_stopset = uniform(0, 5) == 0;
    in.traces.push_back(std::move(trace));
  }
  const int groups = uniform(0, 8);
  for (int g = 0; g < groups; ++g) {
    std::vector<Ipv4Addr> group;
    const int size = uniform(0, 4);
    for (int m = 0; m < size; ++m) group.push_back(addr());
    in.groups.push_back(std::move(group));
  }
  if (in.groups.size() >= 2 && !in.groups[0].empty()) {
    in.groups[1].push_back(in.groups[0].front());  // listed twice
  }
  return in;
}

TEST(RouterGraph, FlatColumnsMatchPerRouterSetsUnderMerges) {
  for (std::uint32_t seed = 1; seed <= 300; ++seed) {
    const RandomInput in = random_input(seed);
    ReferenceGraph ref(in.traces, in.groups);
    RouterGraph g(in.traces, in.groups);
    RouterGraph batched = g;
    const std::string at = "seed " + std::to_string(seed);
    expect_same(g, ref, at + " build");
    if (::testing::Test::HasFailure()) return;

    // Random §5.4.7-style merges: two live routers, most often into the
    // lower index, as the analytic collapse merges.
    std::mt19937 rng(seed * 7919u);
    std::vector<RouterGraph::Merge> merges;
    for (int step = 0; step < 6; ++step) {
      std::vector<std::uint32_t> live;
      for (std::size_t i = 0; i < ref.routers.size(); ++i) {
        if (!ref.dead(i)) live.push_back(static_cast<std::uint32_t>(i));
      }
      if (live.size() < 2) break;
      std::shuffle(live.begin(), live.end(), rng);
      std::uint32_t into = std::min(live[0], live[1]);
      std::uint32_t from = std::max(live[0], live[1]);
      if (rng() % 4 == 0) std::swap(into, from);
      ref.merge(into, from);
      g.merge(into, from);
      merges.emplace_back(into, from);
      expect_same(g, ref, at + " merge " + std::to_string(step));
      if (::testing::Test::HasFailure()) return;
    }
    // The same merges as one batch give the same graph.
    batched.merge(merges);
    expect_same(batched, ref, at + " batched merges");
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(RouterGraph, HeuristicNamesAreStable) {
  EXPECT_STREQ(heuristic_name(Heuristic::kFirewall), "2. Firewall");
  EXPECT_STREQ(heuristic_name(Heuristic::kHiddenPeer), "5. Hidden peer");
  EXPECT_STREQ(heuristic_name(Heuristic::kSilent), "8. Silent neighbor");
}

}  // namespace
}  // namespace bdrmap::core
