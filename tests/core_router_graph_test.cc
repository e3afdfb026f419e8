#include "core/router_graph.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "test_support.h"

namespace bdrmap::core {
namespace {

using net::AsId;
using probe::ReplyKind;
using test::ip;
using test::make_trace;

// Membership in one of GraphRouter's sorted flat sets.
template <typename T>
bool has(const std::vector<T>& set, T x) {
  return std::binary_search(set.begin(), set.end(), x);
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
  EXPECT_TRUE(has(g.routers()[r0].next, r1));
  EXPECT_TRUE(has(g.routers()[r1].prev, r0));
  EXPECT_TRUE(has(g.routers()[r1].next, r2));
  EXPECT_EQ(g.routers()[r0].min_hop, 0);
  EXPECT_EQ(g.routers()[r2].min_hop, 2);
}

TEST(RouterGraph, GapsBreakAdjacency) {
  std::vector<ObservedTrace> traces{make_trace(
      AsId(5), "20.0.0.1", {{"10.0.0.1"}, {nullptr}, {"10.0.0.3"}})};
  RouterGraph g(std::move(traces), {});
  auto r0 = *g.router_of(ip("10.0.0.1"));
  EXPECT_TRUE(g.routers()[r0].next.empty());
}

TEST(RouterGraph, AliasGroupsCollapseAddresses) {
  std::vector<ObservedTrace> traces{
      make_trace(AsId(5), "20.0.0.1", {{"10.0.0.1"}, {"10.0.0.2"}}),
      make_trace(AsId(6), "30.0.0.1", {{"10.0.0.1"}, {"10.0.0.6"}})};
  RouterGraph g(std::move(traces), {{ip("10.0.0.2"), ip("10.0.0.6")}});
  auto merged = *g.router_of(ip("10.0.0.2"));
  EXPECT_EQ(*g.router_of(ip("10.0.0.6")), merged);
  EXPECT_EQ(g.routers()[merged].addrs.size(), 2u);
  EXPECT_EQ(g.routers()[merged].dest_ases.size(), 2u);
  EXPECT_EQ(g.live_router_count(), 2u);
}

TEST(RouterGraph, SelfLoopsFromAliasesAreSkipped) {
  std::vector<ObservedTrace> traces{
      make_trace(AsId(5), "20.0.0.1", {{"10.0.0.1"}, {"10.0.0.2"}})};
  RouterGraph g(std::move(traces), {{ip("10.0.0.1"), ip("10.0.0.2")}});
  auto r = *g.router_of(ip("10.0.0.1"));
  EXPECT_TRUE(g.routers()[r].next.empty());
  EXPECT_TRUE(g.routers()[r].prev.empty());
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
  EXPECT_TRUE(g.routers()[r0].next.empty());
}

TEST(RouterGraph, TerminalForLastResponsiveRouter) {
  std::vector<ObservedTrace> traces{
      make_trace(AsId(5), "20.0.0.1",
                 {{"10.0.0.1"}, {"10.0.0.2"}, {nullptr}, {nullptr}})};
  RouterGraph g(std::move(traces), {});
  auto last = *g.router_of(ip("10.0.0.2"));
  EXPECT_TRUE(has(g.routers()[last].terminal_for, AsId(5)));
  auto first = *g.router_of(ip("10.0.0.1"));
  EXPECT_TRUE(g.routers()[first].terminal_for.empty());
}

TEST(RouterGraph, StopSetTracesAreNotTerminal) {
  auto t = make_trace(AsId(5), "20.0.0.1", {{"10.0.0.1"}, {"10.0.0.2"}});
  t.stopped_by_stopset = true;
  std::vector<ObservedTrace> traces{std::move(t)};
  RouterGraph g(std::move(traces), {});
  auto last = *g.router_of(ip("10.0.0.2"));
  EXPECT_TRUE(g.routers()[last].terminal_for.empty());
}

TEST(RouterGraph, ReachedTracesAreNotTerminal) {
  std::vector<ObservedTrace> traces{make_trace(
      AsId(5), "20.0.0.1",
      {{"10.0.0.1"}, {"20.0.0.1", ReplyKind::kEchoReply}}, true)};
  RouterGraph g(std::move(traces), {});
  auto r0 = *g.router_of(ip("10.0.0.1"));
  EXPECT_TRUE(g.routers()[r0].terminal_for.empty());
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
  EXPECT_EQ(g.routers()[a].addrs.size(), 2u);
  EXPECT_TRUE(has(g.routers()[a].next, n));
  EXPECT_TRUE(has(g.routers()[n].prev, a));
  EXPECT_FALSE(has(g.routers()[n].prev, b));
  EXPECT_EQ(g.live_router_count(), 2u);
}

TEST(RouterGraph, HeuristicNamesAreStable) {
  EXPECT_STREQ(heuristic_name(Heuristic::kFirewall), "2. Firewall");
  EXPECT_STREQ(heuristic_name(Heuristic::kHiddenPeer), "5. Hidden peer");
  EXPECT_STREQ(heuristic_name(Heuristic::kSilent), "8. Silent neighbor");
}

}  // namespace
}  // namespace bdrmap::core
