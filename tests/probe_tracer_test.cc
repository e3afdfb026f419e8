// Traceroute semantics: each §4 idiosyncrasy in isolation on a hand-built
// topology. VP -> r1 (AS1) -> r2 (AS1 border) -> r3 (AS2 border) -> r4.
#include "probe/tracer.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/blocks.h"
#include "eval/scenario_registry.h"
#include "netbase/rng.h"
#include "route/bgp_sim.h"
#include "route/fib.h"
#include "runtime/multi_vp.h"
#include "test_support.h"

namespace bdrmap::probe {
namespace {

using net::AsId;
using net::RouterId;
using test::ip;

class TracerFixture : public ::testing::Test {
 protected:
  // Behaviour mutators run before the engines are built.
  void build() {
    bgp_ = std::make_unique<route::BgpSimulator>(m_.net());
    fib_ = std::make_unique<route::Fib>(m_.net(), *bgp_);
    topo::Vp vp{as1_, r1_, ip("10.0.255.1"), 0};
    engine_ = std::make_unique<TracerouteEngine>(m_.net(), *fib_, vp, 1);
  }

  TracerFixture() {
    as1_ = m_.add_as();
    as2_ = m_.add_as(topo::AsKind::kEnterprise);
    r1_ = m_.add_router(as1_);
    r2_ = m_.add_router(as1_);
    r3_ = m_.add_router(as2_);
    r4_ = m_.add_router(as2_);
    m_.net().truth_relationships().add_c2p(as2_, as1_);
    m_.link(topo::LinkKind::kInternal, as1_, r1_, ip("10.0.0.1"), r2_,
            ip("10.0.0.2"));
    m_.link(topo::LinkKind::kInterdomain, as1_, r2_, ip("10.0.1.1"), r3_,
            ip("10.0.1.2"));
    m_.link(topo::LinkKind::kInternal, as2_, r3_, ip("20.0.0.1"), r4_,
            ip("20.0.0.2"));
    m_.announce("10.0.0.0/16", as1_, r1_);
    m_.announce("20.0.0.0/16", as2_, r4_);
  }

  topo::RouterBehavior& behavior(RouterId r) {
    return m_.net().router_mutable(r).behavior;
  }

  test::MiniNet m_;
  AsId as1_, as2_;
  RouterId r1_, r2_, r3_, r4_;
  std::unique_ptr<route::BgpSimulator> bgp_;
  std::unique_ptr<route::Fib> fib_;
  std::unique_ptr<TracerouteEngine> engine_;
};

TEST_F(TracerFixture, ReportsIngressInterfaces) {
  build();
  auto t = engine_->trace(ip("20.0.5.5"));
  // r1 (canonical: no VP-side link), r2 (ingress 10.0.0.2),
  // r3 (ingress 10.0.1.2 = provider-assigned!), r4 (ingress 20.0.0.2),
  // then delivery at r4.
  ASSERT_GE(t.hops.size(), 4u);
  EXPECT_EQ(t.hops[0].addr, ip("10.0.0.1"));  // canonical of r1
  EXPECT_EQ(t.hops[1].addr, ip("10.0.0.2"));
  EXPECT_EQ(t.hops[2].addr, ip("10.0.1.2"));  // §4 challenge 1 in action
  EXPECT_EQ(t.hops[2].kind, ReplyKind::kTimeExceeded);
  EXPECT_EQ(t.hops[2].truth_router, r3_);
}

TEST_F(TracerFixture, DestinationEchoSourceIsProbedAddress) {
  build();
  auto t = engine_->trace(ip("20.0.0.2"));  // r4's interface
  ASSERT_FALSE(t.hops.empty());
  const auto& last = t.hops.back();
  EXPECT_EQ(last.kind, ReplyKind::kEchoReply);
  EXPECT_EQ(last.addr, ip("20.0.0.2"));
  EXPECT_TRUE(t.reached_dst);
}

TEST_F(TracerFixture, FirewallAnswersSelfButBlocksTransit) {
  behavior(r3_).firewall_edge = true;
  build();
  auto t = engine_->trace(ip("20.0.5.5"));
  // r3 responds with its provider-assigned ingress; r4 is never seen.
  ASSERT_EQ(t.hops.size(), 3u);
  EXPECT_EQ(t.hops.back().addr, ip("10.0.1.2"));
  EXPECT_FALSE(t.reached_dst);
  // But r3's own link address is reachable (delivered to self).
  auto t2 = engine_->trace(ip("10.0.1.2"));
  EXPECT_TRUE(t2.reached_dst);
}

TEST_F(TracerFixture, SilentRouterShowsAsStar) {
  behavior(r2_).make_silent();
  build();
  auto t = engine_->trace(ip("20.0.5.5"));
  ASSERT_GE(t.hops.size(), 3u);
  EXPECT_EQ(t.hops[1].kind, ReplyKind::kNone);
  EXPECT_EQ(t.hops[2].addr, ip("10.0.1.2"));  // path continues past it
}

TEST_F(TracerFixture, EchoOnlyRouterInvisibleInTrace) {
  behavior(r3_).sends_ttl_expired = false;
  build();
  auto t = engine_->trace(ip("20.0.5.5"));
  for (std::size_t i = 0; i + 1 < t.hops.size(); ++i) {
    EXPECT_NE(t.hops[i].addr, ip("10.0.1.2"));
  }
}

TEST_F(TracerFixture, VirtualRouterRepliesWithForwardingInterface) {
  behavior(r2_).reply_addr = topo::ReplyAddrPolicy::kVirtualRouter;
  build();
  auto t = engine_->trace(ip("20.0.5.5"));
  // r2 replies with the interface that would forward toward AS2: its side
  // of the interdomain link (10.0.1.1), not the ingress 10.0.0.2.
  ASSERT_GE(t.hops.size(), 2u);
  EXPECT_EQ(t.hops[1].addr, ip("10.0.1.1"));
}

TEST_F(TracerFixture, GapLimitStopsAfterConsecutiveSilence) {
  behavior(r2_).make_silent();
  behavior(r3_).make_silent();
  behavior(r4_).make_silent();
  build();
  TracerConfig config;
  config.gap_limit = 2;
  topo::Vp vp{as1_, r1_, ip("10.0.255.1"), 0};
  TracerouteEngine engine(m_.net(), *fib_, vp, 1, config);
  auto t = engine.trace(ip("20.0.5.5"));
  // r1 answers, then two stars, then the gap limit halts probing.
  EXPECT_EQ(t.hops.size(), 3u);
}

TEST_F(TracerFixture, StopSetTruncatesTrace) {
  build();
  auto t = engine_->trace(ip("20.0.5.5"), [&](net::Ipv4Addr a) {
    return a == ip("10.0.1.2");
  });
  EXPECT_TRUE(t.stopped_by_stopset);
  EXPECT_EQ(t.hops.back().addr, ip("10.0.1.2"));
  EXPECT_EQ(t.hops.size(), 3u);
}

// The rate-limit draw is keyed on (seed, destination, TTL): across 60
// destinations a router dropping half its replies answers some probes, and
// a destination traced again gets the same answer at every hop.
TEST_F(TracerFixture, RateLimitedRouterAnswersSometimes) {
  behavior(r2_).rate_limit_drop = 0.5;
  build();
  int answered = 0;
  for (std::uint32_t i = 0; i < 60; ++i) {
    const net::Ipv4Addr dst(ip("20.0.5.1").value() + i);
    auto t = engine_->trace(dst);
    if (t.hops.size() > 1 && t.hops[1].kind == ReplyKind::kTimeExceeded) {
      ++answered;
    }
    auto again = engine_->trace(dst);
    ASSERT_EQ(again.hops.size(), t.hops.size());
    for (std::size_t h = 0; h < t.hops.size(); ++h) {
      EXPECT_EQ(again.hops[h].kind, t.hops[h].kind) << dst.str() << " " << h;
      EXPECT_EQ(again.hops[h].addr, t.hops[h].addr) << dst.str() << " " << h;
    }
  }
  EXPECT_GT(answered, 5);
  EXPECT_LT(answered, 55);
}

TEST_F(TracerFixture, ProbesAreCounted) {
  build();
  auto before = engine_->probes_sent();
  engine_->trace(ip("20.0.5.5"));
  EXPECT_GT(engine_->probes_sent(), before);
}

TEST_F(TracerFixture, ReachesAddrRespectsFirewall) {
  behavior(r3_).firewall_edge = true;
  build();
  EXPECT_TRUE(engine_->reaches_addr(ip("10.0.1.2")));   // the border itself
  EXPECT_FALSE(engine_->reaches_addr(ip("20.0.0.2")));  // beyond it
}

// Third-party reply addresses (§4 challenge 2): the probed border's route
// back to the VP leaves via a third AS that supplied the link subnet, so
// the reply source maps to an AS that is on neither side of the forward
// path's interdomain link.
TEST(TracerThirdParty, EgressToSrcUsesThirdPartyAddress) {
  test::MiniNet m;
  auto as1 = m.add_as();  // VP network
  auto as2 = m.add_as();  // neighbor with the misbehaving border
  auto as3 = m.add_as();  // third party: as2's transit provider
  auto r1 = m.add_router(as1);
  auto r2 = m.add_router(as2);   // as2 border
  auto r2b = m.add_router(as2);  // as2 internal (hosts the destination)
  auto r3 = m.add_router(as3);
  auto& rels = m.net().truth_relationships();
  rels.add_p2p(as1, as2);
  rels.add_c2p(as2, as3);
  rels.add_c2p(as1, as3);
  topo::LinkId via3 = m.link(topo::LinkKind::kInterdomain, as3, r3,
                             ip("30.0.2.1"), r1, ip("30.0.2.2"));
  m.link(topo::LinkKind::kInterdomain, as1, r1, ip("10.0.1.1"), r2,
         ip("10.0.1.2"));
  m.link(topo::LinkKind::kInterdomain, as3, r3, ip("30.0.1.1"), r2,
         ip("30.0.1.2"));
  m.link(topo::LinkKind::kInternal, as2, r2, ip("20.0.0.1"), r2b,
         ip("20.0.0.2"));
  m.announce("10.0.0.0/16", as1, r1);
  m.announce("20.0.0.0/16", as2, r2b);
  m.announce("30.0.0.0/16", as3, r3);
  // The VP lives in a prefix as1 announces only over its as3 link, so
  // replies to the VP cannot use the direct as1-as2 peering.
  m.net().add_announced(
      {test::pfx("10.1.0.0/16"), as1, r1, {via3}, 1.0});
  // r2 sources replies from the interface transmitting them ([4]).
  m.net().router_mutable(r2).behavior.reply_addr =
      topo::ReplyAddrPolicy::kEgressToSrc;

  route::BgpSimulator bgp(m.net());
  route::Fib fib(m.net(), bgp);
  topo::Vp vp{as1, r1, ip("10.1.255.1"), 0};
  TracerouteEngine engine(m.net(), fib, vp, 1);
  auto t = engine.trace(ip("20.0.5.5"));
  // Forward: r1 -> r2 (peer link) -> r2b. r2's reply to the VP must leave
  // via as3, so its source is 30.0.1.2 — a third-party address: a naive
  // IP-AS reading would infer an as1-as3 interdomain link here.
  ASSERT_GE(t.hops.size(), 2u);
  EXPECT_EQ(t.hops[1].truth_router, r2);
  EXPECT_EQ(t.hops[1].addr, ip("30.0.1.2"));
}

// Every reply draw is keyed on (seed, destination, TTL), so a trace does
// not depend on what its stack traced before: one VP's destinations give
// the same hops on a stack of their own, in three shuffled orders on a
// fresh stack per order, and in all three orders on one shared stack.
// spoofed_source forges 1% of reply sources (TracerConfig::spoof_reply_p),
// so its spoof draws are checked too.
class TraceOrderTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TraceOrderTest, HopsIgnoreOrderAndStack) {
  auto s = eval::make_scenario(GetParam(), 42);
  ASSERT_NE(s, nullptr);
  const topo::Vp vp = s->vps_in(s->first_of(s->spec().vp_kind)).front();
  const core::InferenceInputs inputs = s->inputs_for(vp.as);
  const std::uint64_t seed = runtime::vp_seed(0x515, 0);
  std::vector<Ipv4Addr> dsts;
  for (const core::ProbeBlock& block :
       core::build_probe_blocks(*inputs.origins, inputs.vp_ases)) {
    dsts.push_back(Ipv4Addr(block.prefix.first().value() + 1));
  }
  ASSERT_GT(dsts.size(), 100u);

  using Hops = std::vector<std::tuple<ReplyKind, std::uint32_t, std::uint32_t>>;
  auto hops_of = [](const TraceResult& t) {
    Hops out;
    for (const TraceHop& h : t.hops) {
      out.emplace_back(h.kind, h.addr.value(), h.truth_router.value);
    }
    return out;
  };
  std::vector<Hops> want;
  std::size_t spoofed = 0;
  for (Ipv4Addr dst : dsts) {
    const TraceResult t = s->services_for(vp, seed)->trace(dst, nullptr);
    for (const TraceHop& h : t.hops) {
      // A forged source is a host address in the destination's /24.
      spoofed += h.kind == ReplyKind::kTimeExceeded &&
                 (h.addr.value() >> 8) == (dst.value() >> 8) &&
                 !s->net().iface_at(h.addr);
    }
    want.push_back(hops_of(t));
  }
  if (s->spec().adversary.spoof_reply_p > 0.0) {
    EXPECT_GT(spoofed, 0u);
  }

  auto shared = s->services_for(vp, seed);
  std::vector<std::size_t> order(dsts.size());
  std::iota(order.begin(), order.end(), 0);
  for (std::uint64_t round = 0; round < 3; ++round) {
    net::Rng(round).shuffle(order);
    auto fresh = s->services_for(vp, seed);
    std::size_t differ = 0;
    for (std::size_t i : order) {
      differ += hops_of(fresh->trace(dsts[i], nullptr)) != want[i];
      differ += hops_of(shared->trace(dsts[i], nullptr)) != want[i];
    }
    EXPECT_EQ(differ, 0u) << "order " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, TraceOrderTest,
                         ::testing::Values("small", "spoofed_source"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

}  // namespace
}  // namespace bdrmap::probe
