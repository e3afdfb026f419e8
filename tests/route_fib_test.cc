// Router-level forwarding: delivery, interdomain crossing, hot potato,
// selective announcement, and whole-Internet reachability properties.
#include "route/fib.h"

#include <gtest/gtest.h>

#include "route/collectors.h"
#include "test_support.h"
#include "topo/generator.h"

namespace bdrmap::route {
namespace {

using net::AsId;
using net::RouterId;
using test::ip;

// AS1 (provider): r1a --- r1b ; AS2 (customer): r2, link from r1b.
class FibFixture : public ::testing::Test {
 protected:
  FibFixture() {
    as1_ = m_.add_as();
    as2_ = m_.add_as();
    r1a_ = m_.add_router(as1_);
    r1b_ = m_.add_router(as1_);
    r2_ = m_.add_router(as2_);
    m_.net().truth_relationships().add_c2p(as2_, as1_);
    m_.link(topo::LinkKind::kInternal, as1_, r1a_, ip("10.0.0.1"), r1b_,
            ip("10.0.0.2"));
    // Provider AS1 supplies the interdomain /30.
    m_.link(topo::LinkKind::kInterdomain, as1_, r1b_, ip("10.0.1.1"), r2_,
            ip("10.0.1.2"));
    m_.announce("10.0.0.0/16", as1_, r1a_);
    m_.announce("20.0.0.0/16", as2_, r2_);
    bgp_ = std::make_unique<BgpSimulator>(m_.net());
    fib_ = std::make_unique<Fib>(m_.net(), *bgp_);
  }

  Fib::RouteQuery q(const char* dst) const { return fib_->query(ip(dst)); }

  test::MiniNet m_;
  AsId as1_, as2_;
  RouterId r1a_, r1b_, r2_;
  std::unique_ptr<BgpSimulator> bgp_;
  std::unique_ptr<Fib> fib_;
};

TEST_F(FibFixture, InternalStepTowardHostPrefix) {
  auto hop = fib_->next_hop(r1b_, q("10.0.5.5"));
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->router, r1a_);
  EXPECT_FALSE(hop->crossed_interdomain);
  EXPECT_TRUE(fib_->delivered_at(r1a_, q("10.0.5.5")));
}

TEST_F(FibFixture, CrossesInterdomainTowardCustomer) {
  auto hop1 = fib_->next_hop(r1a_, q("20.0.1.1"));
  ASSERT_TRUE(hop1.has_value());
  EXPECT_EQ(hop1->router, r1b_);
  auto hop2 = fib_->next_hop(r1b_, q("20.0.1.1"));
  ASSERT_TRUE(hop2.has_value());
  EXPECT_EQ(hop2->router, r2_);
  EXPECT_TRUE(hop2->crossed_interdomain);
  // Ingress interface on the far router is its side of the /30.
  EXPECT_EQ(m_.net().iface(hop2->ingress).addr, ip("10.0.1.2"));
  EXPECT_TRUE(fib_->delivered_at(r2_, q("20.0.1.1")));
}

TEST_F(FibFixture, FarSideLinkAddressRoutesViaSupplier) {
  // 10.0.1.2 sits on r2 (customer) but is provider-supplied: from r1a the
  // packet routes internally to r1b and crosses.
  auto hop1 = fib_->next_hop(r1a_, q("10.0.1.2"));
  ASSERT_TRUE(hop1.has_value());
  EXPECT_EQ(hop1->router, r1b_);
  auto hop2 = fib_->next_hop(r1b_, q("10.0.1.2"));
  ASSERT_TRUE(hop2.has_value());
  EXPECT_EQ(hop2->router, r2_);
  EXPECT_TRUE(hop2->crossed_interdomain);
  EXPECT_TRUE(fib_->delivered_at(r2_, q("10.0.1.2")));
  EXPECT_FALSE(fib_->delivered_at(r1b_, q("10.0.1.2")));
}

TEST_F(FibFixture, CustomerRoutesUpToProvider) {
  auto hop = fib_->next_hop(r2_, q("10.0.5.5"));
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->router, r1b_);
  EXPECT_TRUE(hop->crossed_interdomain);
}

TEST_F(FibFixture, NoRouteForUnannouncedSpace) {
  EXPECT_FALSE(fib_->next_hop(r1a_, q("99.0.0.1")).has_value());
  EXPECT_FALSE(fib_->delivered_at(r1a_, q("99.0.0.1")));
}

TEST_F(FibFixture, EgressIfaceReported) {
  auto out = fib_->egress_iface(r1b_, q("20.0.1.1"));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(m_.net().iface(*out).addr, ip("10.0.1.1"));
}

TEST_F(FibFixture, IgpDistanceSymmetricWithinAs) {
  EXPECT_EQ(fib_->igp_distance(r1a_, r1b_), fib_->igp_distance(r1b_, r1a_));
  EXPECT_EQ(fib_->igp_distance(r1a_, r1a_), 0.0);
  EXPECT_TRUE(std::isinf(fib_->igp_distance(r1a_, r2_)));
}

TEST_F(FibFixture, SessionsIndexedBothWays) {
  EXPECT_EQ(fib_->sessions_of(as1_).size(), 1u);
  EXPECT_EQ(fib_->sessions_of(as2_).size(), 1u);
  EXPECT_TRUE(fib_->sessions_of(AsId(99)).empty());
}

// Whole-Internet properties over the generator.
class FibProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FibProperty, EveryAnnouncedPrefixReachableFromVpsWithoutLoops) {
  topo::GeneratorConfig config;
  config.seed = GetParam();
  config.num_transit = 16;
  config.num_enterprise = 80;
  auto gen = topo::generate(config);
  BgpSimulator bgp(gen.net);
  Fib fib(gen.net, bgp);
  ASSERT_FALSE(gen.vps.empty());
  const auto& vp = gen.vps.front();
  std::size_t checked = 0;
  for (const auto& ap : gen.net.announced()) {
    if (gen.net.as_info(ap.origin).kind == topo::AsKind::kIxpOperator) {
      continue;
    }
    net::Ipv4Addr dst(ap.prefix.first().value() + 1);
    const Fib::RouteQuery q = fib.query(dst);
    RouterId cur = vp.attach_router;
    bool delivered = false;
    for (int i = 0; i < 64; ++i) {
      if (fib.delivered_at(cur, q)) {
        delivered = true;
        break;
      }
      auto hop = fib.next_hop(cur, q);
      if (!hop) break;
      cur = hop->router;
    }
    EXPECT_TRUE(delivered) << "unreachable " << dst.str() << " origin "
                           << ap.origin.str();
    ++checked;
  }
  EXPECT_GT(checked, 100u);
}

TEST_P(FibProperty, HotPotatoPicksNearestEgress) {
  topo::GeneratorConfig config;
  config.seed = GetParam();
  config.num_transit = 16;
  config.num_enterprise = 80;
  auto gen = topo::generate(config);
  BgpSimulator bgp(gen.net);
  Fib fib(gen.net, bgp);

  // Featured access network and its Tier-1 peer have ~45 sessions; for
  // each VP, trace toward a prefix of the Tier-1 and record the egress:
  // no other session to that peer may be strictly closer.
  net::AsId access, tier1;
  for (const auto& info : gen.net.ases()) {
    if (info.kind == topo::AsKind::kAccess && !access.valid()) {
      access = info.id;
    }
    if (info.kind == topo::AsKind::kTier1 && !tier1.valid()) tier1 = info.id;
  }
  auto t1_prefixes = gen.net.truth_origins().prefixes_of(tier1);
  ASSERT_FALSE(t1_prefixes.empty());
  const Fib::RouteQuery q =
      fib.query(net::Ipv4Addr(t1_prefixes.front().first().value() + 1));

  for (const auto& vp : gen.vps) {
    if (vp.as != access) continue;
    RouterId cur = vp.attach_router;
    RouterId egress;
    for (int i = 0; i < 64; ++i) {
      auto hop = fib.next_hop(cur, q);
      if (!hop) break;
      if (hop->crossed_interdomain) {
        egress = cur;
        break;
      }
      cur = hop->router;
    }
    if (!egress.valid()) continue;
    double chosen = fib.igp_distance(vp.attach_router, egress);
    for (const auto& s : fib.sessions_of(access)) {
      if (s.far_as != tier1) continue;
      EXPECT_LE(chosen, fib.igp_distance(vp.attach_router, s.near_router) +
                            1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FibProperty, ::testing::Values(3, 21, 77));

}  // namespace
}  // namespace bdrmap::route
