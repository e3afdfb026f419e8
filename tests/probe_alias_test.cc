// IP-ID counter models and Mercator UDP behaviour (the raw material for
// §5.3's alias resolution).
#include "probe/alias.h"

#include <gtest/gtest.h>

#include "route/bgp_sim.h"
#include "route/fib.h"
#include "test_support.h"

namespace bdrmap::probe {
namespace {

using net::RouterId;
using test::ip;

class AliasProbeFixture : public ::testing::Test {
 protected:
  AliasProbeFixture() {
    as1_ = m_.add_as();
    r1_ = m_.add_router(as1_);
    r2_ = m_.add_router(as1_);
    r3_ = m_.add_router(as1_);
    m_.link(topo::LinkKind::kInternal, as1_, r1_, ip("10.0.0.1"), r2_,
            ip("10.0.0.2"));
    m_.link(topo::LinkKind::kInternal, as1_, r2_, ip("10.0.0.5"), r3_,
            ip("10.0.0.6"));
    m_.link(topo::LinkKind::kInternal, as1_, r1_, ip("10.0.0.9"), r3_,
            ip("10.0.0.10"));
    m_.announce("10.0.0.0/16", as1_, r1_);
  }

  void build() {
    bgp_ = std::make_unique<route::BgpSimulator>(m_.net());
    fib_ = std::make_unique<route::Fib>(m_.net(), *bgp_);
    topo::Vp vp{as1_, r1_, ip("10.0.255.1"), 0};
    services_ =
        std::make_unique<LocalProbeServices>(m_.net(), *fib_, vp, 77);
  }

  topo::RouterBehavior& behavior(RouterId r) {
    return m_.net().router_mutable(r).behavior;
  }

  test::MiniNet m_;
  net::AsId as1_;
  RouterId r1_, r2_, r3_;
  std::unique_ptr<route::BgpSimulator> bgp_;
  std::unique_ptr<route::Fib> fib_;
  std::unique_ptr<LocalProbeServices> services_;
};

TEST_F(AliasProbeFixture, SharedCounterInterleavesMonotonically) {
  behavior(r2_).ipid = topo::IpidKind::kSharedCounter;
  behavior(r2_).ipid_velocity = 50.0;
  build();
  // Samples across r2's two interfaces from one counter must increase.
  std::vector<std::uint16_t> ids;
  double t = 0.0;
  for (int i = 0; i < 8; ++i) {
    auto id = services_->ipid_sample(
        (i % 2 == 0) ? ip("10.0.0.2") : ip("10.0.0.5"), t);
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
    t += 0.5;
  }
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_GT(ids[i], ids[i - 1]);
  }
}

TEST_F(AliasProbeFixture, PerInterfaceCountersDiverge) {
  behavior(r2_).ipid = topo::IpidKind::kPerInterface;
  build();
  auto a = services_->ipid_sample(ip("10.0.0.2"), 0.0);
  auto b = services_->ipid_sample(ip("10.0.0.5"), 0.5);
  ASSERT_TRUE(a && b);
  // Different interface counters: nearly always far apart.
  int gap = std::abs(static_cast<int>(*a) - static_cast<int>(*b));
  EXPECT_GT(gap, 100);
}

TEST_F(AliasProbeFixture, ZeroIpidAlwaysZero) {
  behavior(r2_).ipid = topo::IpidKind::kZero;
  build();
  for (int i = 0; i < 4; ++i) {
    auto id = services_->ipid_sample(ip("10.0.0.2"), i * 0.5);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(*id, 0);
  }
}

TEST_F(AliasProbeFixture, RandomIpidNotMonotone) {
  behavior(r2_).ipid = topo::IpidKind::kRandom;
  build();
  std::vector<std::uint16_t> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(*services_->ipid_sample(ip("10.0.0.2"), i * 0.5));
  }
  bool monotone = true;
  for (std::size_t i = 1; i < ids.size(); ++i) {
    monotone &= ids[i] > ids[i - 1];
  }
  EXPECT_FALSE(monotone);
}

TEST_F(AliasProbeFixture, UnresponsiveEchoYieldsNoSample) {
  behavior(r2_).responds_echo = false;
  build();
  EXPECT_FALSE(services_->ipid_sample(ip("10.0.0.2"), 0.0).has_value());
}

TEST_F(AliasProbeFixture, MercatorSharesSourceAcrossInterfaces) {
  build();
  auto s1 = services_->udp_probe(ip("10.0.0.5"));
  auto s2 = services_->udp_probe(ip("10.0.0.6"));
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(s2.has_value());
  // Both of r2's / r3's addresses reply from each router's egress toward
  // the VP — same source per router, different across routers.
  auto s1b = services_->udp_probe(ip("10.0.0.2"));
  ASSERT_TRUE(s1b.has_value());
  EXPECT_EQ(*s1, *s1b);   // both on r2
  EXPECT_NE(*s1, *s2);    // r2 vs r3
}

TEST_F(AliasProbeFixture, UdpUnresponsiveRouter) {
  behavior(r2_).responds_udp = false;
  build();
  EXPECT_FALSE(services_->udp_probe(ip("10.0.0.2")).has_value());
}

TEST_F(AliasProbeFixture, UdpToHostAddressHasNoRouterReply) {
  build();
  EXPECT_FALSE(services_->udp_probe(ip("10.0.50.50")).has_value());
}

TEST_F(AliasProbeFixture, ProbeCountsAccumulate) {
  build();
  auto before = services_->probes_sent();
  services_->udp_probe(ip("10.0.0.2"));
  services_->ipid_sample(ip("10.0.0.2"), 0.0);
  services_->trace(ip("10.0.0.6"), nullptr);
  EXPECT_GE(services_->probes_sent(), before + 3);
}

// An alias test's replies are a pure function of (seed, key) and its own
// samples: the same key answers the same series after any other probing,
// which is what lets one pair's verdict be kept and reused.
TEST_F(AliasProbeFixture, AliasTestKeyFixesTheReplies) {
  behavior(r2_).ipid = topo::IpidKind::kSharedCounter;  // reply counts
  behavior(r2_).ipid_velocity = 50.0;
  behavior(r3_).ipid = topo::IpidKind::kRandom;  // keyed random IDs
  behavior(r3_).rate_limit_drop = 0.3;           // keyed drops
  build();
  auto series = [&](std::uint64_t key) {
    services_->begin_alias_test(key);
    std::vector<std::int64_t> out;
    double t = 0.0;
    for (int i = 0; i < 12; ++i) {
      for (const char* addr : {"10.0.0.2", "10.0.0.5", "10.0.0.6"}) {
        const auto id = services_->ipid_sample(ip(addr), t);
        out.push_back(id ? static_cast<std::int64_t>(*id) : -1);
      }
      t += 0.5;
    }
    return out;
  };
  const std::vector<std::int64_t> first = series(7);
  EXPECT_NE(series(8), first);  // the key does select the draws
  for (int i = 0; i < 5; ++i) {
    (void)services_->ipid_sample(ip("10.0.0.5"), 100.0 + i);
  }
  EXPECT_EQ(series(7), first);
}

}  // namespace
}  // namespace bdrmap::probe
