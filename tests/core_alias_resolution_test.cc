// Ally/MIDAR/Mercator/prefixscan and the conflict-aware closure (§5.3),
// driven against real simulated routers via LocalProbeServices.
#include "core/alias_resolution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <vector>

#include "probe/alias.h"
#include "route/bgp_sim.h"
#include "route/fib.h"
#include "test_support.h"

namespace bdrmap::core {
namespace {

using net::RouterId;
using test::ip;

class AliasResolutionFixture : public ::testing::Test {
 protected:
  AliasResolutionFixture() {
    as1_ = m_.add_as();
    r1_ = m_.add_router(as1_);  // VP attach
    r2_ = m_.add_router(as1_);  // multi-interface router under test
    r3_ = m_.add_router(as1_);  // second router
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
    services_ = std::make_unique<probe::LocalProbeServices>(m_.net(), *fib_,
                                                            vp, 99);
    resolver_ = std::make_unique<AliasResolver>(*services_);
  }

  topo::RouterBehavior& behavior(RouterId r) {
    return m_.net().router_mutable(r).behavior;
  }

  test::MiniNet m_;
  net::AsId as1_;
  RouterId r1_, r2_, r3_;
  std::unique_ptr<route::BgpSimulator> bgp_;
  std::unique_ptr<route::Fib> fib_;
  std::unique_ptr<probe::LocalProbeServices> services_;
  std::unique_ptr<AliasResolver> resolver_;
};

TEST_F(AliasResolutionFixture, AllyConfirmsSharedCounterAliases) {
  behavior(r2_).ipid = topo::IpidKind::kSharedCounter;
  behavior(r2_).responds_udp = false;  // force the Ally path
  behavior(r2_).ipid_velocity = 30.0;
  build();
  EXPECT_EQ(resolver_->ally(ip("10.0.0.2"), ip("10.0.0.5")),
            AliasVerdict::kAlias);
}

TEST_F(AliasResolutionFixture, AllyRejectsDistinctRouters) {
  behavior(r2_).ipid = topo::IpidKind::kSharedCounter;
  behavior(r3_).ipid = topo::IpidKind::kSharedCounter;
  behavior(r2_).ipid_velocity = 30.0;
  behavior(r3_).ipid_velocity = 95.0;
  build();
  // Different central counters: some round violates monotonicity.
  EXPECT_EQ(resolver_->ally(ip("10.0.0.2"), ip("10.0.0.6")),
            AliasVerdict::kNotAlias);
}

TEST_F(AliasResolutionFixture, AllyUnknownForZeroIpid) {
  behavior(r2_).ipid = topo::IpidKind::kZero;
  build();
  EXPECT_EQ(resolver_->ally(ip("10.0.0.2"), ip("10.0.0.5")),
            AliasVerdict::kUnknown);
}

TEST_F(AliasResolutionFixture, AllyUnknownWhenUnresponsive) {
  behavior(r2_).responds_echo = false;
  build();
  EXPECT_EQ(resolver_->ally(ip("10.0.0.2"), ip("10.0.0.5")),
            AliasVerdict::kUnknown);
}

TEST_F(AliasResolutionFixture, AllyRejectsPerInterfaceCounters) {
  behavior(r2_).ipid = topo::IpidKind::kPerInterface;
  build();
  // Same router, but per-interface counters look like distinct routers:
  // the alias is missed (kNotAlias or kUnknown), not falsely confirmed.
  EXPECT_NE(resolver_->ally(ip("10.0.0.2"), ip("10.0.0.5")),
            AliasVerdict::kAlias);
}

TEST_F(AliasResolutionFixture, MercatorConfirmsAndRefutes) {
  build();
  EXPECT_EQ(resolver_->mercator(ip("10.0.0.2"), ip("10.0.0.5")),
            AliasVerdict::kAlias);
  EXPECT_EQ(resolver_->mercator(ip("10.0.0.2"), ip("10.0.0.6")),
            AliasVerdict::kNotAlias);
}

TEST_F(AliasResolutionFixture, MercatorUnknownWithoutUdp) {
  behavior(r2_).responds_udp = false;
  build();
  EXPECT_EQ(resolver_->mercator(ip("10.0.0.2"), ip("10.0.0.5")),
            AliasVerdict::kUnknown);
}

TEST_F(AliasResolutionFixture, TestPairCachesResults) {
  build();
  resolver_->test_pair(ip("10.0.0.2"), ip("10.0.0.5"));
  auto count = resolver_->pair_tests();
  resolver_->test_pair(ip("10.0.0.5"), ip("10.0.0.2"));  // reversed order
  EXPECT_EQ(resolver_->pair_tests(), count);
}

TEST_F(AliasResolutionFixture, PrefixscanFindsSubnetMate) {
  // r2 -- r3 via 10.0.0.5/10.0.0.6 (a /30-compatible pair): probing the
  // path r2 -> r3, the /31 mate of r3's ingress (10.0.0.6) is 10.0.0.7...
  // which doesn't exist; but mate30(10.0.0.6) = 10.0.0.5 on r2. Prefixscan
  // must identify it as an alias of the previous hop (r2's 10.0.0.2).
  build();
  auto mate = resolver_->prefixscan(ip("10.0.0.2"), ip("10.0.0.6"));
  ASSERT_TRUE(mate.has_value());
  EXPECT_EQ(*mate, ip("10.0.0.5"));
}

TEST_F(AliasResolutionFixture, PrefixscanNoMateForDistinctRouter) {
  build();
  // Previous hop on r1; 10.0.0.6's mates are on r2 — not aliases of r1.
  auto mate = resolver_->prefixscan(ip("10.0.0.1"), ip("10.0.0.6"));
  EXPECT_FALSE(mate.has_value());
}

TEST_F(AliasResolutionFixture, GroupsHonorNegativeEvidence) {
  build();
  // .2-.5 and .5-.6 are aliases, but negative evidence between the
  // transitive endpoints vetoes the second union. Positives unite in
  // ascending pair_key order, so .2-.5 unites first in every declare order.
  struct Declared {
    Ipv4Addr a, b;
    AliasVerdict v;
  };
  std::vector<Declared> triangle = {
      {ip("10.0.0.2"), ip("10.0.0.5"), AliasVerdict::kAlias},
      {ip("10.0.0.5"), ip("10.0.0.6"), AliasVerdict::kAlias},
      {ip("10.0.0.2"), ip("10.0.0.6"), AliasVerdict::kNotAlias},
  };
  const AliasGroups want = {{ip("10.0.0.2"), ip("10.0.0.5")},
                            {ip("10.0.0.6")}};
  std::vector<std::size_t> order = {0, 1, 2};
  do {
    AliasResolver r(*services_);
    for (std::size_t i : order) {
      r.declare(triangle[i].a, triangle[i].b, triangle[i].v);
    }
    EXPECT_EQ(r.groups({ip("10.0.0.6"), ip("10.0.0.5"), ip("10.0.0.2")}),
              want)
        << "declare order " << order[0] << order[1] << order[2];
  } while (std::next_permutation(order.begin(), order.end()));

  // Seeded random verdict sets over twelve addresses, mostly positive so
  // that vetoes compete, declared in shuffled orders: the groups depend on
  // the verdicts alone.
  std::mt19937_64 rng(20161114);
  for (int round = 0; round < 40; ++round) {
    std::vector<Ipv4Addr> addrs;
    for (std::uint32_t i = 0; i < 12; ++i) {
      addrs.push_back(Ipv4Addr(ip("10.1.0.0").value() + i));
    }
    std::vector<Declared> verdicts;
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      for (std::size_t j = i + 1; j < addrs.size(); ++j) {
        const std::uint64_t roll = rng() % 8;
        if (roll < 4) {
          verdicts.push_back({addrs[i], addrs[j],
                              roll < 3 ? AliasVerdict::kAlias
                                       : AliasVerdict::kNotAlias});
        }
      }
    }
    AliasGroups first;
    for (int shuffle = 0; shuffle < 6; ++shuffle) {
      std::shuffle(verdicts.begin(), verdicts.end(), rng);
      std::vector<Ipv4Addr> listed = addrs;
      std::shuffle(listed.begin(), listed.end(), rng);
      AliasResolver r(*services_);
      for (const Declared& d : verdicts) {
        // Either address order names the same pair.
        if (rng() & 1) {
          r.declare(d.a, d.b, d.v);
        } else {
          r.declare(d.b, d.a, d.v);
        }
      }
      auto groups = r.groups(listed);
      if (shuffle == 0) {
        first = std::move(groups);
      } else {
        ASSERT_EQ(groups, first) << "round " << round << ", shuffle "
                                 << shuffle;
      }
    }
  }
}

TEST_F(AliasResolutionFixture, GroupsTransitiveClosureWithoutConflicts) {
  build();
  AliasResolver r(*services_);
  r.declare(ip("10.0.0.2"), ip("10.0.0.5"), AliasVerdict::kAlias);
  r.declare(ip("10.0.0.5"), ip("10.0.0.9"), AliasVerdict::kAlias);
  auto groups =
      r.groups({ip("10.0.0.2"), ip("10.0.0.5"), ip("10.0.0.9"),
                ip("10.0.0.6")});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].size(), 3u);  // the closed triple
  EXPECT_EQ(groups[1].size(), 1u);  // the singleton
}

TEST_F(AliasResolutionFixture, EndToEndPairTestOnRealRouters) {
  behavior(r2_).ipid = topo::IpidKind::kSharedCounter;
  behavior(r2_).ipid_velocity = 25.0;
  build();
  EXPECT_EQ(resolver_->test_pair(ip("10.0.0.2"), ip("10.0.0.5")),
            AliasVerdict::kAlias);
  EXPECT_EQ(resolver_->test_pair(ip("10.0.0.2"), ip("10.0.0.6")),
            AliasVerdict::kNotAlias);
  auto groups = resolver_->groups(
      {ip("10.0.0.2"), ip("10.0.0.5"), ip("10.0.0.6"), ip("10.0.0.10")});
  // r2's two addresses merge; r3's stay separate.
  bool found_pair = false;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const std::span<const Ipv4Addr> g = groups[i];
    if (g.size() == 2) {
      EXPECT_EQ(g[0], ip("10.0.0.2"));
      EXPECT_EQ(g[1], ip("10.0.0.5"));
      found_pair = true;
    }
  }
  EXPECT_TRUE(found_pair);
}

}  // namespace
}  // namespace bdrmap::core
