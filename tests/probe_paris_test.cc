// Paris traceroute over ECMP [2]: equal-cost paths are chosen per
// destination, so every probe of a trace follows one path.
#include <set>

#include <gtest/gtest.h>

#include "probe/tracer.h"
#include "route/bgp_sim.h"
#include "route/fib.h"
#include "test_support.h"

namespace bdrmap::probe {
namespace {

using net::AsId;
using net::RouterId;
using test::ip;

// A diamond of equal-cost internal paths:
//        r2
//  r1 <     > r4 --- r5(as2)
//        r3
class ParisFixture : public ::testing::Test {
 protected:
  ParisFixture() {
    as1_ = m_.add_as();
    as2_ = m_.add_as();
    r1_ = m_.add_router(as1_);
    r2_ = m_.add_router(as1_);
    r3_ = m_.add_router(as1_);
    r4_ = m_.add_router(as1_);
    r5_ = m_.add_router(as2_);
    m_.net().truth_relationships().add_c2p(as2_, as1_);
    auto link = [&](RouterId a, const char* aa, RouterId b, const char* ba) {
      m_.link(topo::LinkKind::kInternal, as1_, a, ip(aa), b, ip(ba));
    };
    link(r1_, "10.0.0.1", r2_, "10.0.0.2");
    link(r1_, "10.0.0.5", r3_, "10.0.0.6");
    link(r2_, "10.0.0.9", r4_, "10.0.0.10");
    link(r3_, "10.0.0.13", r4_, "10.0.0.14");
    m_.link(topo::LinkKind::kInterdomain, as1_, r4_, ip("10.0.1.1"), r5_,
            ip("10.0.1.2"));
    m_.announce("10.0.0.0/16", as1_, r1_);
    m_.announce("20.0.0.0/16", as2_, r5_);
    bgp_ = std::make_unique<route::BgpSimulator>(m_.net());
    fib_ = std::make_unique<route::Fib>(m_.net(), *bgp_);
  }

  TraceResult trace(const char* dst) {
    topo::Vp vp{as1_, r1_, ip("10.0.255.1"), 0};
    TracerouteEngine engine(m_.net(), *fib_, vp, 5);
    return engine.trace(ip(dst));
  }

  test::MiniNet m_;
  AsId as1_, as2_;
  RouterId r1_, r2_, r3_, r4_, r5_;
  std::unique_ptr<route::BgpSimulator> bgp_;
  std::unique_ptr<route::Fib> fib_;
};

TEST_F(ParisFixture, EcmpAlternativesExist) {
  // The FIB records an equal-cost alternative from r1 toward r4, and the
  // per-destination hash takes it: across the diamond's destinations, r1
  // forwards via both r2 and r3.
  std::set<std::uint32_t> next;
  for (std::uint32_t d = 1; d < 32; ++d) {
    const net::Ipv4Addr dst(ip("20.0.5.0").value() + d);
    auto h = fib_->next_hop(r1_, fib_->query(dst));
    ASSERT_TRUE(h.has_value());
    next.insert(h->router.value);
  }
  EXPECT_EQ(next, (std::set<std::uint32_t>{r2_.value, r3_.value}));
}

TEST_F(ParisFixture, ParisPathIsFlowStable) {
  auto a = trace("20.0.5.5");
  auto b = trace("20.0.5.5");
  ASSERT_EQ(a.hops.size(), b.hops.size());
  for (std::size_t i = 0; i < a.hops.size(); ++i) {
    EXPECT_EQ(a.hops[i].truth_router, b.hops[i].truth_router) << i;
  }
  // Paris visits exactly one arm of the diamond.
  std::set<std::uint32_t> mids;
  for (const auto& hop : a.hops) {
    if (hop.truth_router == r2_ || hop.truth_router == r3_) {
      mids.insert(hop.truth_router.value);
    }
  }
  EXPECT_EQ(mids.size(), 1u);
}

}  // namespace
}  // namespace bdrmap::probe
