// Valley-free BGP route computation on hand-built AS graphs, against a
// brute-force oracle on random graphs, across relationship churn, and
// under concurrent cold fills.
#include "route/bgp_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/scenario.h"
#include "netbase/rng.h"
#include "test_support.h"

namespace bdrmap::route {
namespace {

using net::AsId;
using asdata::Relationship;

// Builds:            1 --- 2        (tier-1 clique, p2p)
//                    /|      |
//                   3 4      5      (transit customers)
//                  /   |    / |
//                 6    7   8  9     (stubs; 7 also buys from 5)
class BgpFixture : public ::testing::Test {
 protected:
  BgpFixture() {
    for (int i = 0; i < 9; ++i) {
      m_.add_as();
    }
    auto& rels = m_.net().truth_relationships();
    rels.add_p2p(AsId(1), AsId(2));
    rels.add_c2p(AsId(3), AsId(1));
    rels.add_c2p(AsId(4), AsId(1));
    rels.add_c2p(AsId(5), AsId(2));
    rels.add_c2p(AsId(6), AsId(3));
    rels.add_c2p(AsId(7), AsId(4));
    rels.add_c2p(AsId(7), AsId(5));
    rels.add_c2p(AsId(8), AsId(5));
    rels.add_c2p(AsId(9), AsId(5));
    bgp_ = std::make_unique<BgpSimulator>(m_.net());
  }

  test::MiniNet m_;
  std::unique_ptr<BgpSimulator> bgp_;
};

TEST_F(BgpFixture, SelfRoute) {
  auto r = bgp_->route(AsId(3), AsId(3));
  EXPECT_EQ(r.cls, RouteClass::kSelf);
}

TEST_F(BgpFixture, CustomerRoutePreferred) {
  // 1 reaches 7 via customer 4 (down-down), not via peer 2.
  auto r = bgp_->route(AsId(1), AsId(7));
  EXPECT_EQ(r.cls, RouteClass::kCustomer);
  EXPECT_EQ(r.dist, 2);
}

TEST_F(BgpFixture, PeerRouteWhenNoCustomerRoute) {
  // 1 -> 8: 8 is only under 5 (under peer 2): peer route 1-2-5-8.
  auto r = bgp_->route(AsId(1), AsId(8));
  EXPECT_EQ(r.cls, RouteClass::kPeer);
  EXPECT_EQ(r.dist, 3);
}

TEST_F(BgpFixture, ProviderRouteForStubs) {
  // 6 -> 8 climbs 6-3-1 then peer 2 then down: provider class from 6.
  auto r = bgp_->route(AsId(6), AsId(8));
  EXPECT_EQ(r.cls, RouteClass::kProvider);
}

TEST_F(BgpFixture, ValleyFreePathsOnly) {
  // 6 and 8 communicate via the clique; the path must not transit 7
  // (a customer) sideways.
  auto path = bgp_->as_path(AsId(6), AsId(8));
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), AsId(6));
  EXPECT_EQ(path.back(), AsId(8));
  const auto& rels = m_.net().truth_relationships();
  // Check valley-freedom: once we go down or across, never up again.
  bool descended = false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    auto rel = rels.rel(path[i], path[i + 1]);
    ASSERT_NE(rel, asdata::Relationship::kNone);
    if (rel == asdata::Relationship::kProvider) {
      EXPECT_FALSE(descended) << "climbed after descending";
    } else {
      descended = true;
    }
  }
}

TEST_F(BgpFixture, MultihomedStubReachableBothWays) {
  // 7 buys from 4 and 5; 1 reaches it via customer 4.
  auto tiers = bgp_->candidate_tiers(AsId(1), AsId(7));
  ASSERT_FALSE(tiers.empty());
  ASSERT_EQ(tiers[0].size(), 1u);
  EXPECT_EQ(tiers[0][0], AsId(4));
}

TEST_F(BgpFixture, CandidateTiersOrderedByPreference) {
  // From 7: dst 9 (sibling customer of 5). Customer route: none.
  // 7's providers 4 and 5; 5 reaches 9 via customer (dist 1).
  auto tiers = bgp_->candidate_tiers(AsId(7), AsId(9));
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers[0][0], AsId(5));
}

TEST_F(BgpFixture, TiersIncludeProviderFallback) {
  // From 1 toward 8 the best is the peer tier; a provider tier must not
  // exist (tier-1 has no providers).
  auto tiers = bgp_->candidate_tiers(AsId(1), AsId(8));
  ASSERT_EQ(tiers.size(), 1u);
  EXPECT_EQ(tiers[0][0], AsId(2));
}

TEST_F(BgpFixture, UnreachableWithoutAnyRelationshipPath) {
  test::MiniNet isolated;
  isolated.add_as();
  isolated.add_as();
  BgpSimulator bgp(isolated.net());
  EXPECT_FALSE(bgp.reachable(AsId(1), AsId(2)));
  EXPECT_TRUE(bgp.as_path(AsId(1), AsId(2)).empty());
}

TEST_F(BgpFixture, PathsAreDeterministic) {
  auto p1 = bgp_->as_path(AsId(6), AsId(9));
  auto p2 = bgp_->as_path(AsId(6), AsId(9));
  EXPECT_EQ(p1, p2);
}

TEST_F(BgpFixture, PeerDoesNotExportPeerRoutes) {
  // 3 must not reach 5's customers via 1's *peer* route being re-exported
  // upward... it can: 3 -> 1 (provider) -> 2 (peer of 1)? No: 1 exports
  // peer-learned routes only to customers — 3 IS a customer of 1, so the
  // route is valid, class provider from 3's view.
  auto r = bgp_->route(AsId(3), AsId(8));
  EXPECT_EQ(r.cls, RouteClass::kProvider);
  auto path = bgp_->as_path(AsId(3), AsId(8));
  std::vector<AsId> want{AsId(3), AsId(1), AsId(2), AsId(5), AsId(8)};
  EXPECT_EQ(path, want);
}

// --- Brute-force valley-free oracle ---------------------------------------

constexpr std::uint16_t kNo = 0xffff;

// Reference answers for one destination, from the relationship store alone:
// a reverse BFS over (AS, valley-free phase) states. In phase kUp an AS may
// still climb to a provider, cross to a peer or descend to a customer; after
// a peer or customer edge (kDown) it may only descend. An AS prefers
// customer over peer over provider routes and shortest within a class, and
// advertises its shortest valley-free route to its customers. ASes are
// numbered 1..n (test::MiniNet).
class ValleyFreeOracle {
 public:
  enum Phase { kUp, kDown };

  struct Best {
    RouteClass cls = RouteClass::kNone;
    std::uint16_t dist = 0;
    std::vector<AsId> tier0;  // the tied next hops, ascending
  };

  ValleyFreeOracle(const asdata::RelationshipStore& rels, std::uint32_t n,
                   AsId dst)
      : rels_(rels), n_(n), dst_(dst) {
    std::deque<std::pair<std::uint32_t, Phase>> queue;
    for (Phase ph : {kUp, kDown}) {
      dist_[ph].assign(n + 1, kNo);
      dist_[ph][dst.value] = 0;
      queue.emplace_back(dst.value, ph);
    }
    while (!queue.empty()) {
      auto [y, ph] = queue.front();
      queue.pop_front();
      const auto d = static_cast<std::uint16_t>(dist_[ph][y] + 1);
      auto reach = [&](std::uint32_t x, Phase from) {
        if (dist_[from][x] != kNo) return;
        dist_[from][x] = d;
        queue.emplace_back(x, from);
      };
      for (std::uint32_t x = 1; x <= n; ++x) {
        const Relationship r = rels.rel(AsId(x), AsId(y));  // y seen from x
        if (ph == kUp && r == Relationship::kProvider) reach(x, kUp);
        if (ph == kDown &&
            (r == Relationship::kPeer || r == Relationship::kCustomer)) {
          reach(x, kUp);
        }
        if (ph == kDown && r == Relationship::kCustomer) reach(x, kDown);
      }
    }
  }

  Best best(AsId src) const {
    if (src == dst_) return {RouteClass::kSelf, 0, {}};
    const std::pair<RouteClass, Relationship> classes[] = {
        {RouteClass::kCustomer, Relationship::kCustomer},
        {RouteClass::kPeer, Relationship::kPeer},
        {RouteClass::kProvider, Relationship::kProvider}};
    for (auto [cls, rel] : classes) {
      Best b{cls, kNo, {}};
      for (std::uint32_t x = 1; x <= n_; ++x) {
        if (rels_.rel(src, AsId(x)) != rel) continue;
        const std::uint16_t d =
            dist_[rel == Relationship::kProvider ? kUp : kDown][x];
        if (d == kNo) continue;
        const auto v = static_cast<std::uint16_t>(d + 1);
        if (v < b.dist) b = {cls, v, {}};
        if (v == b.dist) b.tier0.push_back(AsId(x));
      }
      if (b.dist != kNo) return b;
    }
    return {};
  }

  // The path the lowest-AS rule yields: the lowest tied next hop of the
  // current AS's best route, and after a peer or customer edge the lowest
  // customer on a shortest descent. Empty when unreachable.
  std::vector<AsId> path(AsId src) const {
    std::vector<AsId> p{src};
    AsId cur = src;
    bool downhill = false;
    while (cur != dst_) {
      AsId next;
      if (downhill) {
        for (std::uint32_t x = 1; x <= n_ && !next.valid(); ++x) {
          if (rels_.rel(cur, AsId(x)) == Relationship::kCustomer &&
              dist_[kDown][x] + 1 == dist_[kDown][cur.value]) {
            next = AsId(x);
          }
        }
      } else {
        const Best b = best(cur);
        if (b.cls == RouteClass::kNone) return {};
        next = b.tier0.front();
        downhill = b.cls != RouteClass::kProvider;
      }
      if (!next.valid() || p.size() > n_) return {};
      p.push_back(next);
      cur = next;
    }
    return p;
  }

 private:
  const asdata::RelationshipStore& rels_;
  std::uint32_t n_;
  AsId dst_;
  std::vector<std::uint16_t> dist_[2];
};

// A seeded random AS graph on up to 40 ASes: each pair is linked with
// probability ~3/n, as c2p (the AS with the lower random rank buys from the
// other, so the provider hierarchy is acyclic) or p2p.
std::uint32_t build_random_graph(test::MiniNet& m, std::uint64_t seed) {
  net::Rng rng(seed);
  const std::uint32_t n = rng.uniform(2, 40);
  std::vector<std::uint32_t> rank(n + 1);
  for (std::uint32_t i = 1; i <= n; ++i) {
    m.add_as();
    rank[i] = i;
  }
  rng.shuffle(rank);
  const double density = std::min(1.0, 3.0 / n);
  auto& rels = m.net().truth_relationships();
  for (std::uint32_t a = 1; a <= n; ++a) {
    for (std::uint32_t b = a + 1; b <= n; ++b) {
      if (!rng.chance(density)) continue;
      if (rng.chance(0.3)) {
        rels.add_p2p(AsId(a), AsId(b));
      } else if (rank[a] < rank[b]) {
        rels.add_c2p(AsId(a), AsId(b));
      } else {
        rels.add_c2p(AsId(b), AsId(a));
      }
    }
  }
  return n;
}

// Valley-free: once a path crosses a peer or descends, it never climbs or
// crosses again.
void expect_valley_free(const asdata::RelationshipStore& rels,
                        const std::vector<AsId>& path) {
  bool descended = false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const Relationship r = rels.rel(path[i], path[i + 1]);
    ASSERT_NE(r, Relationship::kNone) << "hop " << i << " is not a link";
    if (descended) {
      EXPECT_EQ(r, Relationship::kCustomer) << "valley at hop " << i;
    }
    if (r != Relationship::kProvider) descended = true;
  }
}

// Every (src, dst) answer of `bgp` against the oracle over its current
// relationships().
void expect_matches_oracle(const BgpSimulator& bgp, std::uint32_t n) {
  const auto& rels = bgp.relationships();
  for (std::uint32_t d = 1; d <= n; ++d) {
    const AsId dst(d);
    const ValleyFreeOracle oracle(rels, n, dst);
    for (std::uint32_t s = 1; s <= n; ++s) {
      const AsId src(s);
      SCOPED_TRACE(src.str() + " -> " + dst.str());
      const auto want = oracle.best(src);
      const RouteInfo got = bgp.route(src, dst);
      ASSERT_EQ(got.cls, want.cls);
      ASSERT_EQ(got.dist, want.dist);
      const auto tiers = bgp.candidate_tiers(src, dst);
      if (want.tier0.empty()) {
        EXPECT_TRUE(tiers.empty());
      } else {
        ASSERT_FALSE(tiers.empty());
        EXPECT_EQ(tiers[0], want.tier0);
      }
      const auto path = bgp.as_path(src, dst);
      EXPECT_EQ(path, oracle.path(src));
      if (want.cls == RouteClass::kNone) {
        EXPECT_TRUE(path.empty());
        continue;
      }
      ASSERT_FALSE(path.empty());
      // A provider route's dist is the shortest valley-free length, which
      // is what providers advertise; the path follows each provider's own
      // preferred route, which can be a longer customer route.
      if (want.cls == RouteClass::kProvider) {
        EXPECT_GE(path.size() - 1, want.dist);
      } else {
        EXPECT_EQ(path.size() - 1, want.dist);
      }
      expect_valley_free(rels, path);
    }
  }
}

TEST(BgpOracle, RandomGraphsMatchBruteForce) {
  std::size_t pairs = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    test::MiniNet m;
    const std::uint32_t n = build_random_graph(m, seed);
    BgpSimulator bgp(m.net());
    expect_matches_oracle(bgp, n);
    pairs += std::size_t{n} * n;
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(pairs, 50000u);
}

// Every answer the simulator gives for every (src, dst) pair.
struct Answers {
  std::vector<RouteClass> cls;
  std::vector<std::uint16_t> dist;
  std::vector<std::vector<std::vector<AsId>>> tiers;
  std::vector<std::vector<AsId>> paths;
  bool operator==(const Answers&) const = default;
};

Answers answers(const BgpSimulator& bgp, std::uint32_t n) {
  Answers a;
  for (std::uint32_t s = 1; s <= n; ++s) {
    for (std::uint32_t d = 1; d <= n; ++d) {
      const RouteInfo r = bgp.route(AsId(s), AsId(d));
      a.cls.push_back(r.cls);
      a.dist.push_back(r.dist);
      a.tiers.push_back(bgp.candidate_tiers(AsId(s), AsId(d)));
      a.paths.push_back(bgp.as_path(AsId(s), AsId(d)));
    }
  }
  return a;
}

TEST(BgpOracle, SetRelationshipFlipsMatchBruteForce) {
  // Churn rewrites one c2p link to p2p, removes it, and restores it. After
  // each flip every answer must follow the rewritten graph, and restoring
  // the link must restore every original answer.
  std::size_t flips = 0, changed = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    test::MiniNet m;
    const std::uint32_t n = build_random_graph(m, seed);
    AsId customer, provider;
    for (std::uint32_t a = 1; a <= n && !customer.valid(); ++a) {
      const auto& providers = m.net().truth_relationships().providers(AsId(a));
      if (!providers.empty()) {
        customer = AsId(a);
        provider = providers.front();
      }
    }
    if (!customer.valid()) continue;
    BgpSimulator bgp(m.net());
    expect_matches_oracle(bgp, n);  // warms every cache before the flips
    const Answers before = answers(bgp, n);
    for (Relationship rel : {Relationship::kPeer, Relationship::kNone,
                             Relationship::kProvider}) {
      SCOPED_TRACE("flip to " + std::to_string(static_cast<int>(rel)));
      bgp.set_relationship(customer, provider, rel);
      ASSERT_EQ(bgp.relationships().rel(customer, provider), rel);
      expect_matches_oracle(bgp, n);
      if (HasFatalFailure()) return;
      if (rel != Relationship::kProvider) changed += answers(bgp, n) != before;
    }
    EXPECT_TRUE(answers(bgp, n) == before) << "restoring the link";
    ++flips;
  }
  EXPECT_GT(flips, 30u);
  EXPECT_GT(changed, flips);  // most flips move some route
}

// set_relationship re-derives the tier memo in place and reports the keys
// whose sets changed. On the random graphs, with most pairs memoized, each
// flip (c2p -> p2p -> none -> c2p) must report exactly the memoized pairs
// whose brute-force candidate_tiers differ before and after, and the memo
// must then hold the new sets.
TEST(BgpOracle, RelationshipDiffMatchesBruteForce) {
  std::size_t flips = 0, reported = 0, remote = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    test::MiniNet m;
    const std::uint32_t n = build_random_graph(m, seed);
    AsId customer, provider;
    for (std::uint32_t a = 1; a <= n && !customer.valid(); ++a) {
      const auto& providers = m.net().truth_relationships().providers(AsId(a));
      if (!providers.empty()) {
        customer = AsId(a);
        provider = providers.front();
      }
    }
    if (!customer.valid()) continue;
    BgpSimulator bgp(m.net());
    // Every pair but a quarter is memoized: unmemoized pairs were never
    // read, so no decision depends on them and none may be reported.
    auto memoized = [](std::uint32_t s, std::uint32_t d) {
      return (s * 7 + d) % 4 != 0;
    };
    for (std::uint32_t s = 1; s <= n; ++s) {
      for (std::uint32_t d = 1; d <= n; ++d) {
        if (memoized(s, d)) (void)bgp.tiers(AsId(s), AsId(d));
      }
    }
    auto all_tiers = [&] {
      std::vector<std::vector<std::vector<AsId>>> out;
      for (std::uint32_t s = 1; s <= n; ++s) {
        for (std::uint32_t d = 1; d <= n; ++d) {
          out.push_back(bgp.candidate_tiers(AsId(s), AsId(d)));
        }
      }
      return out;
    };
    for (Relationship rel : {Relationship::kPeer, Relationship::kNone,
                             Relationship::kProvider}) {
      SCOPED_TRACE("flip to " + std::to_string(static_cast<int>(rel)));
      const auto before = all_tiers();
      const std::vector<std::uint64_t> got =
          bgp.set_relationship(customer, provider, rel);
      const auto after = all_tiers();
      std::vector<std::uint64_t> want;
      for (std::uint32_t s = 1; s <= n; ++s) {
        for (std::uint32_t d = 1; d <= n; ++d) {
          const std::size_t k = std::size_t{s - 1} * n + (d - 1);
          if (memoized(s, d)) {
            EXPECT_EQ(bgp.tiers(AsId(s), AsId(d)).tiers, after[k]);
          }
          if (!memoized(s, d) || before[k] == after[k]) continue;
          want.push_back(BgpSimulator::tier_key(bgp.dense_index(AsId(s)),
                                                bgp.dense_index(AsId(d))));
          remote += AsId(s) != customer && AsId(s) != provider;
        }
      }
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want);
      reported += got.size();
      ++flips;
    }
  }
  EXPECT_GT(flips, 90u);
  EXPECT_GT(reported, flips);
  // Flips move pairs whose source is far from the flipped edge: a diff
  // limited to the edge's endpoints would miss them.
  EXPECT_GT(remote, 0u);
}

TEST(BgpFastPath, ConcurrentColdFillsMatchSequential) {
  // Eight threads query one cold simulator at once; every answer must equal
  // a sequential simulator's. Table and tier fills are pure and
  // first-writer-wins, so interleaving must not be observable.
  topo::GeneratedInternet gen = topo::generate(eval::small_access_config(7));
  const auto n = static_cast<std::uint32_t>(gen.net.ases().size());
  BgpSimulator sequential(gen.net);
  std::vector<RouteInfo> routes;
  std::vector<std::vector<std::vector<AsId>>> tiers;
  std::vector<std::vector<AsId>> paths;
  for (std::uint32_t s = 1; s <= n; ++s) {
    for (std::uint32_t d = 1; d <= n; ++d) {
      routes.push_back(sequential.route(AsId(s), AsId(d)));
      tiers.push_back(sequential.tiers(AsId(s), AsId(d)).tiers);
      paths.push_back(sequential.as_path(AsId(s), AsId(d)));
    }
  }

  BgpSimulator cold(gen.net);
  constexpr unsigned kThreads = 8;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different offset so fills race on
      // different destinations first.
      const std::size_t total = routes.size();
      for (std::size_t i = 0; i < total; ++i) {
        const std::size_t k = (i + t * total / kThreads) % total;
        const AsId src(static_cast<std::uint32_t>(k / n + 1));
        const AsId dst(static_cast<std::uint32_t>(k % n + 1));
        const RouteInfo r = cold.route(src, dst);
        if (r.cls != routes[k].cls || r.dist != routes[k].dist ||
            cold.tiers(src, dst).tiers != tiers[k] ||
            cold.as_path(src, dst) != paths[k]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

}  // namespace
}  // namespace bdrmap::route
