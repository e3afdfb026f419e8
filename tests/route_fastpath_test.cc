// Golden suite for the forwarding fast path (DESIGN.md §9).
//
// The cached plane (RouteQuery resolve-once, flat egress rows with AS and
// pinned-prefix columns, memoized tiers, dense IGP indexing) is checked
// hop by hop against a reference tier scan written here from the Fib's and
// the BGP simulator's public calls: the per-hop recomputation the caches
// replaced. Covers randomized destinations, interface addresses,
// selectively-announced (pinned) prefixes, link and relationship churn, and
// concurrent cache fills from many threads, with and without a churn
// overlay (the MultiVpExecutor determinism contract). Suite name carries
// "FastPath" so check.sh's tsan pass picks these tests up.
#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "eval/scenario.h"
#include "netbase/rng.h"
#include "obs/metrics.h"
#include "route/bgp_sim.h"
#include "route/fib.h"
#include "topo/generator.h"

namespace bdrmap::route {
namespace {

using net::AsId;
using net::Ipv4Addr;
using net::RouterId;

constexpr std::size_t kMaxWalkHops = 256;
constexpr double kInfDist = std::numeric_limits<double>::infinity();

struct Probe {
  RouterId start;
  Ipv4Addr dst;
};

// Encodes a full FIB walk (every hop's router, link, interfaces, crossing
// flag, and the terminal delivery state) for exact comparison.
std::vector<std::uint64_t> walk(const Fib& fib, const Probe& p) {
  std::vector<std::uint64_t> trail;
  const Fib::RouteQuery q = fib.query(p.dst);
  RouterId r = p.start;
  for (std::size_t hop = 0; hop < kMaxWalkHops; ++hop) {
    auto next = fib.next_hop(r, q);
    if (!next.has_value()) {
      trail.push_back(fib.delivered_at(r, q) ? 0xD0D0D0D0ull : 0xDEADull);
      auto eg = fib.egress_iface(r, q);
      trail.push_back(eg ? eg->value : 0xFFFFFFFFull);
      return trail;
    }
    trail.push_back((std::uint64_t{next->router.value} << 32) |
                    next->link.value);
    trail.push_back((std::uint64_t{next->ingress.value} << 33) |
                    (std::uint64_t{next->egress.value} << 1) |
                    (next->crossed_interdomain ? 1 : 0));
    r = next->router;
  }
  return trail;
}

// Flow-stable tie break for equal-cost egresses (per-destination ECMP).
std::uint64_t flow_rank(Ipv4Addr dst, topo::LinkId link) {
  std::uint64_t x = (std::uint64_t{dst.value()} << 32) | link.value;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 29;
  return x;
}

// Reference egress choice of router `r` (in `as`) toward `dst_as`: for each
// candidate tier in preference order, the session (pinned-filtered, up,
// reachable) at minimal IGP distance from r, ties broken by flow rank.
const Session* reference_egress(const Fib& fib, const BgpSimulator& bgp,
                                RouterId r, AsId as, AsId dst_as,
                                Ipv4Addr dst,
                                const std::vector<topo::LinkId>* pinned) {
  const auto& sessions = fib.sessions_of(as);
  for (const auto& tier : bgp.candidate_tiers(as, dst_as)) {
    const Session* best = nullptr;
    double best_dist = kInfDist;
    std::uint64_t best_rank = 0;
    for (const Session& s : sessions) {
      // Tiers come out of candidate_tiers sorted ascending.
      if (!std::binary_search(tier.begin(), tier.end(), s.far_as)) continue;
      // Selective-announcement filter at sessions adjacent to the origin.
      if (pinned && s.far_as == dst_as &&
          std::find(pinned->begin(), pinned->end(), s.link) == pinned->end()) {
        continue;
      }
      if (fib.link_is_down(s.link)) continue;
      double d = fib.igp_distance(r, s.near_router);
      if (d == kInfDist) continue;
      std::uint64_t rank = flow_rank(dst, s.link);
      if (!best || d < best_dist || (d == best_dist && rank < best_rank)) {
        best = &s;
        best_dist = d;
        best_rank = rank;
      }
    }
    if (best) return best;
  }
  return nullptr;
}

// Where a walk toward `dst` is headed, from the topology alone: the AS the
// egress decisions route toward, the AS that finally delivers, and the
// selectively-announced links, if any. Routers in either AS make no
// egress decision. nullopt when nothing is routed there.
struct Target {
  AsId dst_as;
  AsId final_as;
  const std::vector<topo::LinkId>* pinned = nullptr;
};

std::optional<Target> target_of(const topo::Internet& net, Ipv4Addr dst) {
  if (auto id = net.iface_at(dst)) {
    const auto& iface = net.iface(*id);
    const auto& link = net.link(iface.link);
    const AsId owner = net.router(iface.router).owner;
    if (link.kind == topo::LinkKind::kInterdomain &&
        link.addr_space_owner != owner) {
      // Provider-assigned far-side address: routed toward the supplier,
      // whose router on the subnet delivers across the link.
      for (net::IfaceId other : link.ifaces) {
        if (net.router(net.iface(other).router).owner ==
            link.addr_space_owner) {
          return Target{link.addr_space_owner, owner};
        }
      }
    }
    return Target{owner, owner};
  }
  if (const auto* ap = net.announced_match(dst)) {
    return Target{ap->origin, net.router(ap->host_router).owner,
                  ap->only_via_links.empty() ? nullptr : &ap->only_via_links};
  }
  return std::nullopt;
}

// One topology, one BGP simulator, one forwarding plane.
struct Plane {
  explicit Plane(const topo::GeneratorConfig& config,
                 obs::MetricsRegistry* metrics = nullptr)
      : gen(topo::generate(config)),
        bgp(gen.net, metrics),
        fib(gen.net, bgp, FibOptions{metrics}) {}
  topo::GeneratedInternet gen;
  BgpSimulator bgp;
  Fib fib;
};

struct OracleCounts {
  std::size_t crossings = 0;  // hops leaving on the reference session
  std::size_t internal = 0;   // hops moving toward its near router
};

// Walks `p` and checks every egress decision against reference_egress: a
// crossing hop leaves on the reference session's link from its near
// router, an internal hop strictly reduces the IGP distance to that near
// router, and no reference session means no route. Returns the first
// mismatch, or "" when the walk agrees.
std::string check_walk(const Plane& p, const Probe& probe,
                       OracleCounts& counts) {
  const std::optional<Target> target = target_of(p.gen.net, probe.dst);
  const Fib::RouteQuery q = p.fib.query(probe.dst);
  RouterId r = probe.start;
  for (std::size_t hop = 0; hop < kMaxWalkHops; ++hop) {
    const auto next = p.fib.next_hop(r, q);
    const AsId x = p.gen.net.router(r).owner;
    if (target && x != target->dst_as && x != target->final_as) {
      const std::string at = "hop " + std::to_string(hop) + " at " + r.str();
      const Session* ref = reference_egress(p.fib, p.bgp, r, x, target->dst_as,
                                            probe.dst, target->pinned);
      if (!ref) {
        if (next) return at + ": routed, reference has no session";
      } else if (!next) {
        return at + ": no route, reference has a session";
      } else if (ref->near_router == r) {
        if (!next->crossed_interdomain || next->link != ref->link ||
            next->router != ref->far_router) {
          return at + ": did not cross on the reference session";
        }
        ++counts.crossings;
      } else {
        if (next->crossed_interdomain ||
            !(p.fib.igp_distance(next->router, ref->near_router) <
              p.fib.igp_distance(r, ref->near_router))) {
          return at + ": not closer to the reference near router";
        }
        ++counts.internal;
      }
    }
    if (!next) return "";
    r = next->router;
  }
  return "";
}

// Deterministic mixed workload over a generated topology: announced-prefix
// interiors (four random offsets each), interface addresses (two start
// routers each).
std::vector<Probe> build_workload(const topo::Internet& net,
                                  std::uint64_t seed) {
  std::vector<Probe> work;
  net::Rng rng(seed);
  const auto& routers = net.routers();
  auto any_router = [&] {
    return routers[rng.uniform(0, static_cast<std::uint32_t>(routers.size() -
                                                             1))]
        .id;
  };
  for (const auto& ap : net.announced()) {
    for (int i = 0; i < 4; ++i) {
      std::uint32_t span = ~std::uint32_t{0} >> ap.prefix.length();
      Ipv4Addr dst(ap.prefix.network().value() +
                   (span > 0 ? rng.uniform(1, span) : 0));
      if (!ap.prefix.contains(dst)) dst = ap.prefix.network();
      work.push_back({any_router(), dst});
    }
  }
  const auto& ifaces = net.ifaces();
  for (std::size_t i = 0; i < ifaces.size(); i += 5) {
    work.push_back({any_router(), ifaces[i].addr});
    work.push_back({any_router(), ifaces[i].addr});
  }
  return work;
}

void expect_walks_match_reference(const Plane& p,
                                  const std::vector<Probe>& work) {
  ASSERT_FALSE(work.empty());
  OracleCounts counts;
  std::size_t mismatches = 0;
  for (const Probe& probe : work) {
    const std::string why = check_walk(p, probe, counts);
    if (!why.empty()) {
      ++mismatches;
      ADD_FAILURE() << "start=" << probe.start.str()
                    << " dst=" << probe.dst.str() << ": " << why;
      if (mismatches >= 5) break;  // enough to diagnose
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // The oracle must actually have judged both kinds of decision.
  EXPECT_GT(counts.crossings, 0u);
  EXPECT_GT(counts.internal, 0u);
}

TEST(RouteFastPath, CachedMatchesUncachedSmallAccess) {
  Plane p(eval::small_access_config(7));
  expect_walks_match_reference(p, build_workload(p.gen.net, 0xA11CE));
}

TEST(RouteFastPath, CachedMatchesUncachedResearchEducation) {
  Plane p(eval::research_education_config(11));
  expect_walks_match_reference(p, build_workload(p.gen.net, 0xB0B));
}

TEST(RouteFastPath, PinnedPrefixWalksMatch) {
  // Selective announcement decouples forwarding from plain tier order;
  // pinned decisions live in their prefix's own egress-row column.
  Plane p(eval::small_access_config(7));
  std::vector<Probe> work;
  net::Rng rng(0x9111);
  const auto& routers = p.gen.net.routers();
  for (const auto& ap : p.gen.net.announced()) {
    if (ap.only_via_links.empty()) continue;
    for (int i = 0; i < 4; ++i) {
      RouterId start =
          routers[rng.uniform(0,
                              static_cast<std::uint32_t>(routers.size() - 1))]
              .id;
      work.push_back({start, Ipv4Addr(ap.prefix.network().value() + 1)});
    }
  }
  ASSERT_FALSE(work.empty())
      << "generator produced no selectively-announced prefixes";
  expect_walks_match_reference(p, work);
}

// How often the walks of `work` cross each interdomain link.
std::map<topo::LinkId, std::size_t> link_crossings(
    const Fib& fib, const std::vector<Probe>& work) {
  std::map<topo::LinkId, std::size_t> crossings;
  for (const Probe& probe : work) {
    const Fib::RouteQuery q = fib.query(probe.dst);
    RouterId r = probe.start;
    for (std::size_t hop = 0; hop < kMaxWalkHops; ++hop) {
      const auto next = fib.next_hop(r, q);
      if (!next) break;
      if (next->crossed_interdomain) ++crossings[next->link];
      r = next->router;
    }
  }
  return crossings;
}

// The most-crossed link that `eligible` accepts (lowest id on ties).
template <typename Eligible>
std::optional<topo::LinkId> busiest_link(
    const std::map<topo::LinkId, std::size_t>& crossings,
    Eligible&& eligible) {
  std::optional<topo::LinkId> best;
  std::size_t best_count = 0;
  for (const auto& [link, count] : crossings) {
    if (count > best_count && eligible(link)) {
      best = link;
      best_count = count;
    }
  }
  return best;
}

TEST(RouteFastPath, ChurnWalksMatchReference) {
  // Every churn step must drop the egress decisions it invalidates: the
  // reference recomputes each decision from the current overlay, so a
  // stale memo entry (an AS column or a pinned-prefix column) shows up
  // as a walk that still leaves on a down link or an old tier. Each
  // step's link is the one the warm walks cross most, so the memo holds
  // decisions that the step changes.
  Plane p(eval::small_access_config(7));
  const topo::Internet& net = p.gen.net;
  const std::vector<Probe> work = build_workload(net, 0xC4A21);
  expect_walks_match_reference(p, work);
  std::vector<std::vector<std::uint64_t>> warm;
  warm.reserve(work.size());
  for (const Probe& probe : work) warm.push_back(walk(p.fib, probe));

  auto pinned = [&](topo::LinkId link) {
    for (const auto& ap : net.announced()) {
      const auto& only = ap.only_via_links;
      if (std::find(only.begin(), only.end(), link) != only.end()) {
        return true;
      }
    }
    return false;
  };
  const auto crossings = link_crossings(p.fib, work);

  // 1. A pinned prefix's own access link goes down.
  const std::optional<topo::LinkId> access = busiest_link(crossings, pinned);
  ASSERT_TRUE(access.has_value()) << "the walks cross no pinned link";
  p.fib.set_link_state(*access, false);
  expect_walks_match_reference(p, work);

  // 2. Then an unpinned interdomain link.
  const std::optional<topo::LinkId> transit =
      busiest_link(crossings, [&](topo::LinkId l) { return !pinned(l); });
  ASSERT_TRUE(transit.has_value()) << "the walks cross no unpinned link";
  p.fib.set_link_state(*transit, false);
  expect_walks_match_reference(p, work);

  // 3. Then a transit relationship over another busy link becomes peering.
  std::map<topo::LinkId, std::pair<AsId, AsId>> ends;
  for (const auto& info : net.interdomain_links()) {
    ends[info.link] = {info.as_a, info.as_b};
  }
  auto transit_rel = [&](topo::LinkId l) {
    const auto [a, b] = ends.at(l);
    const asdata::Relationship rel = p.bgp.relationships().rel(a, b);
    return rel == asdata::Relationship::kCustomer ||
           rel == asdata::Relationship::kProvider;
  };
  const std::optional<topo::LinkId> flipped =
      busiest_link(crossings, [&](topo::LinkId l) {
        return l != *access && l != *transit && transit_rel(l);
      });
  ASSERT_TRUE(flipped.has_value()) << "the walks cross no transit link";
  const auto [a, b] = ends.at(*flipped);
  const asdata::Relationship original = p.bgp.relationships().rel(a, b);
  p.fib.invalidate_egress(
      p.bgp.set_relationship(a, b, asdata::Relationship::kPeer));
  expect_walks_match_reference(p, work);

  // Restoring every step restores every walk.
  p.fib.invalidate_egress(p.bgp.set_relationship(a, b, original));
  p.fib.set_link_state(*transit, true);
  p.fib.set_link_state(*access, true);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < work.size(); ++i) {
    changed += walk(p.fib, work[i]) != warm[i];
  }
  EXPECT_EQ(changed, 0u);
}

// A relationship flip drops exactly the egress decisions whose tier key
// it changed, pinned-prefix columns included, and keeps every other one:
// each memo lookup the warm walks made is repeated after the flip and must
// miss iff its key changed (egress cache hit/miss counters). The flip is
// the first provider edge of a pinned prefix's origin whose changed keys
// reach a pinned decision, so a pinned column the invalidation forgets
// shows up as a hit. The walks then still match the reference. Link
// events drop decisions by the same rule (the tier keys set_link_state
// reports): after every step of a seeded down/up sequence that includes
// IXP LANs, every walk must equal the walk of a freshly built Fib with
// the same down links, whose memo never saw the sequence.
TEST(RouteFastPath, RelationshipFlipDropsOnlyChangedEgress) {
  obs::MetricsRegistry metrics;
  Plane p(eval::small_access_config(7), &metrics);
  const topo::Internet& net = p.gen.net;
  std::vector<Probe> work = build_workload(net, 0xF11B);
  for (const auto& ap : net.announced()) {
    if (ap.only_via_links.empty()) continue;
    for (const auto& router : net.routers()) {
      if (router.id.value % 7 == 0) {
        work.push_back({router.id, Ipv4Addr(ap.prefix.network().value() + 1)});
      }
    }
  }
  auto lookups = [&] {
    const obs::MetricsSnapshot m = metrics.snapshot();
    return std::make_pair(m.counter("route.fib.egress_cache_hits"),
                          m.counter("route.fib.egress_cache_misses"));
  };

  // Every distinct memo entry the warm walks read: (router, destination
  // AS key, pinned prefix), with one destination that reads it.
  struct Lookup {
    RouterId router;
    Ipv4Addr dst;
    std::uint64_t key;
    bool pinned;
  };
  std::vector<Lookup> warm;
  std::set<std::tuple<std::uint32_t, std::uint64_t, const void*>> seen;
  for (const Probe& probe : work) {
    const Fib::RouteQuery q = p.fib.query(probe.dst);
    const std::optional<Target> target = target_of(net, probe.dst);
    RouterId r = probe.start;
    for (std::size_t hop = 0; hop < kMaxWalkHops; ++hop) {
      const auto before = lookups();
      const auto next = p.fib.next_hop(r, q);
      const auto after = lookups();
      if (after != before && target) {
        const std::uint64_t key = p.fib.tier_key(r, q);
        if (seen.insert({r.value, key, target->pinned}).second) {
          warm.push_back({r, probe.dst, key, target->pinned != nullptr});
        }
      }
      if (!next) break;
      r = next->router;
    }
  }

  // The flip: a provider edge of a pinned prefix's origin whose changed
  // keys include a pinned lookup's.
  std::vector<std::uint64_t> changed;
  for (const auto& ap : net.announced()) {
    if (ap.only_via_links.empty() || !changed.empty()) continue;
    for (const auto& info : net.interdomain_links()) {
      const AsId other = info.as_a == ap.origin   ? info.as_b
                         : info.as_b == ap.origin ? info.as_a
                                                  : AsId{};
      if (!other.valid() || p.bgp.relationships().rel(ap.origin, other) !=
                                asdata::Relationship::kProvider) {
        continue;
      }
      changed = p.bgp.set_relationship(ap.origin, other,
                                        asdata::Relationship::kPeer);
      const bool reaches_pinned =
          std::any_of(warm.begin(), warm.end(), [&](const Lookup& l) {
            return l.pinned && std::binary_search(changed.begin(),
                                                  changed.end(), l.key);
          });
      if (reaches_pinned) break;
      p.fib.invalidate_egress(changed);
      p.fib.invalidate_egress(p.bgp.set_relationship(
          ap.origin, other, asdata::Relationship::kProvider));
      changed.clear();
    }
  }
  ASSERT_FALSE(changed.empty()) << "no flip reaches a pinned decision";
  p.fib.invalidate_egress(changed);

  std::size_t kept = 0, dropped = 0, dropped_pinned = 0;
  for (const Lookup& l : warm) {
    const auto before = lookups();
    p.fib.next_hop(l.router, p.fib.query(l.dst));
    const auto after = lookups();
    const bool moved =
        std::binary_search(changed.begin(), changed.end(), l.key);
    if (moved) {
      ++dropped;
      dropped_pinned += l.pinned;
      EXPECT_EQ(after.second, before.second + 1)
          << "stale entry at " << l.router.str() << " toward " << l.dst.str();
    } else {
      ++kept;
      EXPECT_EQ(after.first, before.first + 1)
          << "lost entry at " << l.router.str() << " toward " << l.dst.str();
    }
  }
  EXPECT_GT(kept, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(dropped_pinned, 0u);
  expect_walks_match_reference(p, work);

  std::vector<topo::LinkId> links, ixp_links;
  for (const auto& info : net.interdomain_links()) {
    if (std::find(links.begin(), links.end(), info.link) != links.end()) {
      continue;
    }
    links.push_back(info.link);
    if (info.via_ixp) ixp_links.push_back(info.link);
  }
  ASSERT_FALSE(ixp_links.empty()) << "the topology has no IXP LAN";
  net::Rng rng(0x11F7);
  auto pick = [&rng](const std::vector<topo::LinkId>& from) {
    return from[rng.uniform(0, static_cast<std::uint32_t>(from.size() - 1))];
  };
  std::vector<std::vector<std::uint64_t>> all_up;
  for (const Probe& probe : work) all_up.push_back(walk(p.fib, probe));
  std::vector<topo::LinkId> down;
  std::size_t ixp_steps = 0, moved_walks = 0;
  for (int step = 0; step < 16; ++step) {
    if (!down.empty() && rng.chance(0.4)) {
      const std::size_t i = rng.uniform(
          0, static_cast<std::uint32_t>(down.size() - 1));
      p.fib.set_link_state(down[i], true);
      down.erase(down.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const topo::LinkId link = rng.chance(0.5) ? pick(ixp_links) : pick(links);
      if (std::find(down.begin(), down.end(), link) != down.end()) continue;
      const std::vector<std::uint64_t> keys = p.fib.set_link_state(link, false);
      EXPECT_EQ(keys.back(), Fib::link_key(link));
      ixp_steps += std::find(ixp_links.begin(), ixp_links.end(), link) !=
                   ixp_links.end();
      down.push_back(link);
    }
    Fib fresh(net, p.bgp);
    for (topo::LinkId link : down) fresh.set_link_state(link, false);
    std::size_t differ = 0;
    for (std::size_t i = 0; i < work.size(); ++i) {
      const std::vector<std::uint64_t> trail = walk(p.fib, work[i]);
      differ += trail != walk(fresh, work[i]);
      moved_walks += trail != all_up[i];
    }
    EXPECT_EQ(differ, 0u) << "step " << step;
  }
  // The sequence must take IXP LANs down and move walks, or it tests
  // nothing.
  EXPECT_GT(ixp_steps, 0u);
  EXPECT_GT(moved_walks, 0u);
}

// Eight threads walk `fib` at once; every walk must equal `expected`.
// Each thread starts at a different offset so fills race on different
// entries first.
void expect_concurrent_walks_match(
    const Fib& fib, const std::vector<Probe>& work,
    const std::vector<std::vector<std::uint64_t>>& expected) {
  constexpr unsigned kThreads = 8;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < work.size(); ++i) {
        const std::size_t j = (i + t * 13) % work.size();
        if (walk(fib, work[j]) != expected[j]) ++mismatches[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

TEST(RouteFastPath, ConcurrentFillIsDeterministic) {
  // Eight threads hammer a cold Fib concurrently; every thread's walks
  // must equal a single-threaded cold plane's. Cache fills are pure and
  // first-writer-wins, so interleaving must not be observable.
  topo::GeneratedInternet gen = topo::generate(eval::small_access_config(7));
  BgpSimulator bgp(gen.net);
  Fib reference(gen.net, bgp);
  std::vector<Probe> work = build_workload(gen.net, 0xC0C0A);
  std::vector<std::vector<std::uint64_t>> expected;
  expected.reserve(work.size());
  for (const Probe& probe : work) expected.push_back(walk(reference, probe));

  BgpSimulator cold_bgp(gen.net);
  Fib cold(gen.net, cold_bgp);
  expect_concurrent_walks_match(cold, work, expected);
}

TEST(RouteFastPath, ConcurrentWalksUnderChurnOverlay) {
  // Link-down and prefix-withdraw events go into a cold Fib while no walk
  // runs (the quiescence contract); then eight threads walk it at once,
  // reading the overlay bytes and published IGP tables without a lock
  // while the fills race. Every walk must equal a sequential plane's with
  // the same overlay, and the overlay must move walks, or it tests
  // nothing.
  topo::GeneratedInternet gen = topo::generate(eval::small_access_config(7));
  const topo::Internet& net = gen.net;
  const std::vector<Probe> work = build_workload(net, 0x0E7A1);

  BgpSimulator up_bgp(net);
  Fib up(net, up_bgp);
  std::vector<std::vector<std::uint64_t>> unchurned;
  unchurned.reserve(work.size());
  for (const Probe& probe : work) unchurned.push_back(walk(up, probe));

  // Down: the three links the unchurned walks cross most, and the busiest
  // IXP LAN. Withdrawn: every fifth announced prefix, one prefix nobody
  // announces, and one prefix withdrawn then re-announced.
  const auto crossings = link_crossings(up, work);
  std::set<topo::LinkId> ixp;
  for (const auto& info : net.interdomain_links()) {
    if (info.via_ixp) ixp.insert(info.link);
  }
  std::vector<topo::LinkId> down;
  for (int i = 0; i < 3; ++i) {
    const auto busiest = busiest_link(crossings, [&](topo::LinkId l) {
      return std::find(down.begin(), down.end(), l) == down.end();
    });
    ASSERT_TRUE(busiest.has_value()) << "the walks cross too few links";
    down.push_back(*busiest);
  }
  const auto lan = busiest_link(crossings, [&](topo::LinkId l) {
    return ixp.count(l) > 0 &&
           std::find(down.begin(), down.end(), l) == down.end();
  });
  ASSERT_TRUE(lan.has_value()) << "the walks cross no IXP LAN";
  down.push_back(*lan);

  const auto& announced = net.announced();
  std::vector<net::Prefix> withdrawn;
  for (std::size_t i = 0; i < announced.size(); i += 5) {
    withdrawn.push_back(announced[i].prefix);
  }
  const net::Prefix unannounced(Ipv4Addr(0xC6336400u), 24);  // 198.51.100/24
  ASSERT_TRUE(std::none_of(
      announced.begin(), announced.end(),
      [&](const auto& ap) { return ap.prefix == unannounced; }));
  withdrawn.push_back(unannounced);
  const net::Prefix bounced = announced[1].prefix;
  auto apply = [&](Fib& fib) {
    for (topo::LinkId link : down) fib.set_link_state(link, false);
    for (const net::Prefix& p : withdrawn) fib.set_prefix_withdrawn(p, true);
    fib.set_prefix_withdrawn(bounced, true);
    fib.set_prefix_withdrawn(bounced, false);
  };

  BgpSimulator seq_bgp(net);
  Fib sequential(net, seq_bgp);
  apply(sequential);
  std::vector<std::vector<std::uint64_t>> expected;
  expected.reserve(work.size());
  std::size_t moved = 0;
  for (std::size_t i = 0; i < work.size(); ++i) {
    expected.push_back(walk(sequential, work[i]));
    moved += expected.back() != unchurned[i];
  }
  EXPECT_GT(moved, 0u) << "the overlay moved no walk";

  BgpSimulator cold_bgp(net);
  Fib cold(net, cold_bgp);
  apply(cold);
  // withdrawn_prefixes() lists exactly what is withdrawn, announced or not.
  std::vector<net::Prefix> listed(withdrawn.begin(), withdrawn.end());
  std::sort(listed.begin(), listed.end());
  listed.erase(std::unique(listed.begin(), listed.end()), listed.end());
  listed.erase(std::remove(listed.begin(), listed.end(), bounced),
               listed.end());
  EXPECT_EQ(cold.withdrawn_prefixes(), listed);

  expect_concurrent_walks_match(cold, work, expected);
}

TEST(RouteFastPath, CacheMetricsCountHitsAndMisses) {
  // The cold pass only misses and fills; re-walking the same workload
  // must hit without adding a single new miss.
  topo::GeneratedInternet gen = topo::generate(eval::small_access_config(7));
  std::vector<Probe> work = build_workload(gen.net, 0xFEED);
  ASSERT_FALSE(work.empty());

  obs::MetricsRegistry metrics;
  BgpSimulator bgp(gen.net, &metrics);
  FibOptions on;
  on.metrics = &metrics;
  Fib fib(gen.net, bgp, on);
  for (const Probe& probe : work) walk(fib, probe);
  obs::MetricsSnapshot cold = metrics.snapshot();
  EXPECT_GT(cold.counter("route.fib.egress_cache_misses"), 0u);
  EXPECT_GT(cold.counter("route.fib.routing_fills"), 0u);
  for (const Probe& probe : work) walk(fib, probe);
  obs::MetricsSnapshot warm = metrics.snapshot();
  EXPECT_GT(warm.counter("route.fib.egress_cache_hits"), 0u);
  EXPECT_EQ(warm.counter("route.fib.egress_cache_misses"),
            cold.counter("route.fib.egress_cache_misses"));
  EXPECT_EQ(warm.counter("route.fib.routing_fills"),
            cold.counter("route.fib.routing_fills"));
  const obs::HistogramSample* tied =
      warm.histogram("route.fib.egress_tied_sessions");
  ASSERT_NE(tied, nullptr);
  EXPECT_GT(tied->count, 0u);
}

}  // namespace
}  // namespace bdrmap::route
