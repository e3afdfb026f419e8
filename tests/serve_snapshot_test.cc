// BorderMapSnapshot: the compressed LPM trie against brute force, the
// catchment/border tables against hand-built merged maps, and the
// fingerprint as a faithful structural hash.
#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "eval/scenario_registry.h"

namespace bdrmap {
namespace {

using net::AsId;
using net::Ipv4Addr;
using net::Prefix;
using serve::BorderMapSnapshot;
using serve::OwnedPrefix;

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Reference LPM: scan every prefix, keep the longest that contains addr.
const OwnedPrefix* brute_force(const std::vector<OwnedPrefix>& prefixes,
                               Ipv4Addr addr) {
  const OwnedPrefix* best = nullptr;
  for (const OwnedPrefix& p : prefixes) {
    if (!p.prefix.contains(addr)) continue;
    if (!best || p.prefix.length() > best->prefix.length()) best = &p;
  }
  return best;
}

std::vector<OwnedPrefix> nested_fixture() {
  return {
      {Prefix(Ipv4Addr::of(10, 0, 0, 0), 8), AsId(1)},
      {Prefix(Ipv4Addr::of(10, 1, 0, 0), 16), AsId(2)},
      {Prefix(Ipv4Addr::of(10, 1, 2, 0), 24), AsId(3)},
      {Prefix(Ipv4Addr::of(10, 1, 2, 128), 25), AsId(4)},
      {Prefix(Ipv4Addr::of(192, 168, 0, 0), 16), AsId(5)},
      {Prefix(Ipv4Addr::of(192, 168, 255, 252), 30), AsId(6)},
      {Prefix(Ipv4Addr::of(8, 8, 8, 8), 32), AsId(7)},
      {Prefix(Ipv4Addr::of(0, 0, 0, 0), 0), AsId(8)},  // default route
  };
}

TEST(ServeSnapshotTest, NestedPrefixBoundaries) {
  auto snap = BorderMapSnapshot::compile(nested_fixture(), core::MergedMap{},
                                         /*epoch=*/1);
  // Deepest nest wins; stepping one address out walks back up the chain.
  EXPECT_EQ(snap->lookup(Ipv4Addr::of(10, 1, 2, 200)).owner, AsId(4));
  EXPECT_EQ(snap->lookup(Ipv4Addr::of(10, 1, 2, 127)).owner, AsId(3));
  EXPECT_EQ(snap->lookup(Ipv4Addr::of(10, 1, 3, 0)).owner, AsId(2));
  EXPECT_EQ(snap->lookup(Ipv4Addr::of(10, 2, 0, 0)).owner, AsId(1));
  // /32 host route and its neighbours.
  EXPECT_EQ(snap->lookup(Ipv4Addr::of(8, 8, 8, 8)).owner, AsId(7));
  EXPECT_EQ(snap->lookup(Ipv4Addr::of(8, 8, 8, 9)).owner, AsId(8));
  // The /0 makes everything routed.
  EXPECT_TRUE(snap->lookup(Ipv4Addr::of(203, 0, 113, 7)).routed);
  EXPECT_EQ(snap->lookup(Ipv4Addr::of(203, 0, 113, 7)).owner, AsId(8));
}

// Checks the compiled trie against brute force on `samples` addresses drawn
// from `state`: half anywhere, half inside a prefix of the set, plus each
// prefix's first and last address and the addresses just outside it.
void expect_lpm_matches_brute_force(const std::vector<OwnedPrefix>& prefixes,
                                    std::uint64_t state, int samples) {
  auto snap = BorderMapSnapshot::compile(prefixes, core::MergedMap{}, 1);
  std::vector<Ipv4Addr> addrs;
  for (const OwnedPrefix& p : prefixes) {
    const std::uint32_t first = p.prefix.network().value();
    const std::uint32_t last = p.prefix.last().value();
    addrs.insert(addrs.end(), {Ipv4Addr(first), Ipv4Addr(last),
                               Ipv4Addr(first - 1), Ipv4Addr(last + 1)});
  }
  for (int i = 0; i < samples; ++i) {
    const std::uint64_t r = splitmix64(state);
    Ipv4Addr addr(static_cast<std::uint32_t>(r));
    if (r & 1) {
      const OwnedPrefix& p = prefixes[(r >> 32) % prefixes.size()];
      addr = Ipv4Addr(p.prefix.network().value() +
                      static_cast<std::uint32_t>((r >> 8) % p.prefix.size()));
    }
    addrs.push_back(addr);
  }
  for (Ipv4Addr addr : addrs) {
    const OwnedPrefix* want = brute_force(prefixes, addr);
    const BorderMapSnapshot::Lookup got = snap->lookup(addr);
    ASSERT_EQ(got.routed, want != nullptr) << "addr " << addr.value();
    if (want) {
      ASSERT_EQ(got.owner, want->owner) << "addr " << addr.value();
    }
  }
}

// A seeded random set of nested prefixes: a few roots, and prefixes carved
// out of earlier ones at random depths, down to /32.
std::vector<OwnedPrefix> random_nested_prefixes(std::uint64_t state) {
  std::vector<OwnedPrefix> out;
  const std::uint64_t roots = 1 + splitmix64(state) % 4;
  const std::uint64_t total = roots + 10 + splitmix64(state) % 40;
  while (out.size() < total) {
    const std::uint64_t r = splitmix64(state);
    Prefix p;
    if (out.size() < roots) {
      const auto len = static_cast<std::uint8_t>(1 + r % 24);
      p = Prefix(Ipv4Addr(static_cast<std::uint32_t>(r >> 32)), len);
    } else {
      const Prefix& parent = out[(r >> 8) % out.size()].prefix;
      if (parent.length() == 32) continue;
      const auto len = static_cast<std::uint8_t>(
          parent.length() + 1 + (r >> 16) % (32 - parent.length()));
      const std::uint32_t offset =
          static_cast<std::uint32_t>(splitmix64(state) % parent.size());
      p = Prefix(Ipv4Addr(parent.network().value() + offset), len);
    }
    out.push_back({p, AsId(static_cast<std::uint32_t>(out.size() + 1))});
  }
  return out;
}

TEST(ServeSnapshotTest, LpmMatchesBruteForce) {
  std::vector<OwnedPrefix> prefixes = nested_fixture();
  prefixes.pop_back();  // drop the /0 so unrouted addresses exist
  expect_lpm_matches_brute_force(prefixes, 0xfeed, 20000);
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("random nested prefix set " + std::to_string(seed));
    expect_lpm_matches_brute_force(random_nested_prefixes(seed), seed, 500);
  }
}

TEST(ServeSnapshotTest, DuplicatePrefixKeepsFirstOwner) {
  std::vector<OwnedPrefix> prefixes = {
      {Prefix(Ipv4Addr::of(10, 0, 0, 0), 8), AsId(1)},
      {Prefix(Ipv4Addr::of(10, 0, 0, 0), 8), AsId(9)},
  };
  auto snap = BorderMapSnapshot::compile(prefixes, core::MergedMap{}, 1);
  EXPECT_EQ(snap->prefix_count(), 1u);
  EXPECT_EQ(snap->lookup(Ipv4Addr::of(10, 5, 5, 5)).owner, AsId(1));
}

// A merged map with two borders toward AS20 (seen by different VP sets)
// and one toward AS30.
core::MergedMap catchment_fixture() {
  core::MergedMap map;
  core::MergedRouter near;
  near.addrs = {Ipv4Addr::of(100, 0, 0, 1)};
  near.vp_side = true;
  core::MergedRouter far;
  far.addrs = {Ipv4Addr::of(100, 0, 0, 2)};
  far.owner = AsId(20);
  map.routers = {near, far};
  core::MergedLink l0;
  l0.near_router = 0;
  l0.far_router = 1;
  l0.neighbor_as = AsId(20);
  l0.seen_by = {0, 2};
  core::MergedLink l1;
  l1.near_router = 0;
  l1.far_router = core::MergedLink::kNoRouter;  // silent neighbor side
  l1.neighbor_as = AsId(20);
  l1.seen_by = {1};
  core::MergedLink l2;
  l2.near_router = 0;
  l2.far_router = 1;
  l2.neighbor_as = AsId(30);
  l2.seen_by = {0, 1, 2};
  map.links = {l0, l1, l2};
  map.links_by_as[AsId(20)] = {0, 1};
  map.links_by_as[AsId(30)] = {2};
  return map;
}

TEST(ServeSnapshotTest, CatchmentAndBordersToward) {
  std::vector<OwnedPrefix> prefixes = {
      {Prefix(Ipv4Addr::of(20, 0, 0, 0), 8), AsId(20)},
      {Prefix(Ipv4Addr::of(30, 0, 0, 0), 8), AsId(30)},
      {Prefix(Ipv4Addr::of(40, 0, 0, 0), 8), AsId(40)},  // no border
  };
  auto snap = BorderMapSnapshot::compile(prefixes, catchment_fixture(), 3);
  ASSERT_EQ(snap->borders().size(), 3u);

  // Owner lookup carries the owner's border slice.
  auto q20 = snap->lookup(Ipv4Addr::of(20, 1, 2, 3));
  ASSERT_TRUE(q20.routed);
  EXPECT_EQ(q20.owner, AsId(20));
  ASSERT_EQ(q20.border_count, 2u);
  EXPECT_EQ(q20.borders[0], 0u);
  EXPECT_EQ(q20.borders[1], 1u);
  auto q30 = snap->lookup(Ipv4Addr::of(30, 1, 2, 3));
  ASSERT_EQ(q30.border_count, 1u);
  EXPECT_EQ(q30.borders[0], 2u);
  // An owner with no inferred border gets an empty slice, not a crash.
  auto q40 = snap->lookup(Ipv4Addr::of(40, 1, 2, 3));
  EXPECT_TRUE(q40.routed);
  EXPECT_EQ(q40.border_count, 0u);

  // Catchments reproduce seen_by in order.
  std::uint32_t n = 0;
  const std::uint32_t* vps = snap->catchment(0, &n);
  ASSERT_EQ(n, 2u);
  EXPECT_EQ(vps[0], 0u);
  EXPECT_EQ(vps[1], 2u);
  vps = snap->catchment(1, &n);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(vps[0], 1u);

  // Border records carry the canonical addresses; silent far side is zero.
  EXPECT_EQ(snap->borders()[0].near_addr, Ipv4Addr::of(100, 0, 0, 1));
  EXPECT_EQ(snap->borders()[0].far_addr, Ipv4Addr::of(100, 0, 0, 2));
  EXPECT_TRUE(snap->borders()[1].far_addr.is_zero());

  EXPECT_EQ(snap->borders_toward(AsId(20)),
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(snap->borders_toward(AsId(30)), (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(snap->borders_toward(AsId(99)).empty());
}

TEST(ServeSnapshotTest, FingerprintIsStructural) {
  auto a = BorderMapSnapshot::compile(nested_fixture(), catchment_fixture(),
                                      /*epoch=*/1);
  auto b = BorderMapSnapshot::compile(nested_fixture(), catchment_fixture(),
                                      /*epoch=*/7);
  // Same tables, different epoch: fingerprints match (identity gates
  // compare maps, not publication counters).
  EXPECT_EQ(a->fingerprint(), b->fingerprint());

  auto changed_owner = nested_fixture();
  changed_owner[2].owner = AsId(99);
  auto c = BorderMapSnapshot::compile(changed_owner, catchment_fixture(), 1);
  EXPECT_NE(a->fingerprint(), c->fingerprint());

  auto map = catchment_fixture();
  map.links[0].seen_by.push_back(7);  // a catchment change alone must show
  auto d = BorderMapSnapshot::compile(nested_fixture(), map, 1);
  EXPECT_NE(a->fingerprint(), d->fingerprint());
}

TEST(ServeSnapshotTest, ScenarioOwnersMatchOriginTable) {
  auto spec = eval::scenario_spec("small", 42);
  ASSERT_TRUE(spec.has_value());
  eval::Scenario scenario(*spec);
  const auto inputs = scenario.inputs_for(scenario.first_of(spec->vp_kind));
  std::vector<OwnedPrefix> prefixes;
  for (const auto& [prefix, origins] : inputs.origins->all_prefixes()) {
    prefixes.push_back(
        {prefix, *std::min_element(origins.begin(), origins.end())});
  }
  auto snap = BorderMapSnapshot::compile(prefixes, core::MergedMap{}, 0);
  EXPECT_EQ(snap->prefix_count(), prefixes.size());
  // The trie agrees with the origin table's own longest-match resolution
  // on a deterministic sample of the announced space.
  std::uint64_t state = 0x5ca1e;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t r = splitmix64(state);
    const auto& ap =
        scenario.net().announced()[r % scenario.net().announced().size()];
    Ipv4Addr addr(ap.prefix.network().value() +
                  static_cast<std::uint32_t>((r >> 32) % ap.prefix.size()));
    const auto got = snap->lookup(addr);
    const AsId want = inputs.origins->origin(addr);
    if (want.valid()) {
      ASSERT_TRUE(got.routed) << "addr " << addr.value();
      EXPECT_EQ(got.owner, want) << "addr " << addr.value();
    } else {
      EXPECT_FALSE(got.routed) << "addr " << addr.value();
    }
  }
}

}  // namespace
}  // namespace bdrmap
