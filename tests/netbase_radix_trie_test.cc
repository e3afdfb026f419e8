#include "netbase/radix_trie.h"

#include <gtest/gtest.h>

#include <map>

#include "netbase/rng.h"

namespace bdrmap::net {
namespace {

Prefix P(const char* s) { return *Prefix::parse(s); }
Ipv4Addr A(const char* s) { return *Ipv4Addr::parse(s); }

TEST(RadixTrie, ExactInsertAndLookup) {
  RadixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 1);
  trie.insert(P("10.1.0.0/16"), 2);
  Prefix matched;
  EXPECT_EQ(*trie.match(A("10.0.0.1"), &matched), 1);
  EXPECT_EQ(matched, P("10.0.0.0/8"));
  EXPECT_EQ(*trie.match(A("10.1.0.1"), &matched), 2);
  EXPECT_EQ(matched, P("10.1.0.0/16"));
  // 10.2.0.0/16 holds no value of its own: its addresses fall to the /8.
  EXPECT_EQ(*trie.match(A("10.2.0.1"), &matched), 1);
  EXPECT_EQ(matched, P("10.0.0.0/8"));
  EXPECT_EQ(trie.size(), 2u);
}

TEST(RadixTrie, OverwriteKeepsSize) {
  RadixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 1);
  trie.insert(P("10.0.0.0/8"), 7);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(*trie.match(A("10.0.0.1")), 7);
}

TEST(RadixTrie, InsertIfAbsentAccumulates) {
  RadixTrie<std::vector<int>> trie;
  trie.insert_if_absent(P("10.0.0.0/8"), {}).push_back(1);
  trie.insert_if_absent(P("10.0.0.0/8"), {}).push_back(2);
  EXPECT_EQ(trie.match(A("10.0.0.1"))->size(), 2u);
  EXPECT_EQ(trie.size(), 1u);
}

TEST(RadixTrie, LongestPrefixMatch) {
  RadixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 8);
  trie.insert(P("10.1.0.0/16"), 16);
  trie.insert(P("10.1.2.0/24"), 24);
  Prefix matched;
  EXPECT_EQ(*trie.match(A("10.1.2.3"), &matched), 24);
  EXPECT_EQ(matched, P("10.1.2.0/24"));
  EXPECT_EQ(*trie.match(A("10.1.3.1"), &matched), 16);
  EXPECT_EQ(matched, P("10.1.0.0/16"));
  EXPECT_EQ(*trie.match(A("10.9.9.9")), 8);
  EXPECT_EQ(trie.match(A("11.0.0.1")), nullptr);
}

TEST(RadixTrie, DefaultRouteMatchesEverything) {
  RadixTrie<int> trie;
  trie.insert(P("0.0.0.0/0"), 42);
  EXPECT_EQ(*trie.match(A("203.0.113.9")), 42);
}

TEST(RadixTrie, Slash32Matches) {
  RadixTrie<int> trie;
  trie.insert(P("10.0.0.1/32"), 1);
  EXPECT_EQ(*trie.match(A("10.0.0.1")), 1);
  EXPECT_EQ(trie.match(A("10.0.0.2")), nullptr);
}

TEST(RadixTrie, ForEachVisitsInOrder) {
  RadixTrie<int> trie;
  trie.insert(P("10.1.0.0/16"), 2);
  trie.insert(P("10.0.0.0/8"), 1);
  trie.insert(P("11.0.0.0/8"), 3);
  std::vector<Prefix> seen;
  trie.for_each([&](const Prefix& p, int) { seen.push_back(p); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], P("10.0.0.0/8"));   // parent before child
  EXPECT_EQ(seen[1], P("10.1.0.0/16"));
  EXPECT_EQ(seen[2], P("11.0.0.0/8"));
}

// Property: trie LPM agrees with a brute-force scan over random tables.
class TrieLpmProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieLpmProperty, AgreesWithBruteForce) {
  Rng rng(GetParam());
  RadixTrie<int> trie;
  std::vector<std::pair<Prefix, int>> table;
  for (int i = 0; i < 300; ++i) {
    std::uint8_t len = static_cast<std::uint8_t>(rng.uniform(8, 28));
    Prefix p(Ipv4Addr(rng.uniform(0, 0xffffffffu)), len);
    trie.insert(p, i);
    // Brute-force table keeps last writer per prefix, like the trie.
    bool replaced = false;
    for (auto& [q, v] : table) {
      if (q == p) {
        v = i;
        replaced = true;
      }
    }
    if (!replaced) table.emplace_back(p, i);
  }
  for (int i = 0; i < 5000; ++i) {
    Ipv4Addr a(rng.uniform(0, 0xffffffffu));
    const int* got = trie.match(a);
    const int* want = nullptr;
    std::uint8_t want_len = 0;
    for (const auto& [p, v] : table) {
      if (p.contains(a) && (!want || p.length() >= want_len)) {
        // Ties impossible: equal prefixes were deduplicated.
        want = &v;
        want_len = p.length();
      }
    }
    ASSERT_EQ(got != nullptr, want != nullptr) << a.str();
    if (want) {
      EXPECT_EQ(*got, *want) << a.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieLpmProperty,
                         ::testing::Values(11, 12, 13, 14));

}  // namespace
}  // namespace bdrmap::net
