// BGP origin table: which AS(es) originate each routed prefix.
//
// This is bdrmap's primary IP-to-AS mapping input (§5.2 "Public BGP data").
// Multiple-origin (MOAS) prefixes are first-class: challenge 7 in §4 is that
// several ASes may originate the same prefix, so lookups return the full
// origin set of the longest matching prefix.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "netbase/ids.h"
#include "netbase/prefix.h"
#include "netbase/radix_trie.h"

namespace bdrmap::asdata {

using net::AsId;
using net::Ipv4Addr;
using net::Prefix;

class OriginTable {
 public:
  // Records that `origin` originates `p`. Idempotent per (p, origin).
  void add(const Prefix& p, AsId origin);

  // Origin set of the longest matching prefix covering `a`; empty if `a` is
  // unrouted. `matched` (optional) receives the matching prefix.
  const std::vector<AsId>* origins(Ipv4Addr a, Prefix* matched = nullptr) const;

  // Single-origin convenience: the lowest origin AS of the longest matching
  // prefix, or kNoAs when unrouted. This is the "naive IP-AS mapping" the
  // paper's baseline uses.
  AsId origin(Ipv4Addr a) const;

  // True iff some announced prefix covers `a`.
  bool is_routed(Ipv4Addr a) const { return origins(a) != nullptr; }

  // Every (prefix, origin set), lexicographic by prefix. The sets are
  // views of the table's own, valid while the table is unchanged.
  std::vector<std::pair<Prefix, std::span<const AsId>>> all_prefixes() const;

  // All prefixes originated by `as` (including MOAS prefixes it shares).
  std::vector<Prefix> prefixes_of(AsId as) const;

  std::size_t prefix_count() const { return trie_.size(); }

 private:
  net::RadixTrie<std::vector<AsId>> trie_;
  std::unordered_map<AsId, std::vector<Prefix>> by_as_;
};

}  // namespace bdrmap::asdata
