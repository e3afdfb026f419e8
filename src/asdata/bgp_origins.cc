#include "asdata/bgp_origins.h"

#include <algorithm>

namespace bdrmap::asdata {

void OriginTable::add(const Prefix& p, AsId origin) {
  auto& set = trie_.insert_if_absent(p, {});
  if (std::find(set.begin(), set.end(), origin) != set.end()) return;
  set.push_back(origin);
  std::sort(set.begin(), set.end());
  by_as_[origin].push_back(p);
}

const std::vector<AsId>* OriginTable::origins(Ipv4Addr a,
                                              Prefix* matched) const {
  return trie_.match(a, matched);
}

AsId OriginTable::origin(Ipv4Addr a) const {
  const auto* set = trie_.match(a);
  if (!set || set->empty()) return net::kNoAs;
  return set->front();  // sets are kept sorted; lowest AS wins
}

std::vector<std::pair<Prefix, std::span<const AsId>>>
OriginTable::all_prefixes() const {
  std::vector<std::pair<Prefix, std::span<const AsId>>> out;
  out.reserve(trie_.size());
  trie_.for_each([&](const Prefix& p, const std::vector<AsId>& set) {
    out.emplace_back(p, set);
  });
  return out;
}

std::vector<Prefix> OriginTable::prefixes_of(AsId as) const {
  auto it = by_as_.find(as);
  if (it == by_as_.end()) return {};
  std::vector<Prefix> out = it->second;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace bdrmap::asdata
