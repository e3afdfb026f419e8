// Doubletree-style stop set (§5.3, citing Donnet et al. [10]).
//
// For each target AS, bdrmap records the first address originated by an
// external network seen in each trace; later traceroutes toward the same AS
// stop when they reach an address already in the set, so probing does not
// repeatedly cross the same interdomain link. Keyed per target AS because
// the same near-border address can lead to different far networks.
//
// NOT thread-safe, by design: a stop set belongs to exactly one
// core::collect_blocks call (one VP's slice). The paper keys stopping on
// what THIS vantage point has already seen — sharing a set across
// concurrently-running VPs would both race and change inference results
// (a VP would stop on another VP's observations). A set lives on its
// call's stack, so nothing can share one.
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "netbase/ids.h"
#include "netbase/ipv4.h"

namespace bdrmap::core {

class StopSet {
 public:
  void add(net::AsId target_as, net::Ipv4Addr addr) {
    sets_[target_as].insert(addr);
  }

  bool contains(net::AsId target_as, net::Ipv4Addr addr) const {
    auto it = sets_.find(target_as);
    return it != sets_.end() && it->second.count(addr) > 0;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& [as, set] : sets_) n += set.size();
    return n;
  }

 private:
  std::unordered_map<net::AsId, std::unordered_set<net::Ipv4Addr>> sets_;
};

}  // namespace bdrmap::core
