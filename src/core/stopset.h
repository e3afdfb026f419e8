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
//
// A slice's blocks share one target AS and cross few interdomain links,
// so the set is a short flat list, scanned per responsive hop: no node
// per entry (DESIGN.md §14).
#pragma once

#include <algorithm>
#include <vector>

#include "netbase/ids.h"
#include "netbase/ipv4.h"

namespace bdrmap::core {

class StopSet {
 public:
  void add(net::AsId target_as, net::Ipv4Addr addr) {
    if (!contains(target_as, addr)) entries_.push_back({target_as, addr});
  }

  bool contains(net::AsId target_as, net::Ipv4Addr addr) const {
    return std::find(entries_.begin(), entries_.end(),
                     Entry{target_as, addr}) != entries_.end();
  }

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    net::AsId target_as;
    net::Ipv4Addr addr;
    bool operator==(const Entry&) const = default;
  };
  std::vector<Entry> entries_;
};

}  // namespace bdrmap::core
