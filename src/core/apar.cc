#include "core/apar.h"

#include <map>
#include <set>

#include "netbase/contract.h"

namespace bdrmap::core {

AparStats run_apar(const SharedTraces& traces,
                   AliasResolver& resolver) {
  AparStats stats;

  // Observed time-exceeded addresses, their trace memberships, and the
  // adjacency relation.
  std::set<Ipv4Addr> observed;
  std::map<Ipv4Addr, std::set<std::size_t>> traces_of;
  std::set<std::pair<Ipv4Addr, Ipv4Addr>> adjacent;  // ordered (prev, next)
  std::vector<std::pair<Ipv4Addr, Ipv4Addr>> pairs;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    Ipv4Addr prev;
    bool prev_valid = false;
    for (const auto& hop : traces[t].hops) {
      if (hop.kind != probe::ReplyKind::kTimeExceeded) {
        prev_valid = false;
        continue;
      }
      observed.insert(hop.addr);
      traces_of[hop.addr].insert(t);
      if (prev_valid && prev != hop.addr) {
        if (adjacent.emplace(prev, hop.addr).second) {
          pairs.emplace_back(prev, hop.addr);
        }
      }
      prev = hop.addr;
      prev_valid = true;
    }
  }
  stats.adjacencies = pairs.size();

  auto share_trace_nonadjacently = [&](Ipv4Addr a, Ipv4Addr b) {
    // True if some trace contains both a and b (at distinct hops): a
    // loop-free path visits a router once, so a and b cannot alias.
    auto ia = traces_of.find(a);
    auto ib = traces_of.find(b);
    if (ia == traces_of.end() || ib == traces_of.end()) return false;
    for (std::size_t t : ia->second) {
      if (ib->second.count(t)) return true;
    }
    return false;
  };

  for (const auto& [x, y] : pairs) {
    // Candidate mates of y on a /31 then /30 point-to-point subnet.
    std::vector<Ipv4Addr> mates;
    mates.push_back(net::mate31(y));
    if (auto m30 = net::mate30(y)) mates.push_back(*m30);
    for (Ipv4Addr mate : mates) {
      if (mate == x || mate == y) continue;
      if (!observed.count(mate)) continue;
      ++stats.mates_observed;
      // Veto 1: the mate is observed adjacent to x (either direction):
      // then mate and x are two ends of a link, not one router.
      if (adjacent.count({x, mate}) || adjacent.count({mate, x})) {
        ++stats.vetoed_adjacent;
        continue;
      }
      // Veto 2: the mate and x appear in one trace -> distinct routers.
      if (share_trace_nonadjacently(mate, x)) {
        ++stats.vetoed_same_trace;
        continue;
      }
      // Honor existing negative evidence.
      if (resolver.verdict_of(x, mate) == AliasVerdict::kNotAlias) continue;
      resolver.declare(x, mate, AliasVerdict::kAlias);
      ++stats.accepted;
      break;  // one subnet hypothesis per (x, y)
    }
  }
  // Every accepted or vetoed hypothesis started as an observed mate.
  BDRMAP_ENSURES(stats.accepted + stats.vetoed_adjacent +
                     stats.vetoed_same_trace <=
                 stats.mates_observed);
  return stats;
}

}  // namespace bdrmap::core
