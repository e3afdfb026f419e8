#include "core/baseline.h"

#include <algorithm>
#include <set>

namespace bdrmap::core {

BaselineResult naive_ip_as(const SharedTraces& traces,
                           const asdata::OriginTable& origins,
                           const std::vector<AsId>& vp_ases) {
  BaselineResult result;
  auto is_vp = [&](AsId as) {
    return std::find(vp_ases.begin(), vp_ases.end(), as) != vp_ases.end();
  };

  std::set<std::pair<Ipv4Addr, Ipv4Addr>> seen_links;
  for (const auto& trace : traces) {
    Ipv4Addr prev;
    AsId prev_as;
    bool prev_valid = false;
    for (const auto& hop : trace.hops) {
      if (hop.kind != probe::ReplyKind::kTimeExceeded) {
        prev_valid = false;
        continue;
      }
      AsId as = origins.origin(hop.addr);
      result.owners.assign(hop.addr, as);
      if (prev_valid && prev != hop.addr && prev_as != as &&
          is_vp(prev_as) && as.valid() && !is_vp(as)) {
        if (seen_links.emplace(prev, hop.addr).second) {
          result.links.push_back({prev, hop.addr, prev_as, as});
        }
      }
      prev = hop.addr;
      prev_as = as;
      prev_valid = true;
    }
  }
  return result;
}

}  // namespace bdrmap::core
