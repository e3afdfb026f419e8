#include "eval/geo.h"

namespace bdrmap::eval {

std::optional<double> rdns_longitude(
    const topo::Internet& net, const std::vector<net::Ipv4Addr>& addrs) {
  for (net::Ipv4Addr a : addrs) {
    auto name = net.reverse_dns().lookup(a);
    if (!name) continue;
    auto hints = asdata::parse_hostname(*name);
    if (!hints.city_code) continue;
    for (const auto& pop : net.pops()) {
      if (asdata::city_code_of(pop.city) == *hints.city_code) {
        return pop.longitude;
      }
    }
  }
  return std::nullopt;
}

DnsSanity dns_sanity_check(const core::BdrmapResult& result,
                           const topo::Internet& net) {
  DnsSanity out;
  const core::RouterGraph& graph = result.graph;
  for (std::size_t i = 0; i < graph.routers().size(); ++i) {
    const core::GraphRouter& router = graph.routers()[i];
    if (graph.merged_away(i) || router.vp_side ||
        router.how == core::Heuristic::kNone || !router.owner.valid()) {
      continue;
    }
    std::optional<net::AsId> hint;
    for (net::Ipv4Addr a : graph.addrs(i)) {
      auto name = net.reverse_dns().lookup(a);
      if (!name) continue;
      auto hints = asdata::parse_hostname(*name);
      if (hints.as_hint) {
        hint = hints.as_hint;
        break;
      }
    }
    if (!hint) continue;
    ++out.routers_checked;
    if (net.sibling_table().are_siblings(*hint, router.owner)) {
      ++out.agree;
    } else {
      ++out.disagree;
    }
  }
  return out;
}

}  // namespace bdrmap::eval
