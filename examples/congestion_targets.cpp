// Congestion measurement target list (the paper's §2 motivation).
//
// The CAIDA/MIT interdomain-congestion project probes the near and far side
// of every interdomain link with TTL-limited probes (time-series latency
// probing, [24]); the paper notes the hard part is *identifying* which
// (near, far) address pairs to probe. This example runs bdrmap and emits
// exactly that target list for the hosting network.
#include <cstdio>

#include "eval/scenario.h"

using namespace bdrmap;

int main() {
  eval::Scenario scenario(eval::small_access_config(7));
  net::AsId vp_as = scenario.first_of(topo::AsKind::kAccess);
  auto vps = scenario.vps_in(vp_as);
  if (vps.empty()) {
    std::fprintf(stderr, "no VP available\n");
    return 1;
  }
  auto result = scenario.run_bdrmap(vps.front());

  std::printf("# near_addr far_addr neighbor_as heuristic\n");
  std::size_t pairs = 0;
  const core::RouterGraph& graph = result.graph;
  for (const auto& link : result.links) {
    // Near-side probe address: an interface of the VP-side router.
    std::string near = "-";
    if (link.vp_router != core::InferredLink::kNoRouter &&
        !graph.addrs(link.vp_router).empty()) {
      near = graph.addrs(link.vp_router).front().str();
    }
    // Far-side probe address: prefer an address on the neighbor router
    // that sits in the VP network's space (the interconnect subnet).
    std::string far = "-";
    if (link.neighbor_router != core::InferredLink::kNoRouter) {
      const auto neighbor = graph.addrs(link.neighbor_router);
      if (!neighbor.empty()) far = neighbor.front().str();
    }
    if (near == "-" && far == "-") continue;
    std::printf("%-16s %-16s %-8s %s\n", near.c_str(), far.c_str(),
                link.neighbor_as.str().c_str(),
                core::heuristic_name(link.how));
    ++pairs;
  }
  std::printf("# %zu probe pairs across %zu neighbor networks\n", pairs,
              result.links_by_as.size());
  return 0;
}
