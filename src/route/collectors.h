// Simulated public BGP view (Route Views / RIPE RIS analogue, §5.2).
//
// A set of collector-peer ASes export their best AS path to every announced
// prefix. The union of those paths is what the public sees: origin tables
// for IP-AS mapping, and the input to relationship inference. Crucially the
// view is *incomplete* exactly the way the real one is: a peer-peer link is
// visible only when it lies on some collector peer's best path, so peerings
// of networks the collectors don't peer with (route-server peerings of
// content networks, regional peerings of access networks) stay hidden —
// the "hidden peer" phenomenon bdrmap's Table 1 quantifies.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "asdata/bgp_origins.h"
#include "asdata/relationship_inference.h"
#include "netbase/rng.h"
#include "route/bgp_sim.h"
#include "topo/internet.h"

namespace bdrmap::route {

struct CollectorConfig {
  // Fraction of transit networks that peer with the collectors.
  double transit_peer_fraction = 0.4;
  // Fraction of access networks that peer with the collectors. Real
  // eyeball networks rarely feed Route Views, which is what hides their
  // route-server peerings from the public view.
  double access_peer_fraction = 0.15;
  // The featured (first) access network — the §6 measurement target —
  // never feeds the collectors: its content peerings must be discoverable
  // only by traceroute (the Table 1 "trace" column).
  bool exclude_featured_access = true;
  std::uint64_t seed = 7;
};

class CollectorView {
 public:
  CollectorView(const topo::Internet& net, const BgpSimulator& bgp,
                const CollectorConfig& config = {});

  // Prefix -> origin table derived from the collected paths (§5.2 "Public
  // BGP data"). Unannounced infrastructure space is absent by construction.
  const asdata::OriginTable& public_origins() const { return origins_; }

  // Every AS path collected (first element: collector peer; last: origin),
  // grouped by peer and, within a peer, in ascending origin order.
  const std::vector<std::vector<net::AsId>>& paths() const { return paths_; }

  // Collector peer ASes.
  const std::vector<net::AsId>& peer_ases() const { return peers_; }

  // Runs CAIDA-style relationship inference over the collected paths.
  asdata::RelationshipStore infer_relationships(
      asdata::RelationshipInferenceConfig config = {}) const;

  // True iff the AS-level link a-b appears in any collected path.
  bool link_visible(net::AsId a, net::AsId b) const;

 private:
  std::vector<net::AsId> peers_;
  std::vector<std::vector<net::AsId>> paths_;
  asdata::OriginTable origins_;
  std::unordered_set<std::uint64_t> visible_links_;
};

}  // namespace bdrmap::route
