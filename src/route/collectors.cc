#include "route/collectors.h"

#include <algorithm>
#include <unordered_set>

namespace bdrmap::route {

namespace {
std::uint64_t link_key(net::AsId a, net::AsId b) {
  net::AsId lo = std::min(a, b), hi = std::max(a, b);
  return (std::uint64_t{lo.value} << 32) | hi.value;
}
}  // namespace

CollectorView::CollectorView(const topo::Internet& net,
                             const BgpSimulator& bgp,
                             const CollectorConfig& config) {
  net::Rng rng(config.seed);

  // Collector peers: every Tier-1, a fraction of transit and access
  // networks, and one R&E network (research networks feed collectors).
  bool picked_ren = false;
  bool first_access = true;
  for (const auto& info : net.ases()) {
    if (info.kind == topo::AsKind::kAccess && first_access) {
      first_access = false;
      if (config.exclude_featured_access) continue;
    }
    switch (info.kind) {
      case topo::AsKind::kTier1:
        peers_.push_back(info.id);
        break;
      case topo::AsKind::kTransit:
        if (rng.chance(config.transit_peer_fraction)) {
          peers_.push_back(info.id);
        }
        break;
      case topo::AsKind::kAccess:
        if (rng.chance(config.access_peer_fraction)) {
          peers_.push_back(info.id);
        }
        break;
      case topo::AsKind::kResearchEdu:
        if (!picked_ren) {
          peers_.push_back(info.id);
          picked_ren = true;
        }
        break;
      default:
        break;
    }
  }

  // Each collector peer contributes its best path to every origin AS, and
  // the origins of every announced prefix it can reach. Origins are walked
  // in ascending order, so each peer's paths come in that order.
  std::vector<net::AsId> origin_ases;
  for (const auto& ap : net.announced()) origin_ases.push_back(ap.origin);
  // MOAS co-origins appear in the truth origin table as additional origins.
  for (const auto& [prefix, origin_set] : net.truth_origins().all_prefixes()) {
    origin_ases.insert(origin_ases.end(), origin_set.begin(), origin_set.end());
  }
  std::sort(origin_ases.begin(), origin_ases.end());
  origin_ases.erase(std::unique(origin_ases.begin(), origin_ases.end()),
                    origin_ases.end());

  std::unordered_set<net::AsId> reachable_origins;
  for (net::AsId cp : peers_) {
    for (net::AsId origin : origin_ases) {
      auto path = bgp.as_path(cp, origin);
      if (path.size() < 2) {
        if (path.size() == 1) reachable_origins.insert(origin);
        continue;
      }
      reachable_origins.insert(origin);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        visible_links_.insert(link_key(path[i], path[i + 1]));
      }
      paths_.push_back(std::move(path));
    }
  }

  // The public origin table: every (prefix, origin) whose origin some
  // collector reaches.
  for (const auto& [prefix, origin_set] : net.truth_origins().all_prefixes()) {
    for (net::AsId o : origin_set) {
      if (reachable_origins.count(o)) origins_.add(prefix, o);
    }
  }
}

asdata::RelationshipStore CollectorView::infer_relationships(
    asdata::RelationshipInferenceConfig config) const {
  asdata::RelationshipInferrer inferrer(config);
  for (const auto& path : paths_) inferrer.add_path(path);
  return inferrer.infer();
}

bool CollectorView::link_visible(net::AsId a, net::AsId b) const {
  return visible_links_.count(link_key(a, b)) > 0;
}

}  // namespace bdrmap::route
