#include "core/confidence.h"

namespace bdrmap::core {

namespace conf {

double relationship_prior(const asdata::RelationshipStore& rels, AsId a,
                          AsId b) {
  const asdata::Relationship ab = rels.rel(a, b);
  const asdata::Relationship ba = rels.rel(b, a);
  if (ab == asdata::Relationship::kNone &&
      ba == asdata::Relationship::kNone) {
    return 0.0;
  }
  if (ab != asdata::Relationship::kNone && ba == asdata::invert(ab)) {
    return kConsistentEdgePrior;
  }
  return kOneSidedEdgePrior;
}

double prior(Heuristic how) {
  switch (how) {
    case Heuristic::kNone: return 0.0;
    // §5.4.1: the VP's own space followed by more VP space — the most
    // constrained inference the ladder makes.
    case Heuristic::kVpNetwork: return 0.95;
    case Heuristic::kMultihomed: return 0.70;
    // §5.4.2: a terminal VP-addressed router in front of one silent org.
    case Heuristic::kFirewall: return 0.80;
    // §5.4.3: unrouted space — no BGP anchor at all.
    case Heuristic::kUnrouted: return 0.60;
    // §5.4.4: one external AS on the router and the same AS beyond it.
    case Heuristic::kOnenet: return 0.85;
    // §5.4.5: relationship-derived; the edge prior multiplies on top.
    case Heuristic::kThirdParty: return 0.75;
    case Heuristic::kRelationship: return 0.90;
    case Heuristic::kMissingCust: return 0.60;
    case Heuristic::kHiddenPeer: return 0.65;
    // §5.4.6: majority votes — the paper's weakest placements.
    case Heuristic::kCount: return 0.55;
    case Heuristic::kIpAs: return 0.50;
    // §5.4.8: synthetic placements for routers never observed.
    case Heuristic::kSilent: return 0.60;
    case Heuristic::kOtherIcmp: return 0.65;
  }
  return 0.0;
}

}  // namespace conf

}  // namespace bdrmap::core
