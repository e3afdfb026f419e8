// Inferred router-level graph: alias groups + traceroute adjacency.
//
// Nodes are inferred routers (alias sets from core::AliasResolver, plus
// singletons for unresolved addresses). Edges follow consecutive responsive
// hops in traces. Per the paper, ownership heuristics only trust interfaces
// observed in ICMP time-exceeded messages — echo replies carry the probed
// address and say nothing about which router holds it (§5.3) — so the graph
// tracks which observations came from time-exceeded replies.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/observations.h"
#include "netbase/ids.h"

namespace bdrmap::core {

// Which heuristic produced an ownership inference; names follow the rows of
// Table 1 in the paper.
enum class Heuristic : std::uint8_t {
  kNone,
  kVpNetwork,    // §5.4.1 near side (steps 1.2 / RIR extension)
  kMultihomed,   // §5.4.1 step 1.1 exception ("1. Multihomed to VP")
  kFirewall,     // §5.4.2 ("2. Firewall")
  kUnrouted,     // §5.4.3 ("3. Unrouted interface")
  kOnenet,       // §5.4.4 ("4. IP-AS (onenet)")
  kThirdParty,   // §5.4.5 steps 5.1/5.2 ("5. Third party")
  kRelationship, // §5.4.5 step 5.3 ("5. AS relationship")
  kMissingCust,  // §5.4.5 step 5.4 ("5. Missing customer")
  kHiddenPeer,   // §5.4.5 step 5.5 ("5. Hidden peer")
  kCount,        // §5.4.6 step 6.1 ("6. Count")
  kIpAs,         // §5.4.6 step 6.2 ("6. IP-AS")
  kSilent,       // §5.4.8 step 8.1 ("8. Silent neighbor")
  kOtherIcmp,    // §5.4.8 step 8.2 ("8. Other ICMP")
};

// The paper's Table 1 row name ("2. Firewall").
const char* heuristic_name(Heuristic h);
// The metric tag of a placement ("firewall", "third_party"): the <tag> of
// core.confidence.<tag>.
const char* heuristic_tag(Heuristic h);

struct GraphRouter {
  std::vector<Ipv4Addr> addrs;      // full alias set (sorted)
  std::vector<Ipv4Addr> ttl_addrs;  // subset seen in time-exceeded replies
  int min_hop = std::numeric_limits<int>::max();  // observed hop distance
  std::set<std::size_t> prev;  // routers observed immediately before
  std::set<std::size_t> next;  // routers observed immediately after
  std::set<AsId> dest_ases;    // target ASes probed through this router
  // Target ASes for which this router was the last responsive hop.
  std::set<AsId> terminal_for;

  // Ownership inference (filled by core::Heuristics).
  AsId owner;
  Heuristic how = Heuristic::kNone;
  bool vp_side = false;  // operated by the network hosting the VP
  // Inference strength in [0,1] (DESIGN.md §15). Annotation only — never
  // feeds placement decisions and excluded from eval::same_border_map.
  double confidence = 0.0;
};

class RouterGraph {
 public:
  // Builds the graph from traces and alias groups (taking ownership of the
  // traces). Addresses not covered by any group become singleton routers.
  RouterGraph(std::vector<ObservedTrace> traces,
              const std::vector<std::vector<Ipv4Addr>>& alias_groups);

  std::vector<GraphRouter>& routers() { return routers_; }
  const std::vector<GraphRouter>& routers() const { return routers_; }

  // Router index carrying `addr`, if observed.
  std::optional<std::size_t> router_of(Ipv4Addr addr) const;

  // Routers sorted by observed hop distance (nearest first).
  std::vector<std::size_t> by_hop_distance() const;

  // Merges router `from` into router `into` (the §5.4.7 analytic alias
  // collapse). Adjacency, addresses and annotations are unioned.
  void merge(std::size_t into, std::size_t from);

  const std::vector<ObservedTrace>& traces() const { return traces_; }

  std::size_t live_router_count() const;
  bool merged_away(std::size_t i) const { return routers_[i].addrs.empty(); }

 private:
  std::vector<GraphRouter> routers_;
  std::unordered_map<Ipv4Addr, std::size_t> addr_to_router_;
  std::vector<ObservedTrace> traces_;
};

}  // namespace bdrmap::core
