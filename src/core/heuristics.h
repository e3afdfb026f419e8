// The bdrmap ownership-inference heuristics (§5.4.1 – §5.4.8).
//
// Routers are visited in order of observed hop distance. Step 1 identifies
// the routers operated by the network hosting the VP (the near side of each
// interdomain link); steps 2-6 assign owners to far-side routers in
// decreasing order of available constraints; step 7 collapses analytic
// aliases on the near side; step 8 places neighbors whose routers never
// send time-exceeded messages.
//
// run() walks one rule table in paper order (DESIGN.md §15); the phase
// bodies are private, so it is their only caller.
#pragma once

#include <cstdint>
#include <string>
#include <span>
#include <string_view>
#include <vector>

#include "asdata/as_relationships.h"
#include "asdata/bgp_origins.h"
#include "asdata/ixp.h"
#include "asdata/rir.h"
#include "asdata/siblings.h"
#include "core/router_graph.h"

namespace bdrmap::core {

// The §5.2 input datasets, as the deployed tool receives them: a public
// (collector-derived) origin table, *inferred* relationships, IXP and RIR
// records, the global AS-to-organization table, and the manually curated
// sibling list of the VP's own network.
struct InferenceInputs {
  const asdata::OriginTable* origins = nullptr;
  const asdata::RelationshipStore* rels = nullptr;
  const asdata::IxpDirectory* ixps = nullptr;
  const asdata::RirDelegations* rir = nullptr;
  const asdata::SiblingTable* siblings = nullptr;
  std::vector<AsId> vp_ases;  // VP AS first, then its siblings
};

// Fire/skip accounting for one §5.4 rule, in paper order.
struct HeuristicRuleStats {
  std::string slug;
  std::uint64_t fires = 0;  // assignments/placements made by the rule
  std::uint64_t skips = 0;  // times run() skipped it (disabled/missing rels)
};

// Slugs of the eight §5.4 rules in paper order: vp_network, firewall,
// unrouted, onenet, relationships, counting, analytic_alias, uncooperative.
std::vector<std::string_view> heuristic_rule_slugs();

struct HeuristicsConfig {
  // Rules run() skips (counted in rule_stats()), by heuristic_rule_slugs()
  // name; a name that is no rule contract-fails. Ablations only.
  std::vector<std::string> disabled_rules;
};

// How an address maps through the public BGP view.
enum class AddrClass : std::uint8_t {
  kVp,        // originated by the VP network (or RIR-attributed to it)
  kExternal,  // originated by some other network
  kIxp,       // inside a known IXP peering LAN (IP-AS mapping meaningless)
  kUnrouted,  // no covering announcement
};

struct AddrInfo {
  AddrClass cls = AddrClass::kUnrouted;
  AsId origin;  // valid for kExternal (lowest origin of the longest match)
};

// A §5.4.8 inference: a neighbor with no visible router, attached to a
// specific VP border router.
struct UncooperativeNeighbor {
  std::size_t vp_router;  // index into the router graph
  AsId neighbor;
  Heuristic how;  // kSilent or kOtherIcmp
  // Inference strength in [0,1] (DESIGN.md §15); excluded from
  // eval::same_border_map.
  double confidence = 0.0;
};

class Heuristics {
 public:
  Heuristics(RouterGraph& graph, const InferenceInputs& in,
             HeuristicsConfig config = {});

  // Runs the §5.4 rules in paper order, mutating the graph's ownership
  // annotations, and returns the §5.4.8 placements.
  std::vector<UncooperativeNeighbor> run();

  // Classification of an address (valid after construction). Addresses in
  // the graph's address table read the per-id table the constructor fills
  // with one longest match each; any other address is computed afresh.
  AddrInfo classify(Ipv4Addr addr) const;

  // Unrouted blocks attributed to the VP network via RIR delegations
  // (§5.4.1), in discovery order.
  const std::vector<net::Prefix>& vp_extra_blocks() const {
    return vp_extra_blocks_;
  }

  // External origins of the first routed hop after `router` in each trace,
  // in trace order: a view into one flat table built in one pass over all
  // traces on first use, so it is only valid before the first alias merge
  // (§5.4.3 and §5.4.5, its callers, both run before §5.4.7 merges).
  std::span<const AsId> first_external_after(std::size_t router) const;

  // Representative AS for sibling-collapsing comparisons: the lowest AS
  // of its organization (itself without a sibling table).
  AsId org_rep(AsId as) const;

  const HeuristicsConfig& config() const { return config_; }
  const InferenceInputs& inputs() const { return in_; }

  // Fire/skip counters per rule (paper order), valid after run().
  const std::vector<HeuristicRuleStats>& rule_stats() const {
    return rule_stats_;
  }

 private:
  friend std::vector<std::string_view> heuristic_rule_slugs();

  // One row of the §5.4 rule table (heuristics.cc).
  struct Rule {
    std::string_view slug;
    bool needs_relationships;  // skipped without InferenceInputs::rels
    void (Heuristics::*phase)();
  };
  static const Rule kRules[8];

  // Sentinel for current_rule_: no rule is firing.
  static constexpr std::size_t kNoRule = static_cast<std::size_t>(-1);

  // What the public BGP view and the IXP list say about one address: the
  // inputs of classify() and of the §5.4.1 RIR extension.
  struct AddrRouting {
    const std::vector<AsId>* origins = nullptr;  // longest match, if any
    bool ixp = false;            // inside a known IXP peering LAN
    bool vp_originated = false;  // some origin of the match is a VP AS
  };

  bool is_vp_as(AsId as) const;
  // The longest-match and IXP lookups for `addr`.
  AddrRouting routing_of(Ipv4Addr addr) const;
  // classify() given the address's routing (and vp_extra_blocks_).
  AddrInfo classify_routed(Ipv4Addr addr, const AddrRouting& routing) const;
  // One pass over all traces filling the first-external table for every
  // router at once (see first_external_after).
  void build_first_external_table() const;
  // Every time-exceeded address of the router is VP space (and it has one).
  bool all_vp(std::size_t router) const;
  // The one external origin over the router's time-exceeded addresses, or
  // kNoAs when they have none or several.
  AsId sole_external_origin(std::size_t router) const;

  // An AS with its votes; tallies are ascending by AS.
  struct Tally {
    AsId as;
    int count = 0;
  };
  // Tallies `votes` (sorting it) into `out`.
  static void tally(std::vector<AsId>& votes, std::vector<Tally>& out);
  // External origins (with address counts) over adjacent next routers,
  // into `out`; `votes` is scratch.
  void adjacent_origin_counts(std::size_t router, std::vector<AsId>& votes,
                              std::vector<Tally>& out) const;

  // The most voted AS of a tally (ties to the lowest AS), with the vote
  // counts behind it, so callers can turn the majority share into a
  // confidence (DESIGN.md §15).
  struct Majority {
    AsId as;        // kNoAs when nothing was voted for
    int best = 0;   // votes for the winner
    int total = 0;  // all votes cast
  };
  static Majority majority(const std::vector<Tally>& tallies);
  // nextas(r): the most common provider among the destination ASes probed
  // through the router (§5.4 final paragraph); `votes` and `tallies` are
  // scratch.
  Majority nextas_scored(std::size_t router, std::vector<AsId>& votes,
                         std::vector<Tally>& tallies) const;
  // The distinct organizations of `ases` (by org_rep), first-seen order,
  // into `out`.
  void distinct_orgs(std::span<const AsId> ases,
                     std::vector<AsId>& out) const;

  // §5.4.1 RIR delegation extension, given the routing of every id of the
  // graph's address table.
  void extend_vp_space(const std::vector<AddrRouting>& routing);
  // Phases 5 and 8 read in_.rels; run() calls them only when it is set.
  void phase1_vp_network();          // §5.4.1
  void phase2_firewall();            // §5.4.2
  void phase3_unrouted();            // §5.4.3
  void phase4_onenet();              // §5.4.4
  void phase5_relationships();       // §5.4.5
  void phase6_counting();            // §5.4.6
  void phase7_analytic_alias();      // §5.4.7
  void phase8_uncooperative();       // §5.4.8, appends to placements_

  void assign(std::size_t router, AsId owner, Heuristic how, bool vp_side,
              double confidence);
  // Credits the currently-firing rule's fire counter (no-op between rules).
  void note_fire();

  RouterGraph& graph_;
  const InferenceInputs& in_;
  HeuristicsConfig config_;
  AsId vp_as_;  // primary VP AS
  // Unrouted blocks attributed to the VP network via RIR delegations.
  std::vector<net::Prefix> vp_extra_blocks_;
  // classify() of every id of the graph's address table (DESIGN.md §14).
  std::vector<AddrInfo> info_;
  // Live routers by hop distance; run() computes it once, since only the
  // §5.4.7 merges (after every reader of it) change the graph.
  std::vector<std::size_t> order_;
  // Compiled-scan cache (DESIGN.md §14), one flat table: router r's
  // first-external origins are first_external_values_[offsets r .. r + 1).
  // Mutable: it memoizes a const lookup without changing observable
  // results.
  mutable std::vector<std::uint32_t> first_external_offsets_;
  mutable std::vector<AsId> first_external_values_;
  mutable bool first_external_built_ = false;
  // Per-rule accounting (kRules order).
  std::vector<HeuristicRuleStats> rule_stats_;
  std::size_t current_rule_ = kNoRule;
  // §5.4.8 placements; run() returns them.
  std::vector<UncooperativeNeighbor> placements_;
};

}  // namespace bdrmap::core
