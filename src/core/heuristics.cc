#include "core/heuristics.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>

#include "core/confidence.h"
#include "netbase/contract.h"

namespace bdrmap::core {

// The §5.4 ladder (DESIGN.md §15), run in this order by run().
constexpr Heuristics::Rule Heuristics::kRules[8] = {
    {"vp_network", false, &Heuristics::phase1_vp_network},           // §5.4.1
    {"firewall", false, &Heuristics::phase2_firewall},               // §5.4.2
    {"unrouted", false, &Heuristics::phase3_unrouted},               // §5.4.3
    {"onenet", false, &Heuristics::phase4_onenet},                   // §5.4.4
    {"relationships", true, &Heuristics::phase5_relationships},      // §5.4.5
    {"counting", false, &Heuristics::phase6_counting},               // §5.4.6
    {"analytic_alias", false, &Heuristics::phase7_analytic_alias},   // §5.4.7
    {"uncooperative", true, &Heuristics::phase8_uncooperative},      // §5.4.8
};

std::vector<std::string_view> heuristic_rule_slugs() {
  std::vector<std::string_view> slugs;
  for (const Heuristics::Rule& rule : Heuristics::kRules) {
    slugs.push_back(rule.slug);
  }
  return slugs;
}

Heuristics::Heuristics(RouterGraph& graph, const InferenceInputs& in,
                       HeuristicsConfig config)
    : graph_(graph), in_(in), config_(std::move(config)) {
  vp_as_ = in_.vp_ases.empty() ? AsId{} : in_.vp_ases.front();
  for (const Rule& rule : kRules) {
    rule_stats_.push_back({std::string(rule.slug), 0, 0});
  }
  for (const std::string& slug : config_.disabled_rules) {
    BDRMAP_EXPECTS(std::any_of(std::begin(kRules), std::end(kRules),
                               [&](const Rule& r) { return r.slug == slug; }),
                   "HeuristicsConfig::disabled_rules names no §5.4 rule");
  }
  // One longest match per distinct address: the routing of every id
  // feeds both the RIR extension and the per-id classification.
  const std::size_t ids = graph_.address_count();
  std::vector<AddrRouting> routing;
  routing.reserve(ids);
  for (std::uint32_t id = 0; id < ids; ++id) {
    routing.push_back(routing_of(graph_.address(id)));
  }
  extend_vp_space(routing);
  info_.reserve(ids);
  for (std::uint32_t id = 0; id < ids; ++id) {
    info_.push_back(classify_routed(graph_.address(id), routing[id]));
  }
}

std::vector<UncooperativeNeighbor> Heuristics::run() {
  order_ = graph_.by_hop_distance();
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    const Rule& rule = kRules[i];
    const bool disabled =
        std::find(config_.disabled_rules.begin(), config_.disabled_rules.end(),
                  rule.slug) != config_.disabled_rules.end();
    if (disabled || (rule.needs_relationships && !in_.rels)) {
      ++rule_stats_[i].skips;
      continue;
    }
    current_rule_ = i;
    (this->*rule.phase)();
    current_rule_ = kNoRule;
  }
  return std::move(placements_);
}

bool Heuristics::is_vp_as(AsId as) const {
  return std::find(in_.vp_ases.begin(), in_.vp_ases.end(), as) !=
         in_.vp_ases.end();
}

AsId Heuristics::org_rep(AsId as) const {
  return in_.siblings ? in_.siblings->representative(as) : as;
}

AddrInfo Heuristics::classify(Ipv4Addr addr) const {
  if (const std::optional<std::uint32_t> id = graph_.id_of(addr)) {
    return info_[*id];
  }
  return classify_routed(addr, routing_of(addr));
}

Heuristics::AddrRouting Heuristics::routing_of(Ipv4Addr addr) const {
  AddrRouting out;
  out.origins = in_.origins->origins(addr);
  out.ixp = in_.ixps && in_.ixps->is_ixp_address(addr);
  if (out.origins) {
    out.vp_originated =
        std::any_of(out.origins->begin(), out.origins->end(),
                    [&](AsId o) { return is_vp_as(o); });
  }
  return out;
}

AddrInfo Heuristics::classify_routed(Ipv4Addr addr,
                                     const AddrRouting& routing) const {
  if (routing.ixp) return {AddrClass::kIxp, AsId{}};
  if (routing.origins && !routing.origins->empty()) {
    // If any origin of the longest match is a VP sibling, the address
    // belongs to the hosting network's space.
    if (routing.vp_originated) return {AddrClass::kVp, vp_as_};
    return {AddrClass::kExternal, routing.origins->front()};
  }
  for (const auto& block : vp_extra_blocks_) {
    if (block.contains(addr)) return {AddrClass::kVp, vp_as_};
  }
  return {AddrClass::kUnrouted, AsId{}};
}

void Heuristics::extend_vp_space(const std::vector<AddrRouting>& routing) {
  // §5.4.1: when an address originated by a VP AS appears in a trace, all
  // previous unrouted addresses on the path back to the VP are assumed to
  // be delegated to the hosting network; the RIR files name the blocks.
  if (!in_.rir) return;

  // The delegation of each id is looked up at most once: a repeat lookup
  // would name a block (and organization) already recorded.
  std::vector<std::uint8_t> looked_up(routing.size(), 0);
  auto add_block = [&](const net::Prefix& block) {
    if (std::find(vp_extra_blocks_.begin(), vp_extra_blocks_.end(), block) ==
        vp_extra_blocks_.end()) {
      vp_extra_blocks_.push_back(block);
    }
  };
  const auto& traces = graph_.traces();

  // Robustness anchor: the TTL-1 hop of a trace is the VP host's default
  // gateway — hosting-network infrastructure by construction, even when
  // the public BGP view lost the announcement covering its address (stale
  // collector data corrupts exactly this in the adversarial scenarios).
  // When that address is unrouted, the RIR delegation holding it — plus
  // every other block the registry files under the same organization —
  // recovers the VP's infrastructure space; without this, a single missing
  // origin row can erase the whole kVp address class and with it every
  // border inference.
  std::vector<net::OrgId> vp_orgs;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    if (traces[t].hops.empty()) continue;
    if (traces[t].hops.front().kind != probe::ReplyKind::kTimeExceeded) {
      continue;
    }
    const std::uint32_t id = graph_.hop_ids(t).front();
    // Routed: classify works.
    if (routing[id].origins || routing[id].ixp || looked_up[id]) continue;
    looked_up[id] = 1;
    auto delegation = in_.rir->lookup(graph_.address(id));
    if (!delegation) continue;
    add_block(delegation->block);
    if (std::find(vp_orgs.begin(), vp_orgs.end(), delegation->org) ==
        vp_orgs.end()) {
      vp_orgs.push_back(delegation->org);
    }
  }
  for (net::OrgId org : vp_orgs) {
    for (const auto& d : in_.rir->all()) {
      if (d.org == org) add_block(d.block);
    }
  }

  // BDRMAP_HOT_BEGIN(extend_vp_space)
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const auto& hops = traces[t].hops;
    const std::span<const std::uint32_t> ids = graph_.hop_ids(t);
    // Find the last hop whose address is VP-originated in public BGP.
    std::size_t last_vp = 0;
    for (std::size_t i = hops.size(); i-- > 0;) {
      if (hops[i].kind == probe::ReplyKind::kTimeExceeded &&
          routing[ids[i]].vp_originated) {
        last_vp = i;
        break;
      }
    }
    for (std::size_t i = 0; i < last_vp; ++i) {
      if (hops[i].kind != probe::ReplyKind::kTimeExceeded) continue;
      const std::uint32_t id = ids[i];
      // Routed: not missing.
      if (routing[id].origins || routing[id].ixp || looked_up[id]) continue;
      looked_up[id] = 1;
      auto delegation = in_.rir->lookup(graph_.address(id));
      if (delegation) add_block(delegation->block);
    }
  }
  // BDRMAP_HOT_END(extend_vp_space)
}

bool Heuristics::all_vp(const GraphRouter& r) const {
  if (r.ttl_addrs.empty()) return false;
  for (Ipv4Addr a : r.ttl_addrs) {
    if (classify(a).cls != AddrClass::kVp) return false;
  }
  return true;
}

std::vector<AsId> Heuristics::external_origins(const GraphRouter& r) const {
  std::vector<AsId> out;
  for (Ipv4Addr a : r.ttl_addrs) {
    AddrInfo info = classify(a);
    if (info.cls == AddrClass::kExternal &&
        std::find(out.begin(), out.end(), info.origin) == out.end()) {
      out.push_back(info.origin);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<AsId> Heuristics::first_external_after(std::size_t router) const {
  if (!first_external_built_) build_first_external_table();
  return first_external_table_[router];
}

void Heuristics::build_first_external_table() const {
  // Computes first_external_after for every router in one sweep instead of
  // rescanning all traces per candidate. Walking a trace, each router that
  // has appeared is "pending" until the first later routed-external hop on
  // a *different* router supplies its origin; a router's own first hop is
  // consumed before it joins the pending set, so hops strictly after the
  // first occurrence are considered — exactly a per-router rescan (the
  // reference oracle in tests/walk_reference_test.cc).
  const std::size_t count = graph_.routers().size();
  first_external_table_.assign(count, {});
  std::vector<std::uint32_t> seen_epoch(count, 0);
  std::vector<std::uint32_t> pending;
  std::uint32_t epoch = 0;
  const auto& traces = graph_.traces();
  // BDRMAP_HOT_BEGIN(first_external_scan)
  for (std::size_t t = 0; t < traces.size(); ++t) {
    ++epoch;
    pending.clear();
    const auto& hops = traces[t].hops;
    const std::span<const std::uint32_t> ids = graph_.hop_ids(t);
    for (std::size_t h = 0; h < hops.size(); ++h) {
      if (hops[h].kind != probe::ReplyKind::kTimeExceeded) continue;
      const std::uint32_t x = graph_.router_of_id(ids[h]);
      if (!pending.empty()) {
        const AddrInfo& info = info_[ids[h]];
        if (info.cls == AddrClass::kExternal) {
          std::size_t keep = 0;
          for (std::size_t i = 0; i < pending.size(); ++i) {
            if (pending[i] == x) {  // a router never answers for itself
              pending[keep++] = pending[i];
              continue;
            }
            first_external_table_[pending[i]].push_back(info.origin);
          }
          pending.resize(keep);
        }
      }
      if (seen_epoch[x] != epoch) {
        seen_epoch[x] = epoch;
        pending.push_back(x);
      }
    }
  }
  // BDRMAP_HOT_END(first_external_scan)
  first_external_built_ = true;
}

std::unordered_map<AsId, int> Heuristics::adjacent_origin_counts(
    std::size_t router) const {
  std::unordered_map<AsId, int> counts;
  for (std::size_t n : graph_.routers()[router].next) {
    for (Ipv4Addr a : graph_.routers()[n].ttl_addrs) {
      AddrInfo info = classify(a);
      if (info.cls == AddrClass::kExternal) ++counts[info.origin];
    }
  }
  return counts;
}

Heuristics::ScoredNextas Heuristics::nextas_scored(std::size_t router) const {
  ScoredNextas out;
  const GraphRouter& r = graph_.routers()[router];
  if (r.dest_ases.size() < 2 || !in_.rels) return out;
  std::map<AsId, int> provider_counts;
  for (AsId dest : r.dest_ases) {
    for (AsId p : in_.rels->providers(dest)) ++provider_counts[p];
  }
  for (const auto& [as, count] : provider_counts) {
    out.total += count;
    if (count > out.best) {
      out.as = as;
      out.best = count;
    }
  }
  return out;
}

AsId Heuristics::nextas(std::size_t router) const {
  return nextas_scored(router).as;
}

void Heuristics::assign(std::size_t router, AsId owner, Heuristic how,
                        bool vp_side, double confidence) {
  GraphRouter& r = graph_.routers()[router];
  r.owner = owner;
  r.how = how;
  r.vp_side = vp_side;
  r.confidence = conf::clamp01(confidence);
  note_fire();
}

void Heuristics::note_fire() {
  if (current_rule_ != kNoRule) ++rule_stats_[current_rule_].fires;
}

// ---------------------------------------------------------------------------
// §5.4.1
// ---------------------------------------------------------------------------

void Heuristics::phase1_vp_network() {
  // Precompute, per router, whether any VP-originated time-exceeded address
  // appears after it in some trace (step 1.2's condition).
  std::vector<char> vp_after(graph_.routers().size(), 0);
  const auto& traces = graph_.traces();
  // BDRMAP_HOT_BEGIN(vp_after)
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const auto& hops = traces[t].hops;
    const std::span<const std::uint32_t> ids = graph_.hop_ids(t);
    bool vp_seen_later = false;
    for (std::size_t i = hops.size(); i-- > 0;) {
      if (hops[i].kind != probe::ReplyKind::kTimeExceeded) continue;
      if (vp_seen_later) vp_after[graph_.router_of_id(ids[i])] = 1;
      if (info_[ids[i]].cls == AddrClass::kVp) vp_seen_later = true;
    }
  }
  // BDRMAP_HOT_END(vp_after)

  for (std::size_t r : order_) {
    const GraphRouter& router = graph_.routers()[r];
    if (router.how != Heuristic::kNone) continue;
    // Any VP-originated interface suffices here: alias resolution merges a
    // border's neighbor-supplied point-to-point addresses into the same
    // router, and those must not disqualify it (step 1.2 / Figure 13).
    bool any_vp = false;
    for (Ipv4Addr a : router.ttl_addrs) {
      any_vp |= classify(a).cls == AddrClass::kVp;
    }
    if (!any_vp || !vp_after[r]) continue;

    // Step 1.1 exception: A multihomed to the VP network with adjacent
    // border routers. R (VP-addressed) is followed by another VP-addressed
    // router R2, and addresses originated by A appear adjacent to both.
    // Only a router that exclusively carries traffic toward A can be A's
    // border — the VP's own borders forward toward many organizations.
    AsId multihomed_as;
    std::vector<AsId> dest_orgs;
    for (AsId dest : router.dest_ases) {
      AsId rep = org_rep(dest);
      if (std::find(dest_orgs.begin(), dest_orgs.end(), rep) ==
          dest_orgs.end()) {
        dest_orgs.push_back(rep);
      }
    }
    if (dest_orgs.size() == 1) {
      for (std::size_t n : router.next) {
        const GraphRouter& r2 = graph_.routers()[n];
        if (!all_vp(r2)) continue;
        // External AS adjacent to both R and R2, matching the sole
        // destination organization?
        auto counts_r = adjacent_origin_counts(r);
        auto counts_r2 = adjacent_origin_counts(n);
        for (const auto& [as, count] : counts_r) {
          if (counts_r2.count(as) && org_rep(as) == dest_orgs.front()) {
            multihomed_as = as;
            break;
          }
        }
        if (multihomed_as.valid()) break;
      }
    }
    if (multihomed_as.valid() && in_.rels) {
      // Veto: a subsequent router's would-be owner is a customer of the VP
      // network but not a known neighbor of A — then R is really the VP's.
      bool veto = false;
      for (std::size_t n : router.next) {
        for (AsId o : external_origins(graph_.routers()[n])) {
          if (o == multihomed_as) continue;
          bool customer_of_vp = false;
          for (AsId v : in_.vp_ases) {
            if (in_.rels->rel(v, o) == asdata::Relationship::kCustomer) {
              customer_of_vp = true;
            }
          }
          if (customer_of_vp && !in_.rels->are_neighbors(multihomed_as, o)) {
            veto = true;
          }
        }
      }
      if (!veto) {
        assign(r, multihomed_as, Heuristic::kMultihomed, /*vp_side=*/false,
               conf::prior(Heuristic::kMultihomed));
        continue;
      }
    }

    assign(r, vp_as_, Heuristic::kVpNetwork, /*vp_side=*/true,
           conf::prior(Heuristic::kVpNetwork));
  }
}

// ---------------------------------------------------------------------------
// §5.4.2
// ---------------------------------------------------------------------------

void Heuristics::phase2_firewall() {
  for (std::size_t r : order_) {
    GraphRouter& router = graph_.routers()[r];
    if (router.how != Heuristic::kNone) continue;
    if (!all_vp(router)) continue;
    if (!router.next.empty()) continue;       // something was seen beyond
    if (router.terminal_for.empty()) continue;

    // Collapse sibling target ASes to organizations.
    std::vector<AsId> orgs;
    for (AsId dest : router.terminal_for) {
      AsId rep = org_rep(dest);
      if (std::find(orgs.begin(), orgs.end(), rep) == orgs.end()) {
        orgs.push_back(rep);
      }
    }
    if (orgs.size() == 1) {
      // Each terminating target is an independent observation that the
      // silent space beyond belongs to this one organization.
      assign(r, *router.terminal_for.begin(), Heuristic::kFirewall,
             /*vp_side=*/false,
             conf::both(conf::prior(Heuristic::kFirewall),
                        conf::support(0.5, static_cast<int>(
                                               router.terminal_for.size()))));
    } else {
      ScoredNextas scored = nextas_scored(r);
      double share = conf::vote(static_cast<std::size_t>(scored.best),
                                static_cast<std::size_t>(scored.total));
      if (is_vp_as(scored.as)) {
        // The most common provider of the destinations is the hosting
        // network itself: this is the VP's own border in front of several
        // unresponsive customers, not a neighbor router.
        assign(r, vp_as_, Heuristic::kVpNetwork, /*vp_side=*/true,
               conf::both(conf::prior(Heuristic::kVpNetwork), share));
      } else if (scored.as.valid()) {
        assign(r, scored.as, Heuristic::kFirewall, /*vp_side=*/false,
               conf::both(conf::prior(Heuristic::kFirewall), share));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// §5.4.3
// ---------------------------------------------------------------------------

void Heuristics::phase3_unrouted() {
  auto unrouted_class = [&](Ipv4Addr a) {
    AddrClass c = classify(a).cls;
    return c == AddrClass::kUnrouted || c == AddrClass::kIxp;
  };
  for (std::size_t r : order_) {
    GraphRouter& router = graph_.routers()[r];
    if (router.how != Heuristic::kNone || router.ttl_addrs.empty()) continue;

    bool all_unrouted = std::all_of(router.ttl_addrs.begin(),
                                    router.ttl_addrs.end(), unrouted_class);
    // Scenario (a): a VP-addressed neighbor border whose network beyond is
    // entirely unrouted — every adjacent subsequent router must be
    // unrouted, else better-constrained heuristics apply (Figure 6).
    bool scenario_a = all_vp(router) && !router.next.empty();
    if (scenario_a) {
      for (std::size_t n : router.next) {
        const GraphRouter& nr = graph_.routers()[n];
        if (nr.ttl_addrs.empty() ||
            !std::all_of(nr.ttl_addrs.begin(), nr.ttl_addrs.end(),
                         unrouted_class)) {
          scenario_a = false;
          break;
        }
      }
    }
    bool scenario_b = false;  // unrouted itself, behind a VP router
    if (all_unrouted) {
      for (std::size_t p : router.prev) {
        const GraphRouter& pr = graph_.routers()[p];
        if (pr.vp_side || all_vp(pr)) scenario_b = true;
      }
    }
    if (!scenario_a && !scenario_b) continue;

    // Routers whose addresses come from a known IXP LAN are inferred the
    // same way, but belong with the paper's onenet accounting: the LAN
    // address plus the member's own subsequent space identify the member.
    bool ixp_addressed =
        !router.ttl_addrs.empty() &&
        std::all_of(router.ttl_addrs.begin(), router.ttl_addrs.end(),
                    [&](Ipv4Addr a) {
                      return classify(a).cls == AddrClass::kIxp;
                    });
    Heuristic tag = ixp_addressed ? Heuristic::kOnenet : Heuristic::kUnrouted;

    auto firsts = first_external_after(r);
    // Every trace contributing a first-external observation supports the
    // conclusion independently (counted before deduplication).
    const int observations = static_cast<int>(firsts.size());
    std::vector<AsId> distinct = firsts;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    if (distinct.size() == 1) {
      assign(r, distinct.front(), tag, false,  // step 3.1
             conf::both(conf::prior(tag), conf::support(0.35, observations)));
    } else if (distinct.size() > 1 && in_.rels) {
      // Step 3.2: the most frequent provider across the observed set —
      // that AS is likely providing transit to the others.
      std::map<AsId, int> provider_counts;
      for (AsId as : distinct) {
        for (AsId p : in_.rels->providers(as)) ++provider_counts[p];
      }
      AsId best;
      int best_count = 0;
      int total = 0;
      for (const auto& [as, count] : provider_counts) {
        total += count;
        if (count > best_count) {
          best = as;
          best_count = count;
        }
      }
      if (best.valid()) {
        // The provider vote share, weighted by the strongest relationship
        // edge tying an observed AS to the winner.
        double edge = 0.0;
        for (AsId as : distinct) {
          edge = std::max(edge,
                          conf::relationship_prior(*in_.rels, as, best));
        }
        assign(r, best, Heuristic::kUnrouted, false,
               conf::both(conf::prior(Heuristic::kUnrouted),
                          conf::both(conf::vote(
                                         static_cast<std::size_t>(best_count),
                                         static_cast<std::size_t>(total)),
                                     edge)));
      } else {
        assign(r, distinct.front(), Heuristic::kUnrouted, false,
               conf::both(conf::prior(Heuristic::kUnrouted),
                          conf::kWeakEvidence));
      }
    } else {
      ScoredNextas scored = nextas_scored(r);
      double share = conf::vote(static_cast<std::size_t>(scored.best),
                                static_cast<std::size_t>(scored.total));
      if (is_vp_as(scored.as)) {
        assign(r, vp_as_, Heuristic::kVpNetwork, /*vp_side=*/true,
               conf::both(conf::prior(Heuristic::kVpNetwork), share));
      } else if (scored.as.valid()) {
        assign(r, scored.as, tag, false,
               conf::both(conf::prior(tag), share));
      } else {
        // Nothing routed beyond and a single destination organization:
        // a neighbor whose internals are entirely unannounced.
        std::vector<AsId> dest_orgs;
        for (AsId dest : router.dest_ases) {
          AsId rep = org_rep(dest);
          if (std::find(dest_orgs.begin(), dest_orgs.end(), rep) ==
              dest_orgs.end()) {
            dest_orgs.push_back(rep);
          }
        }
        if (dest_orgs.size() == 1 && !is_vp_as(dest_orgs.front())) {
          assign(r, *router.dest_ases.begin(), tag, false,
                 conf::both(conf::prior(tag), conf::kWeakEvidence));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// §5.4.4
// ---------------------------------------------------------------------------

void Heuristics::phase4_onenet() {
  for (std::size_t r : order_) {
    GraphRouter& router = graph_.routers()[r];
    if (router.how != Heuristic::kNone || router.ttl_addrs.empty()) continue;

    auto externals = external_origins(router);
    // Step 4.1: every interface maps to one external AS, and an adjacent
    // subsequent router also has an address in it: not a third party.
    if (externals.size() == 1 && !all_vp(router)) {
      bool mixed = false;  // any VP/unrouted address alongside?
      for (Ipv4Addr a : router.ttl_addrs) {
        if (classify(a).cls != AddrClass::kExternal) mixed = true;
      }
      if (!mixed) {
        AsId a = externals.front();
        for (std::size_t n : router.next) {
          for (Ipv4Addr addr : graph_.routers()[n].ttl_addrs) {
            AddrInfo info = classify(addr);
            if (info.cls == AddrClass::kExternal && info.origin == a) {
              assign(r, a, Heuristic::kOnenet, false,
                     conf::prior(Heuristic::kOnenet));
              break;
            }
          }
          if (router.how != Heuristic::kNone) break;
        }
      }
    }
    if (router.how != Heuristic::kNone) continue;

    // Step 4.2: VP-addressed border followed by two consecutive routers in
    // the same external AS. The evidence sits one hop beyond the router
    // being assigned, so it carries the indirection discount.
    if (!all_vp(router)) continue;
    for (std::size_t n : router.next) {
      auto n_ext = external_origins(graph_.routers()[n]);
      if (n_ext.size() != 1) continue;
      for (std::size_t m : graph_.routers()[n].next) {
        if (m == r) continue;
        auto m_ext = external_origins(graph_.routers()[m]);
        if (m_ext.size() == 1 && m_ext.front() == n_ext.front()) {
          assign(r, n_ext.front(), Heuristic::kOnenet, false,
                 conf::both(conf::prior(Heuristic::kOnenet),
                            conf::kIndirectEvidence));
          break;
        }
      }
      if (router.how != Heuristic::kNone) break;
    }
  }
}

// ---------------------------------------------------------------------------
// §5.4.5
// ---------------------------------------------------------------------------

void Heuristics::phase5_relationships() {
  // Third-party detection (steps 5.1 / 5.2).
  for (std::size_t r : order_) {
    GraphRouter& router = graph_.routers()[r];
    if (router.how != Heuristic::kNone) continue;
    auto externals = external_origins(router);
    if (externals.size() != 1) continue;
    AsId a = externals.front();
    // Only observed on paths toward a single organization B != A?
    std::vector<AsId> dest_orgs;
    AsId b;
    for (AsId dest : router.dest_ases) {
      AsId rep = org_rep(dest);
      if (std::find(dest_orgs.begin(), dest_orgs.end(), rep) ==
          dest_orgs.end()) {
        dest_orgs.push_back(rep);
        b = dest;
      }
    }
    if (dest_orgs.size() != 1 || org_rep(a) == dest_orgs.front()) continue;
    // A must be a provider of B: the router replied with the address of
    // the interface toward its provider (its route to the VP).
    if (in_.rels->rel(b, a) != asdata::Relationship::kProvider) continue;
    // The inference leans on the inferred B-customer-of-A edge; its
    // consistency in the store prices the whole conclusion.
    double edge = conf::relationship_prior(*in_.rels, b, a);
    assign(r, b, Heuristic::kThirdParty, false,
           conf::both(conf::prior(Heuristic::kThirdParty), edge));
    // Step 5.1: a preceding all-VP router is B's border too — but only
    // when that router likewise appears exclusively on paths toward B;
    // a router carrying traffic to other networks is not B's border.
    for (std::size_t p : router.prev) {
      GraphRouter& pr = graph_.routers()[p];
      if (pr.how != Heuristic::kNone || !all_vp(pr)) continue;
      bool only_b = true;
      for (AsId dest : pr.dest_ases) {
        only_b &= org_rep(dest) == org_rep(b);
      }
      if (only_b) {
        assign(p, b, Heuristic::kThirdParty, false,
               conf::both(conf::kIndirectEvidence,
                          conf::both(conf::prior(Heuristic::kThirdParty),
                                     edge)));
      }
    }
  }

  // Steps 5.3 / 5.4 / 5.5: VP-addressed borders classified by relationship
  // data about the adjacent and subsequent address space.
  for (std::size_t r : order_) {
    GraphRouter& router = graph_.routers()[r];
    if (router.how != Heuristic::kNone) continue;
    if (!all_vp(router)) continue;

    auto adjacent = adjacent_origin_counts(r);
    if (adjacent.size() == 1) {
      AsId a = adjacent.begin()->first;
      // Step 5.3: a known peer or customer of the VP network.
      AsId known_vp;
      for (AsId v : in_.vp_ases) {
        auto rel = in_.rels->rel(v, a);
        if ((rel == asdata::Relationship::kCustomer ||
             rel == asdata::Relationship::kPeer) &&
            !known_vp.valid()) {
          known_vp = v;
        }
      }
      if (known_vp.valid()) {
        assign(r, a, Heuristic::kRelationship, false,
               conf::both(conf::prior(Heuristic::kRelationship),
                          conf::relationship_prior(*in_.rels, known_vp, a)));
        continue;
      }
      // Step 5.4: sibling-style indirection — B is a provider of A and the
      // VP network is a provider of B.
      AsId missing;
      AsId missing_vp;
      for (AsId b : in_.rels->providers(a)) {
        for (AsId v : in_.vp_ases) {
          if (in_.rels->rel(v, b) == asdata::Relationship::kCustomer &&
              (!missing.valid() || b < missing)) {
            missing = b;
            missing_vp = v;
          }
        }
      }
      if (missing.valid()) {
        // Two inferred edges must both hold: A-customer-of-B and
        // B-customer-of-VP.
        assign(r, missing, Heuristic::kMissingCust, false,
               conf::both(conf::prior(Heuristic::kMissingCust),
                          conf::both(conf::relationship_prior(*in_.rels, a,
                                                              missing),
                                     conf::relationship_prior(
                                         *in_.rels, missing_vp, missing))));
        continue;
      }
    }

    // Step 5.5: every subsequent routed interface maps to one AS — a
    // neighbor with no BGP-visible relationship (hidden peer).
    auto firsts = first_external_after(r);
    const int observations = static_cast<int>(firsts.size());
    std::sort(firsts.begin(), firsts.end());
    firsts.erase(std::unique(firsts.begin(), firsts.end()), firsts.end());
    if (firsts.size() == 1 && !router.next.empty()) {
      assign(r, firsts.front(), Heuristic::kHiddenPeer, false,
             conf::both(conf::prior(Heuristic::kHiddenPeer),
                        conf::support(0.35, observations)));
    }
  }
}

// ---------------------------------------------------------------------------
// §5.4.6
// ---------------------------------------------------------------------------

void Heuristics::phase6_counting() {
  for (std::size_t r : order_) {
    GraphRouter& router = graph_.routers()[r];
    if (router.how != Heuristic::kNone || router.ttl_addrs.empty()) continue;

    if (all_vp(router)) {
      // Step 6.1: several adjacent external ASes — majority of adjacent
      // addresses wins; ties go to the first AS with a known relationship.
      auto adjacent = adjacent_origin_counts(r);
      if (adjacent.empty()) continue;
      int best_count = 0;
      int total = 0;
      for (const auto& [as, count] : adjacent) {
        total += count;
        best_count = std::max(best_count, count);
      }
      std::vector<AsId> tied;
      for (const auto& [as, count] : adjacent) {
        if (count == best_count) tied.push_back(as);
      }
      std::sort(tied.begin(), tied.end());
      AsId winner = tied.front();
      if (tied.size() > 1 && in_.rels) {
        for (AsId as : tied) {
          bool known = false;
          for (AsId v : in_.vp_ases) {
            known |= in_.rels->are_neighbors(v, as);
          }
          if (known) {
            winner = as;
            break;
          }
        }
      }
      assign(r, winner, Heuristic::kCount, false,
             conf::both(conf::prior(Heuristic::kCount),
                        conf::vote(static_cast<std::size_t>(best_count),
                                   static_cast<std::size_t>(total))));
      continue;
    }

    // Step 6.2: plain IP-AS mapping — the majority origin of the router's
    // own addresses.
    std::map<AsId, int> votes;
    for (Ipv4Addr a : router.ttl_addrs) {
      AddrInfo info = classify(a);
      if (info.cls == AddrClass::kExternal) ++votes[info.origin];
    }
    if (votes.empty()) continue;
    AsId best;
    int best_count = 0;
    int total = 0;
    for (const auto& [as, count] : votes) {
      total += count;
      if (count > best_count) {
        best = as;
        best_count = count;
      }
    }
    assign(r, best, Heuristic::kIpAs, false,
           conf::both(conf::prior(Heuristic::kIpAs),
                      conf::vote(static_cast<std::size_t>(best_count),
                                 static_cast<std::size_t>(total))));
  }
}

// ---------------------------------------------------------------------------
// §5.4.7
// ---------------------------------------------------------------------------

void Heuristics::phase7_analytic_alias() {
  // A neighbor router connected by a point-to-point link attaches to one
  // VP router; several single-interface VP-side predecessors of the same
  // neighbor router are therefore aliases of one border router.
  const std::size_t count = graph_.routers().size();
  for (std::size_t n = 0; n < count; ++n) {
    const GraphRouter& neighbor = graph_.routers()[n];
    if (graph_.merged_away(n)) continue;
    if (neighbor.how == Heuristic::kNone || neighbor.vp_side) continue;
    std::vector<std::size_t> collapsible;
    for (std::size_t p : neighbor.prev) {
      const GraphRouter& pr = graph_.routers()[p];
      if (!pr.vp_side) continue;
      // Single observed interface: likely one physical border router that
      // responded differently per destination (Figure 13).
      if (pr.addrs.size() != 1) continue;
      collapsible.push_back(p);
    }
    if (collapsible.size() < 2) continue;
    std::sort(collapsible.begin(), collapsible.end());
    for (std::size_t i = 1; i < collapsible.size(); ++i) {
      graph_.merge(collapsible.front(), collapsible[i]);
      note_fire();
    }
  }
}

// ---------------------------------------------------------------------------
// §5.4.8
// ---------------------------------------------------------------------------

void Heuristics::phase8_uncooperative() {
  // Which neighbor ASes already have an inferred *border* router (one
  // adjacent to the VP network)? Deep routers after response gaps do not
  // establish a link by themselves.
  std::unordered_set<AsId> covered;
  for (const auto& router : graph_.routers()) {
    if (router.how == Heuristic::kNone || router.vp_side ||
        !router.owner.valid()) {
      continue;
    }
    bool adjacent_to_vp = false;
    for (std::size_t p : router.prev) {
      adjacent_to_vp |= graph_.routers()[p].vp_side;
    }
    if (adjacent_to_vp) covered.insert(org_rep(router.owner));
  }

  std::vector<AsId> bgp_neighbors;
  for (AsId v : in_.vp_ases) {
    for (AsId n : in_.rels->neighbors(v)) {
      if (!is_vp_as(n)) bgp_neighbors.push_back(n);
    }
  }
  std::sort(bgp_neighbors.begin(), bgp_neighbors.end());
  bgp_neighbors.erase(
      std::unique(bgp_neighbors.begin(), bgp_neighbors.end()),
      bgp_neighbors.end());

  // Compiled-scan index: trace indices grouped by target organization, so
  // each neighbor only visits its own traces instead of rescanning all of
  // them. Trace order within a group is preserved, and the per-trace work
  // below is order-independent anyway.
  std::unordered_map<AsId, std::vector<std::size_t>> traces_by_org;
  const auto& traces = graph_.traces();
  for (std::size_t ti = 0; ti < traces.size(); ++ti) {
    traces_by_org[org_rep(traces[ti].target_as)].push_back(ti);
  }
  const auto& routers = graph_.routers();

  for (AsId neighbor : bgp_neighbors) {
    const AsId neighbor_org = org_rep(neighbor);
    if (covered.count(neighbor_org)) continue;

    // Process the traces toward this AS as a set (§5.4.8). Rate limiting
    // can hide the true final VP router in a few traces, so we accept the
    // dominant final router rather than demanding strict unanimity.
    // (final VP router, traces) pairs; a handful per neighbor.
    std::vector<std::pair<std::size_t, std::size_t>> last_counts;
    bool beyond = false;
    bool icmp_from_neighbor = false;
    auto it = traces_by_org.find(neighbor_org);
    if (it != traces_by_org.end()) {
      // BDRMAP_HOT_BEGIN(uncooperative_scan)
      for (std::size_t ti : it->second) {
        const auto& hops = traces[ti].hops;
        const std::span<const std::uint32_t> ids = graph_.hop_ids(ti);
        // Last VP-side router, and anything after it?
        std::uint32_t last_vp = RouterGraph::kNoRouter;
        for (std::size_t i = 0; i < hops.size(); ++i) {
          if (hops[i].kind == probe::ReplyKind::kNone) continue;
          if (hops[i].kind == probe::ReplyKind::kTimeExceeded) {
            const std::uint32_t r = graph_.router_of_id(ids[i]);
            if (routers[r].vp_side) {
              last_vp = r;
              continue;
            }
            if (last_vp != RouterGraph::kNoRouter) {
              beyond = true;  // a non-VP interface after the last VP router
            }
          } else {
            // Echo reply / unreachable: does its source map to the
            // neighbor?
            const AddrInfo& info = info_[ids[i]];
            if (info.cls == AddrClass::kExternal &&
                org_rep(info.origin) == neighbor_org) {
              icmp_from_neighbor = true;
            }
          }
        }
        if (last_vp == RouterGraph::kNoRouter) continue;
        auto counted = std::find_if(
            last_counts.begin(), last_counts.end(),
            [&](const auto& entry) { return entry.first == last_vp; });
        if (counted != last_counts.end()) {
          ++counted->second;
        } else {
          last_counts.emplace_back(last_vp, 1);
        }
      }
      // BDRMAP_HOT_END(uncooperative_scan)
    }
    if (beyond || last_counts.empty()) continue;
    // Ties go to the lowest router index.
    std::sort(last_counts.begin(), last_counts.end());
    std::size_t total = 0, best_count = 0;
    std::size_t common_last = std::numeric_limits<std::size_t>::max();
    for (const auto& [router, count] : last_counts) {
      total += count;
      if (count > best_count) {
        best_count = count;
        common_last = router;
      }
    }
    if (best_count * 10 < total * 7) continue;  // < 70% dominant
    Heuristic tag = icmp_from_neighbor ? Heuristic::kOtherIcmp
                                       : Heuristic::kSilent;
    placements_.push_back(
        {common_last, neighbor, tag,
         conf::both(conf::prior(tag), conf::vote(best_count, total))});
    note_fire();
  }
}

}  // namespace bdrmap::core
