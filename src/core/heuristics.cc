#include "core/heuristics.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <optional>
#include <span>
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

bool Heuristics::all_vp(std::size_t router) const {
  const std::span<const std::uint32_t> ids = graph_.ttl_ids(router);
  if (ids.empty()) return false;
  for (std::uint32_t id : ids) {
    if (info_[id].cls != AddrClass::kVp) return false;
  }
  return true;
}

AsId Heuristics::sole_external_origin(std::size_t router) const {
  AsId sole;
  for (std::uint32_t id : graph_.ttl_ids(router)) {
    const AddrInfo& info = info_[id];
    if (info.cls != AddrClass::kExternal) continue;
    if (sole.valid() && info.origin != sole) return net::kNoAs;
    sole = info.origin;
  }
  return sole;
}

std::span<const AsId> Heuristics::first_external_after(
    std::size_t router) const {
  if (!first_external_built_) build_first_external_table();
  const std::uint32_t begin = first_external_offsets_[router];
  return {first_external_values_.data() + begin,
          first_external_offsets_[router + 1] - begin};
}

void Heuristics::build_first_external_table() const {
  // Computes first_external_after for every router in one sweep instead of
  // rescanning all traces per candidate. Walking a trace, each router that
  // has appeared is "pending" until the first later routed-external hop on
  // a *different* router supplies its origin; a router's own first hop is
  // consumed before it joins the pending set, so hops strictly after the
  // first occurrence are considered — exactly a per-router rescan (the
  // reference oracle in tests/walk_reference_test.cc). The sweep lists
  // (router, origin) pairs in trace order; a stable counting sort by
  // router turns them into the flat table.
  const std::size_t count = graph_.routers().size();
  std::vector<std::uint32_t> seen_epoch(count, 0);
  std::vector<std::uint32_t> pending;
  std::vector<std::pair<std::uint32_t, AsId>> found;
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
            found.emplace_back(pending[i], info.origin);
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
  first_external_offsets_.assign(count + 1, 0);
  for (const auto& [router, origin] : found) {
    ++first_external_offsets_[router + 1];
  }
  std::partial_sum(first_external_offsets_.begin(),
                   first_external_offsets_.end(),
                   first_external_offsets_.begin());
  first_external_values_.resize(found.size());
  std::vector<std::uint32_t>& cursor = seen_epoch;  // reused as fill cursors
  std::copy(first_external_offsets_.begin(), first_external_offsets_.end() - 1,
            cursor.begin());
  for (const auto& [router, origin] : found) {
    first_external_values_[cursor[router]++] = origin;
  }
  // BDRMAP_HOT_END(first_external_scan)
  first_external_built_ = true;
}

void Heuristics::tally(std::vector<AsId>& votes, std::vector<Tally>& out) {
  std::sort(votes.begin(), votes.end());
  out.clear();
  for (AsId as : votes) {
    if (out.empty() || out.back().as != as) out.push_back({as, 0});
    ++out.back().count;
  }
}

void Heuristics::adjacent_origin_counts(std::size_t router,
                                        std::vector<AsId>& votes,
                                        std::vector<Tally>& out) const {
  votes.clear();
  for (std::uint32_t n : graph_.next(router)) {
    for (std::uint32_t id : graph_.ttl_ids(n)) {
      if (info_[id].cls == AddrClass::kExternal) {
        votes.push_back(info_[id].origin);
      }
    }
  }
  tally(votes, out);
}

Heuristics::Majority Heuristics::majority(const std::vector<Tally>& tallies) {
  Majority out;
  for (const Tally& t : tallies) {
    out.total += t.count;
    if (t.count > out.best) {
      out.as = t.as;
      out.best = t.count;
    }
  }
  return out;
}

Heuristics::Majority Heuristics::nextas_scored(
    std::size_t router, std::vector<AsId>& votes,
    std::vector<Tally>& tallies) const {
  const std::span<const AsId> dests = graph_.dest_ases(router);
  if (dests.size() < 2 || !in_.rels) return {};
  votes.clear();
  for (AsId dest : dests) {
    for (AsId p : in_.rels->providers(dest)) votes.push_back(p);
  }
  tally(votes, tallies);
  return majority(tallies);
}

void Heuristics::distinct_orgs(std::span<const AsId> ases,
                               std::vector<AsId>& out) const {
  out.clear();
  for (AsId as : ases) {
    const AsId rep = org_rep(as);
    if (std::find(out.begin(), out.end(), rep) == out.end()) {
      out.push_back(rep);
    }
  }
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

  std::vector<AsId> dest_orgs, votes;
  std::vector<Tally> counts_r, counts_r2;
  // BDRMAP_HOT_BEGIN(phase1_vp_network)
  for (std::size_t r : order_) {
    const GraphRouter& router = graph_.routers()[r];
    if (router.how != Heuristic::kNone) continue;
    // Any VP-originated interface suffices here: alias resolution merges a
    // border's neighbor-supplied point-to-point addresses into the same
    // router, and those must not disqualify it (step 1.2 / Figure 13).
    bool any_vp = false;
    for (std::uint32_t id : graph_.ttl_ids(r)) {
      any_vp |= info_[id].cls == AddrClass::kVp;
    }
    if (!any_vp || !vp_after[r]) continue;

    // Step 1.1 exception: A multihomed to the VP network with adjacent
    // border routers. R (VP-addressed) is followed by another VP-addressed
    // router R2, and addresses originated by A appear adjacent to both.
    // Only a router that exclusively carries traffic toward A can be A's
    // border — the VP's own borders forward toward many organizations.
    AsId multihomed_as;
    distinct_orgs(graph_.dest_ases(r), dest_orgs);
    if (dest_orgs.size() == 1) {
      bool counted_r = false;
      for (std::uint32_t n : graph_.next(r)) {
        if (!all_vp(n)) continue;
        // External AS adjacent to both R and R2, matching the sole
        // destination organization? The lowest such AS.
        if (!counted_r) {
          adjacent_origin_counts(r, votes, counts_r);
          counted_r = true;
        }
        adjacent_origin_counts(n, votes, counts_r2);
        for (const Tally& t : counts_r) {
          const bool adjacent_to_r2 = std::binary_search(
              counts_r2.begin(), counts_r2.end(), t,
              [](const Tally& x, const Tally& y) { return x.as < y.as; });
          if (adjacent_to_r2 && org_rep(t.as) == dest_orgs.front()) {
            multihomed_as = t.as;
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
      for (std::uint32_t n : graph_.next(r)) {
        for (std::uint32_t id : graph_.ttl_ids(n)) {
          const AddrInfo& info = info_[id];
          if (info.cls != AddrClass::kExternal) continue;
          const AsId o = info.origin;
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
  // BDRMAP_HOT_END(phase1_vp_network)
}

// ---------------------------------------------------------------------------
// §5.4.2
// ---------------------------------------------------------------------------

void Heuristics::phase2_firewall() {
  std::vector<AsId> orgs, votes;
  std::vector<Tally> tallies;
  // BDRMAP_HOT_BEGIN(phase2_firewall)
  for (std::size_t r : order_) {
    const GraphRouter& router = graph_.routers()[r];
    if (router.how != Heuristic::kNone) continue;
    if (!all_vp(r)) continue;
    if (!graph_.next(r).empty()) continue;  // something was seen beyond
    const std::span<const AsId> terminal = graph_.terminal_for(r);
    if (terminal.empty()) continue;

    // Collapse sibling target ASes to organizations.
    distinct_orgs(terminal, orgs);
    if (orgs.size() == 1) {
      // Each terminating target is an independent observation that the
      // silent space beyond belongs to this one organization.
      assign(r, terminal.front(), Heuristic::kFirewall,
             /*vp_side=*/false,
             conf::both(conf::prior(Heuristic::kFirewall),
                        conf::support(0.5, static_cast<int>(terminal.size()))));
    } else {
      const Majority scored = nextas_scored(r, votes, tallies);
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
  // BDRMAP_HOT_END(phase2_firewall)
}

// ---------------------------------------------------------------------------
// §5.4.3
// ---------------------------------------------------------------------------

void Heuristics::phase3_unrouted() {
  auto unrouted_class = [&](std::uint32_t id) {
    const AddrClass c = info_[id].cls;
    return c == AddrClass::kUnrouted || c == AddrClass::kIxp;
  };
  std::vector<AsId> distinct, dest_orgs, votes;
  std::vector<Tally> tallies;
  // BDRMAP_HOT_BEGIN(phase3_unrouted)
  for (std::size_t r : order_) {
    const GraphRouter& router = graph_.routers()[r];
    const std::span<const std::uint32_t> ttl = graph_.ttl_ids(r);
    if (router.how != Heuristic::kNone || ttl.empty()) continue;

    bool all_unrouted = std::all_of(ttl.begin(), ttl.end(), unrouted_class);
    // Scenario (a): a VP-addressed neighbor border whose network beyond is
    // entirely unrouted — every adjacent subsequent router must be
    // unrouted, else better-constrained heuristics apply (Figure 6).
    bool scenario_a = all_vp(r) && !graph_.next(r).empty();
    if (scenario_a) {
      for (std::uint32_t n : graph_.next(r)) {
        const std::span<const std::uint32_t> nttl = graph_.ttl_ids(n);
        if (nttl.empty() ||
            !std::all_of(nttl.begin(), nttl.end(), unrouted_class)) {
          scenario_a = false;
          break;
        }
      }
    }
    bool scenario_b = false;  // unrouted itself, behind a VP router
    if (all_unrouted) {
      for (std::uint32_t p : graph_.prev(r)) {
        if (graph_.routers()[p].vp_side || all_vp(p)) scenario_b = true;
      }
    }
    if (!scenario_a && !scenario_b) continue;

    // Routers whose addresses come from a known IXP LAN are inferred the
    // same way, but belong with the paper's onenet accounting: the LAN
    // address plus the member's own subsequent space identify the member.
    const bool ixp_addressed =
        std::all_of(ttl.begin(), ttl.end(), [&](std::uint32_t id) {
          return info_[id].cls == AddrClass::kIxp;
        });
    Heuristic tag = ixp_addressed ? Heuristic::kOnenet : Heuristic::kUnrouted;

    const std::span<const AsId> firsts = first_external_after(r);
    // Every trace contributing a first-external observation supports the
    // conclusion independently (counted before deduplication).
    const int observations = static_cast<int>(firsts.size());
    distinct.assign(firsts.begin(), firsts.end());
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    if (distinct.size() == 1) {
      assign(r, distinct.front(), tag, false,  // step 3.1
             conf::both(conf::prior(tag), conf::support(0.35, observations)));
    } else if (distinct.size() > 1 && in_.rels) {
      // Step 3.2: the most frequent provider across the observed set —
      // that AS is likely providing transit to the others.
      votes.clear();
      for (AsId as : distinct) {
        for (AsId p : in_.rels->providers(as)) votes.push_back(p);
      }
      tally(votes, tallies);
      const Majority best = majority(tallies);
      if (best.as.valid()) {
        // The provider vote share, weighted by the strongest relationship
        // edge tying an observed AS to the winner.
        double edge = 0.0;
        for (AsId as : distinct) {
          edge = std::max(edge,
                          conf::relationship_prior(*in_.rels, as, best.as));
        }
        assign(r, best.as, Heuristic::kUnrouted, false,
               conf::both(conf::prior(Heuristic::kUnrouted),
                          conf::both(conf::vote(
                                         static_cast<std::size_t>(best.best),
                                         static_cast<std::size_t>(best.total)),
                                     edge)));
      } else {
        assign(r, distinct.front(), Heuristic::kUnrouted, false,
               conf::both(conf::prior(Heuristic::kUnrouted),
                          conf::kWeakEvidence));
      }
    } else {
      const Majority scored = nextas_scored(r, votes, tallies);
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
        const std::span<const AsId> dests = graph_.dest_ases(r);
        distinct_orgs(dests, dest_orgs);
        if (dest_orgs.size() == 1 && !is_vp_as(dest_orgs.front())) {
          assign(r, dests.front(), tag, false,
                 conf::both(conf::prior(tag), conf::kWeakEvidence));
        }
      }
    }
  }
  // BDRMAP_HOT_END(phase3_unrouted)
}

// ---------------------------------------------------------------------------
// §5.4.4
// ---------------------------------------------------------------------------

void Heuristics::phase4_onenet() {
  // BDRMAP_HOT_BEGIN(phase4_onenet)
  for (std::size_t r : order_) {
    const GraphRouter& router = graph_.routers()[r];
    const std::span<const std::uint32_t> ttl = graph_.ttl_ids(r);
    if (router.how != Heuristic::kNone || ttl.empty()) continue;

    // Step 4.1: every interface maps to one external AS, and an adjacent
    // subsequent router also has an address in it: not a third party.
    const AsId a = sole_external_origin(r);
    if (a.valid() && !all_vp(r)) {
      const bool mixed =  // any VP/unrouted address alongside?
          std::any_of(ttl.begin(), ttl.end(), [&](std::uint32_t id) {
            return info_[id].cls != AddrClass::kExternal;
          });
      if (!mixed) {
        for (std::uint32_t n : graph_.next(r)) {
          for (std::uint32_t id : graph_.ttl_ids(n)) {
            const AddrInfo& info = info_[id];
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
    if (!all_vp(r)) continue;
    for (std::uint32_t n : graph_.next(r)) {
      const AsId n_ext = sole_external_origin(n);
      if (!n_ext.valid()) continue;
      for (std::uint32_t m : graph_.next(n)) {
        if (m == r) continue;
        if (sole_external_origin(m) == n_ext) {
          assign(r, n_ext, Heuristic::kOnenet, false,
                 conf::both(conf::prior(Heuristic::kOnenet),
                            conf::kIndirectEvidence));
          break;
        }
      }
      if (router.how != Heuristic::kNone) break;
    }
  }
  // BDRMAP_HOT_END(phase4_onenet)
}

// ---------------------------------------------------------------------------
// §5.4.5
// ---------------------------------------------------------------------------

void Heuristics::phase5_relationships() {
  std::vector<AsId> dest_orgs, votes, firsts;
  std::vector<Tally> adjacent;
  // BDRMAP_HOT_BEGIN(phase5_third_party)
  // Third-party detection (steps 5.1 / 5.2).
  for (std::size_t r : order_) {
    if (graph_.routers()[r].how != Heuristic::kNone) continue;
    const AsId a = sole_external_origin(r);
    if (!a.valid()) continue;
    // Only observed on paths toward a single organization B != A?
    AsId b;
    dest_orgs.clear();
    for (AsId dest : graph_.dest_ases(r)) {
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
    for (std::uint32_t p : graph_.prev(r)) {
      if (graph_.routers()[p].how != Heuristic::kNone || !all_vp(p)) continue;
      bool only_b = true;
      for (AsId dest : graph_.dest_ases(p)) {
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
  // BDRMAP_HOT_END(phase5_third_party)

  // Steps 5.3 / 5.4 / 5.5: VP-addressed borders classified by relationship
  // data about the adjacent and subsequent address space.
  // BDRMAP_HOT_BEGIN(phase5_relationships)
  for (std::size_t r : order_) {
    if (graph_.routers()[r].how != Heuristic::kNone) continue;
    if (!all_vp(r)) continue;

    adjacent_origin_counts(r, votes, adjacent);
    if (adjacent.size() == 1) {
      AsId a = adjacent.front().as;
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
    const std::span<const AsId> after = first_external_after(r);
    const int observations = static_cast<int>(after.size());
    firsts.assign(after.begin(), after.end());
    std::sort(firsts.begin(), firsts.end());
    firsts.erase(std::unique(firsts.begin(), firsts.end()), firsts.end());
    if (firsts.size() == 1 && !graph_.next(r).empty()) {
      assign(r, firsts.front(), Heuristic::kHiddenPeer, false,
             conf::both(conf::prior(Heuristic::kHiddenPeer),
                        conf::support(0.35, observations)));
    }
  }
  // BDRMAP_HOT_END(phase5_relationships)
}

// ---------------------------------------------------------------------------
// §5.4.6
// ---------------------------------------------------------------------------

void Heuristics::phase6_counting() {
  std::vector<AsId> votes;
  std::vector<Tally> tallies;
  // BDRMAP_HOT_BEGIN(phase6_counting)
  for (std::size_t r : order_) {
    if (graph_.routers()[r].how != Heuristic::kNone ||
        graph_.ttl_ids(r).empty()) {
      continue;
    }

    if (all_vp(r)) {
      // Step 6.1: several adjacent external ASes — majority of adjacent
      // addresses wins; ties go to the first AS with a known relationship.
      adjacent_origin_counts(r, votes, tallies);
      if (tallies.empty()) continue;
      const Majority best = majority(tallies);
      // The plain majority is the lowest tied AS; a tie goes to the first
      // tied AS (ascending) the VP network is known to neighbor.
      AsId winner = best.as;
      const bool tie =
          std::count_if(tallies.begin(), tallies.end(), [&](const Tally& t) {
            return t.count == best.best;
          }) > 1;
      if (tie && in_.rels) {
        for (const Tally& t : tallies) {
          if (t.count != best.best) continue;
          bool known = false;
          for (AsId v : in_.vp_ases) {
            known |= in_.rels->are_neighbors(v, t.as);
          }
          if (known) {
            winner = t.as;
            break;
          }
        }
      }
      assign(r, winner, Heuristic::kCount, false,
             conf::both(conf::prior(Heuristic::kCount),
                        conf::vote(static_cast<std::size_t>(best.best),
                                   static_cast<std::size_t>(best.total))));
      continue;
    }

    // Step 6.2: plain IP-AS mapping — the majority origin of the router's
    // own addresses.
    votes.clear();
    for (std::uint32_t id : graph_.ttl_ids(r)) {
      if (info_[id].cls == AddrClass::kExternal) {
        votes.push_back(info_[id].origin);
      }
    }
    if (votes.empty()) continue;
    tally(votes, tallies);
    const Majority best = majority(tallies);
    assign(r, best.as, Heuristic::kIpAs, false,
           conf::both(conf::prior(Heuristic::kIpAs),
                      conf::vote(static_cast<std::size_t>(best.best),
                                 static_cast<std::size_t>(best.total))));
  }
  // BDRMAP_HOT_END(phase6_counting)
}

// ---------------------------------------------------------------------------
// §5.4.7
// ---------------------------------------------------------------------------

void Heuristics::phase7_analytic_alias() {
  // A neighbor router connected by a point-to-point link attaches to one
  // VP router; several single-interface VP-side predecessors of the same
  // neighbor router are therefore aliases of one border router.
  //
  // Each neighbor sees the graph as the merges before it left it, so the
  // merges gather here and apply as one batch. A router a merge of this
  // phase touched is either merged away or grown to two or more
  // addresses; neither is single-interface any more, and a neighbor's
  // current predecessors are its original ones with the merged-away ones
  // replaced by (grown) survivors.
  const std::size_t count = graph_.routers().size();
  std::vector<std::uint8_t> touched(count, 0);
  std::vector<RouterGraph::Merge> merges;
  std::vector<std::uint32_t> collapsible;
  // BDRMAP_HOT_BEGIN(phase7_analytic_alias)
  for (std::size_t n = 0; n < count; ++n) {
    const GraphRouter& neighbor = graph_.routers()[n];
    if (graph_.merged_away(n)) continue;
    if (neighbor.how == Heuristic::kNone || neighbor.vp_side) continue;
    collapsible.clear();  // ascending, as prev is
    for (std::uint32_t p : graph_.prev(n)) {
      if (touched[p] || !graph_.routers()[p].vp_side) continue;
      // Single observed interface: likely one physical border router that
      // responded differently per destination (Figure 13).
      if (graph_.addrs(p).size() != 1) continue;
      collapsible.push_back(p);
    }
    if (collapsible.size() < 2) continue;
    touched[collapsible.front()] = 1;
    for (std::size_t i = 1; i < collapsible.size(); ++i) {
      merges.emplace_back(collapsible.front(), collapsible[i]);
      touched[collapsible[i]] = 1;
      note_fire();
    }
  }
  // BDRMAP_HOT_END(phase7_analytic_alias)
  graph_.merge(merges);
}

// ---------------------------------------------------------------------------
// §5.4.8
// ---------------------------------------------------------------------------

void Heuristics::phase8_uncooperative() {
  // Which neighbor ASes already have an inferred *border* router (one
  // adjacent to the VP network)? Deep routers after response gaps do not
  // establish a link by themselves. Sorted and distinct.
  const auto& routers = graph_.routers();
  std::vector<AsId> covered;
  // BDRMAP_HOT_BEGIN(phase8_covered)
  for (std::size_t r = 0; r < routers.size(); ++r) {
    const GraphRouter& router = routers[r];
    if (router.how == Heuristic::kNone || router.vp_side ||
        !router.owner.valid()) {
      continue;
    }
    const std::span<const std::uint32_t> prev = graph_.prev(r);
    const bool adjacent_to_vp =
        std::any_of(prev.begin(), prev.end(),
                    [&](std::uint32_t p) { return routers[p].vp_side; });
    if (adjacent_to_vp) covered.push_back(org_rep(router.owner));
  }
  // BDRMAP_HOT_END(phase8_covered)
  std::sort(covered.begin(), covered.end());
  covered.erase(std::unique(covered.begin(), covered.end()), covered.end());

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

  // Compiled-scan index: (target organization, trace index) pairs in one
  // sorted flat array, so each neighbor only visits its own run of traces
  // instead of rescanning all of them. Trace order within a run is
  // preserved, and the per-trace work below is order-independent anyway.
  const auto& traces = graph_.traces();
  std::vector<std::pair<AsId, std::size_t>> traces_by_org;
  traces_by_org.reserve(traces.size());
  for (std::size_t ti = 0; ti < traces.size(); ++ti) {
    traces_by_org.emplace_back(org_rep(traces[ti].target_as), ti);
  }
  std::sort(traces_by_org.begin(), traces_by_org.end());
  // (final VP router, traces) pairs; a handful per neighbor.
  std::vector<std::pair<std::size_t, std::size_t>> last_counts;

  for (AsId neighbor : bgp_neighbors) {
    const AsId neighbor_org = org_rep(neighbor);
    if (std::binary_search(covered.begin(), covered.end(), neighbor_org)) {
      continue;
    }

    // Process the traces toward this AS as a set (§5.4.8). Rate limiting
    // can hide the true final VP router in a few traces, so we accept the
    // dominant final router rather than demanding strict unanimity.
    last_counts.clear();
    bool beyond = false;
    bool icmp_from_neighbor = false;
    const auto run = std::equal_range(
        traces_by_org.begin(), traces_by_org.end(),
        std::pair<AsId, std::size_t>(neighbor_org, 0),
        [](const auto& x, const auto& y) { return x.first < y.first; });
    // BDRMAP_HOT_BEGIN(uncooperative_scan)
    for (auto at = run.first; at != run.second; ++at) {
      const std::size_t ti = at->second;
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
