// Inference-layer invariant passes: router-graph well-formedness, alias-set
// consistency, owner-assignment discipline, and §5.4 heuristic
// preconditions. These audit the products of the inference core — the
// structures every reported border link is derived from.
#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/passes.h"

namespace bdrmap::check::detail {

namespace {

using core::GraphRouter;
using core::Heuristic;
using core::InferredLink;
using core::RouterGraph;
using net::AsId;
using net::Ipv4Addr;

std::string router_name(std::size_t i) { return "router#" + std::to_string(i); }

bool silent_heuristic(Heuristic h) {
  return h == Heuristic::kSilent || h == Heuristic::kOtherIcmp;
}

// ---------------------------------------------------------------------------
// router-graph.structure
// ---------------------------------------------------------------------------

void run_router_graph(const CheckContext& ctx, ViolationSink& sink) {
  const RouterGraph& graph = *ctx.effective_graph();
  const auto& routers = graph.routers();

  // Interface-to-router uniqueness: one observed address, one live router.
  std::unordered_map<Ipv4Addr, std::size_t> owner_of;
  for (std::size_t i = 0; i < routers.size(); ++i) {
    const GraphRouter& r = routers[i];
    if (graph.merged_away(i)) {
      if (!r.prev.empty() || !r.next.empty() || r.owner.valid()) {
        sink.error(router_name(i),
                   "merged-away router still carries adjacency or ownership");
      }
      continue;
    }
    for (Ipv4Addr a : r.addrs) {
      auto [it, inserted] = owner_of.emplace(a, i);
      if (!inserted) {
        sink.error(a.str(), "interface address appears in two live routers (" +
                                router_name(it->second) + " and " +
                                router_name(i) + ")");
      }
    }
    std::unordered_set<Ipv4Addr> addr_set(r.addrs.begin(), r.addrs.end());
    if (addr_set.size() != r.addrs.size()) {
      sink.error(router_name(i), "duplicate address inside one alias set");
    }
    for (Ipv4Addr a : r.ttl_addrs) {
      if (addr_set.count(a) == 0) {
        sink.error(router_name(i), "time-exceeded address " + a.str() +
                                       " is not in the router's alias set");
      }
    }
    auto check_adjacency = [&](const auto& side, const char* dir) {
      for (std::size_t j : side) {
        if (j >= routers.size()) {
          sink.error(router_name(i), std::string(dir) +
                                         " adjacency index out of range: " +
                                         std::to_string(j));
          continue;
        }
        if (j == i) {
          sink.error(router_name(i), std::string("self-loop in ") + dir +
                                         " adjacency");
          continue;
        }
        if (graph.merged_away(j)) {
          sink.error(router_name(i), std::string(dir) +
                                         " adjacency references merged-away " +
                                         router_name(j));
        }
      }
    };
    check_adjacency(r.prev, "prev");
    check_adjacency(r.next, "next");
  }

  // Adjacency symmetry: i -> j observed means j lists i as a predecessor.
  for (std::size_t i = 0; i < routers.size(); ++i) {
    if (graph.merged_away(i)) continue;
    for (std::size_t j : routers[i].next) {
      if (j < routers.size() && !graph.merged_away(j) &&
          !std::binary_search(routers[j].prev.begin(), routers[j].prev.end(),
                              i)) {
        sink.error(router_name(i), "asymmetric adjacency: next contains " +
                                       router_name(j) +
                                       " but its prev does not contain " +
                                       router_name(i));
      }
    }
    for (std::size_t j : routers[i].prev) {
      if (j < routers.size() && !graph.merged_away(j) &&
          !std::binary_search(routers[j].next.begin(), routers[j].next.end(),
                              i)) {
        sink.error(router_name(i), "asymmetric adjacency: prev contains " +
                                       router_name(j) +
                                       " but its next does not contain " +
                                       router_name(i));
      }
    }
  }

  // router_of agrees with the structures it indexes.
  for (const auto& [addr, idx] : owner_of) {
    auto found = graph.router_of(addr);
    if (!found.has_value() || *found != idx) {
      sink.error(addr.str(),
                 "router_of() disagrees with the router that lists the "
                 "address (index drift after a corrupting mutation)");
    }
  }

  // The address table: every id names one address (ascending), its router
  // column agrees with router_of() and with that router's alias set —
  // merge() must move the column with the addresses.
  const std::size_t ids = graph.address_count();
  for (std::uint32_t id = 0; id < ids; ++id) {
    const Ipv4Addr addr = graph.address(id);
    if (id > 0 && !(graph.address(id - 1) < addr)) {
      sink.error(addr.str(), "address table is not strictly ascending");
    }
    const std::uint32_t r = graph.router_of_id(id);
    const std::optional<std::size_t> found = graph.router_of(addr);
    if (r == RouterGraph::kNoRouter ? found.has_value()
                                    : found != std::optional<std::size_t>(r)) {
      sink.error(addr.str(), "router_of_id() disagrees with router_of()");
    }
    if (r == RouterGraph::kNoRouter) continue;
    if (r >= routers.size() || graph.merged_away(r) ||
        !std::binary_search(routers[r].addrs.begin(), routers[r].addrs.end(),
                            addr)) {
      sink.error(addr.str(), "router_of_id() names " + router_name(r) +
                                 ", whose alias set does not list the "
                                 "address (stale column after a merge?)");
    }
  }

  // Each hop id names that hop's address; a non-reply has no id, and a
  // time-exceeded reply's address always has a router.
  const auto& traces = graph.traces();
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const auto& hops = traces[t].hops;
    const std::span<const std::uint32_t> hop_ids = graph.hop_ids(t);
    if (hop_ids.size() != hops.size()) {
      sink.error("trace#" + std::to_string(t),
                 "hop-id array length differs from the trace's hop count");
      continue;
    }
    for (std::size_t i = 0; i < hops.size(); ++i) {
      const std::uint32_t id = hop_ids[i];
      if (hops[i].kind == probe::ReplyKind::kNone) {
        if (id != RouterGraph::kNoId) {
          sink.error("trace#" + std::to_string(t),
                     "non-reply hop carries an address id");
        }
        continue;
      }
      if (id >= ids || graph.address(id) != hops[i].addr) {
        sink.error(hops[i].addr.str(),
                   "hop id does not name the hop's address");
        continue;
      }
      if (hops[i].kind == probe::ReplyKind::kTimeExceeded &&
          graph.router_of_id(id) == RouterGraph::kNoRouter) {
        sink.error(hops[i].addr.str(),
                   "time-exceeded hop address has no router");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// alias.consistency
// ---------------------------------------------------------------------------

void run_alias_consistency(const CheckContext& ctx, ViolationSink& sink) {
  // The groups under audit: explicit alias groups when given, otherwise the
  // live routers' alias sets.
  std::vector<std::vector<Ipv4Addr>> graph_groups;
  const std::vector<std::vector<Ipv4Addr>>* groups = ctx.alias_groups;
  bool explicit_groups = groups != nullptr;
  if (!explicit_groups) {
    const RouterGraph& graph = *ctx.effective_graph();
    for (std::size_t i = 0; i < graph.routers().size(); ++i) {
      if (!graph.merged_away(i)) {
        graph_groups.push_back(graph.routers()[i].addrs);
      }
    }
    groups = &graph_groups;
  }

  // Disjointness (alias-set uniqueness).
  std::unordered_map<Ipv4Addr, std::size_t> group_of;
  for (std::size_t g = 0; g < groups->size(); ++g) {
    for (Ipv4Addr a : (*groups)[g]) {
      auto [it, inserted] = group_of.emplace(a, g);
      if (!inserted && it->second != g) {
        sink.error(a.str(), "address belongs to two alias groups (#" +
                                std::to_string(it->second) + " and #" +
                                std::to_string(g) + ")");
      }
    }
  }

  if (ctx.aliases == nullptr) return;
  for (const auto& pv : ctx.aliases->all_verdicts()) {
    auto ga = group_of.find(pv.a);
    auto gb = group_of.find(pv.b);
    bool both = ga != group_of.end() && gb != group_of.end();
    std::string ent = pv.a.str() + "/" + pv.b.str();
    if (pv.verdict == core::AliasVerdict::kAlias) {
      if (both && ga->second != gb->second) {
        sink.error(ent, "pair measured as aliases but split across groups "
                        "(symmetry/transitivity break)");
      }
    } else if (pv.verdict == core::AliasVerdict::kNotAlias) {
      if (both && ga->second == gb->second) {
        // The §5.4.7 analytic collapse may legitimately override probe-level
        // negative evidence, so graph-derived sets only warn.
        if (explicit_groups) {
          sink.error(ent, "pair with negative alias evidence placed in one "
                          "alias group");
        } else {
          sink.warn(ent, "router alias set contains a pair with negative "
                         "probe evidence (analytic collapse?)");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// owner.assignment
// ---------------------------------------------------------------------------

void run_owner_assignment(const CheckContext& ctx, ViolationSink& sink) {
  const core::BdrmapResult& result = *ctx.result;
  const RouterGraph& graph = result.graph;
  const auto& routers = graph.routers();

  // The universe of ASes an owner may legally come from: the VP's own
  // (sibling-expanded) ASes, anything in the relationship store, anything
  // originating a prefix, anything in the ground truth when present.
  std::unordered_set<AsId> known;
  if (ctx.inputs != nullptr) {
    known.insert(ctx.inputs->vp_ases.begin(), ctx.inputs->vp_ases.end());
    if (ctx.inputs->origins != nullptr) {
      for (const auto& [prefix, origins] : ctx.inputs->origins->all_prefixes()) {
        known.insert(origins.begin(), origins.end());
      }
    }
  }
  if (ctx.rels != nullptr) {
    for (AsId as : ctx.rels->all_ases()) known.insert(as);
  }
  if (ctx.net != nullptr) {
    for (const auto& info : ctx.net->ases()) known.insert(info.id);
  }

  for (std::size_t i = 0; i < routers.size(); ++i) {
    if (graph.merged_away(i)) continue;
    const GraphRouter& r = routers[i];
    if (r.how == Heuristic::kNone) {
      if (r.owner.valid()) {
        sink.error(router_name(i),
                   "owner assigned without a heuristic of record");
      }
      continue;
    }
    if (!r.owner.valid()) {
      sink.error(router_name(i),
                 std::string("heuristic ") + core::heuristic_name(r.how) +
                     " recorded but owner is invalid");
      continue;
    }
    if (!known.empty() && known.count(r.owner) == 0) {
      sink.error(router_name(i), "router owned by unknown AS " +
                                     r.owner.str() +
                                     " (absent from every input dataset)");
    }
  }

  // Link table discipline.
  for (std::size_t k = 0; k < result.links.size(); ++k) {
    const InferredLink& link = result.links[k];
    std::string ent = "link#" + std::to_string(k);
    if (!link.neighbor_as.valid()) {
      sink.error(ent, "inferred link with invalid neighbor AS");
    }
    if (link.vp_router == InferredLink::kNoRouter &&
        link.neighbor_router == InferredLink::kNoRouter) {
      sink.error(ent, "link anchored to no router on either side");
      continue;
    }
    auto check_side = [&](std::size_t idx, const char* side) -> const GraphRouter* {
      if (idx == InferredLink::kNoRouter) return nullptr;
      if (idx >= routers.size()) {
        sink.error(ent, std::string(side) + " router index out of range");
        return nullptr;
      }
      if (graph.merged_away(idx)) {
        sink.error(ent, std::string(side) + " router was merged away");
        return nullptr;
      }
      return &routers[idx];
    };
    const GraphRouter* near = check_side(link.vp_router, "near");
    const GraphRouter* far = check_side(link.neighbor_router, "far");
    if (near != nullptr && !near->vp_side) {
      sink.error(ent, "near side of an interdomain link is not a VP router");
    }
    if (far != nullptr) {
      if (far->vp_side) {
        sink.error(ent, "far side of an interdomain link is a VP router");
      }
      if (far->owner != link.neighbor_as) {
        sink.error(ent, "link neighbor AS " + link.neighbor_as.str() +
                            " disagrees with the far router's owner " +
                            far->owner.str());
      }
      if (far->how != link.how) {
        sink.error(ent, "link heuristic tag disagrees with the far router's");
      }
    }
  }

  // links_by_as is exactly the per-AS index of `links`.
  std::size_t indexed = 0;
  for (const auto& [as, indices] : result.links_by_as) {
    for (std::size_t k : indices) {
      ++indexed;
      if (k >= result.links.size()) {
        sink.error(as.str(), "links_by_as index out of range");
      } else if (result.links[k].neighbor_as != as) {
        sink.error(as.str(),
                   "links_by_as bucket contains a link to a different AS");
      }
    }
  }
  if (indexed != result.links.size()) {
    sink.error("links_by_as", "per-AS index covers " + std::to_string(indexed) +
                                  " links but the result holds " +
                                  std::to_string(result.links.size()));
  }
}

// ---------------------------------------------------------------------------
// heuristic.preconditions
// ---------------------------------------------------------------------------

void run_heuristic_preconditions(const CheckContext& ctx,
                                 ViolationSink& sink) {
  const core::BdrmapResult& result = *ctx.result;
  const RouterGraph& graph = result.graph;
  const auto& routers = graph.routers();

  std::unordered_set<AsId> vp_ases;
  if (ctx.inputs != nullptr) {
    vp_ases.insert(ctx.inputs->vp_ases.begin(), ctx.inputs->vp_ases.end());
  }

  for (std::size_t i = 0; i < routers.size(); ++i) {
    if (graph.merged_away(i)) continue;
    const GraphRouter& r = routers[i];
    if (silent_heuristic(r.how)) {
      sink.error(router_name(i),
                 std::string(core::heuristic_name(r.how)) +
                     " is a §5.4.8 neighbor placement and may not own a "
                     "visible router");
    }
    if (r.vp_side) {
      // §5.4.1: only the VP-network identification marks the near side.
      if (r.how != Heuristic::kVpNetwork) {
        sink.error(router_name(i),
                   std::string("vp_side router annotated by ") +
                       core::heuristic_name(r.how) +
                       " (only kVpNetwork may mark the near side)");
      }
      if (!vp_ases.empty() && r.owner.valid() &&
          vp_ases.count(r.owner) == 0) {
        sink.error(router_name(i), "vp_side router owned by non-VP AS " +
                                       r.owner.str());
      }
    } else if (r.how == Heuristic::kVpNetwork) {
      sink.error(router_name(i),
                 "kVpNetwork annotation on a router not marked vp_side");
    }
  }

  for (std::size_t k = 0; k < result.links.size(); ++k) {
    const InferredLink& link = result.links[k];
    std::string ent = "link#" + std::to_string(k);
    bool has_far = link.neighbor_router != InferredLink::kNoRouter;
    if (silent_heuristic(link.how)) {
      if (has_far) {
        sink.error(ent, "silent-neighbor link points at a visible far "
                        "router");
      }
      if (link.vp_router == InferredLink::kNoRouter) {
        sink.error(ent, "silent-neighbor link has no near router to attach "
                        "the neighbor to");
      }
    } else if (!has_far) {
      // Visible-heuristic links may omit the near side (first hop after a
      // gap) but never the far side.
      sink.error(ent, std::string("link tagged ") +
                          core::heuristic_name(link.how) +
                          " has no far router");
    }
    if (link.how == Heuristic::kNone) {
      sink.error(ent, "link emitted with no heuristic of record");
    }
  }
}

}  // namespace

void register_inference_passes(InvariantChecker& checker) {
  checker.register_pass(
      {std::string(pass_id::kRouterGraphStructure),
       "router graph is well-formed: unique interfaces, symmetric adjacency, "
       "clean tombstones",
       [](const CheckContext& ctx) { return ctx.effective_graph() != nullptr; },
       run_router_graph});
  checker.register_pass(
      {std::string(pass_id::kAliasConsistency),
       "alias groups are disjoint and agree with recorded pair verdicts",
       [](const CheckContext& ctx) {
         return ctx.alias_groups != nullptr ||
                (ctx.aliases != nullptr && ctx.effective_graph() != nullptr);
       },
       run_alias_consistency});
  checker.register_pass(
      {std::string(pass_id::kOwnerAssignment),
       "owner annotations come from known ASes and the link tables agree "
       "with them",
       [](const CheckContext& ctx) { return ctx.result != nullptr; },
       run_owner_assignment});
  checker.register_pass(
      {std::string(pass_id::kHeuristicPreconditions),
       "§5.4 heuristic tags respect their preconditions on routers and links",
       [](const CheckContext& ctx) { return ctx.result != nullptr; },
       run_heuristic_preconditions});
}

}  // namespace bdrmap::check::detail
