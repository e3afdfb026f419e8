#include "eval/ground_truth.h"

#include <algorithm>
#include <map>

namespace bdrmap::eval {

GroundTruth::GroundTruth(const topo::Internet& net, AsId vp_as)
    : net_(net), vp_as_(vp_as) {}

std::optional<RouterId> GroundTruth::true_router(
    std::span<const Ipv4Addr> addrs) const {
  std::map<RouterId, int> votes;
  for (Ipv4Addr a : addrs) {
    if (auto r = net_.router_at(a)) ++votes[*r];
  }
  if (votes.empty()) return std::nullopt;
  auto best = std::max_element(
      votes.begin(), votes.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return best->first;
}

std::optional<AsId> GroundTruth::true_owner(
    std::span<const Ipv4Addr> addrs) const {
  std::map<AsId, int> votes;
  for (Ipv4Addr a : addrs) {
    if (auto r = net_.router_at(a)) ++votes[net_.router(*r).owner];
  }
  if (votes.empty()) return std::nullopt;
  auto best = std::max_element(
      votes.begin(), votes.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return best->first;
}

bool GroundTruth::same_org(AsId a, AsId b) const {
  if (a == b) return true;
  return net_.sibling_table().are_siblings(a, b);
}

std::vector<AsId> GroundTruth::true_neighbors() const {
  std::vector<AsId> out;
  for (const auto& info : net_.interdomain_links()) {
    AsId other;
    if (same_org(info.as_a, vp_as_)) {
      other = info.as_b;
    } else if (same_org(info.as_b, vp_as_)) {
      other = info.as_a;
    } else {
      continue;
    }
    if (std::find(out.begin(), out.end(), other) == out.end()) {
      out.push_back(other);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

ValidationSummary GroundTruth::validate(
    const core::BdrmapResult& result) const {
  ValidationSummary summary;

  // Routers: every inferred neighbor (far-side) router.
  const core::RouterGraph& graph = result.graph;
  const auto& routers = graph.routers();
  for (std::size_t i = 0; i < routers.size(); ++i) {
    const auto& r = routers[i];
    if (graph.merged_away(i) || r.vp_side ||
        r.how == core::Heuristic::kNone || !r.owner.valid()) {
      continue;
    }
    RouterValidation v;
    v.graph_index = i;
    v.inferred_owner = r.owner;
    v.how = r.how;
    auto truth = true_owner(graph.addrs(i));
    if (!truth) {
      // Addresses unknown to the generator cannot occur; defensive.
      v.verdict = Verdict::kInconsistent;
    } else {
      v.true_owner = *truth;
      v.verdict = same_org(*truth, r.owner) ? Verdict::kCorrect
                                            : Verdict::kWrongAs;
    }
    ++summary.routers_total;
    if (v.verdict == Verdict::kCorrect) ++summary.routers_correct;
    summary.routers.push_back(v);
  }

  // Links: resolve each inferred link to ground-truth routers and check
  // that such an interdomain link exists with the inferred organization.
  for (std::size_t i = 0; i < result.links.size(); ++i) {
    const auto& link = result.links[i];
    LinkTruth lt;
    lt.link_index = i;
    lt.inferred_as = link.neighbor_as;

    if (link.vp_router != core::InferredLink::kNoRouter) {
      auto near = true_router(graph.addrs(link.vp_router));
      if (near) lt.near_router = *near;
    }
    if (link.neighbor_router != core::InferredLink::kNoRouter) {
      auto far = true_router(graph.addrs(link.neighbor_router));
      if (far) lt.far_router = *far;
    }

    if (lt.far_router.valid()) {
      // Correct iff the far router's true operator matches the inferred
      // organization (this is what the paper's operators confirmed).
      lt.correct = same_org(net_.router(lt.far_router).owner,
                            link.neighbor_as);
      // Resolve the physical interconnect: an inferred far-side address
      // sitting on an interdomain subnet identifies the link precisely
      // (parallel links between one router pair stay distinct).
      for (Ipv4Addr a : graph.addrs(link.neighbor_router)) {
        auto iface = net_.iface_at(a);
        if (!iface) continue;
        const auto& l = net_.link(net_.iface(*iface).link);
        if (l.kind == topo::LinkKind::kInternal) continue;
        if (!lt.near_router.valid()) {
          lt.truth_link = l.id;
          break;
        }
        bool touches_near = false;
        for (auto i2 : l.ifaces) {
          touches_near |= net_.iface(i2).router == lt.near_router;
        }
        if (touches_near) {
          lt.truth_link = l.id;
          break;
        }
      }
      if (!lt.truth_link.valid() && lt.near_router.valid()) {
        for (const auto& info : net_.interdomain_links()) {
          bool match = (info.router_a == lt.near_router &&
                        info.router_b == lt.far_router) ||
                       (info.router_b == lt.near_router &&
                        info.router_a == lt.far_router);
          if (match) {
            lt.truth_link = info.link;
            break;
          }
        }
      }
    } else if (lt.near_router.valid()) {
      // Silent neighbor: correct iff the true near router has an
      // interdomain link with the inferred organization.
      for (const auto& info : net_.interdomain_links()) {
        bool near_matches =
            info.router_a == lt.near_router || info.router_b == lt.near_router;
        if (!near_matches) continue;
        AsId other = (info.router_a == lt.near_router) ? info.as_b : info.as_a;
        if (same_org(other, link.neighbor_as)) {
          lt.correct = true;
          lt.far_router = (info.router_a == lt.near_router) ? info.router_b
                                                            : info.router_a;
          lt.truth_link = info.link;
          break;
        }
      }
    }
    ++summary.links_total;
    if (lt.correct) ++summary.links_correct;
    summary.links.push_back(lt);
  }
  return summary;
}

}  // namespace bdrmap::eval
