#include "eval/analysis.h"

namespace bdrmap::eval {

std::vector<TraceExit> trace_exits(const core::BdrmapResult& result,
                                   const GroundTruth& truth,
                                   const asdata::OriginTable& origins) {
  std::vector<TraceExit> out;
  const auto& routers = result.graph.routers();
  for (const auto& trace : result.graph.traces()) {
    net::Prefix prefix;
    if (!origins.origins(trace.dst, &prefix)) continue;

    // Walk the hops: the egress is the last VP-side router seen before the
    // first hop attributed to an external operator. Prefer an external
    // router directly adjacent to the egress (the inferred border); deeper
    // routers only as a fallback (rate-limited borders leave gaps).
    std::size_t last_vp = core::InferredLink::kNoRouter;
    std::size_t adjacent_external = core::InferredLink::kNoRouter;
    std::size_t any_external = core::InferredLink::kNoRouter;
    bool prev_was_last_vp = false;
    for (const auto& hop : trace.hops) {
      if (hop.kind != probe::ReplyKind::kTimeExceeded) {
        prev_was_last_vp = false;
        continue;
      }
      auto r = result.graph.router_of(hop.addr);
      if (!r) continue;
      if (routers[*r].vp_side) {
        last_vp = *r;
        prev_was_last_vp = true;
        continue;
      }
      if (routers[*r].how != core::Heuristic::kNone &&
          routers[*r].owner.valid()) {
        if (any_external == core::InferredLink::kNoRouter) {
          any_external = *r;
        }
        if (prev_was_last_vp &&
            adjacent_external == core::InferredLink::kNoRouter) {
          adjacent_external = *r;
        }
      }
      prev_was_last_vp = false;
      if (adjacent_external != core::InferredLink::kNoRouter) break;
    }
    if (last_vp == core::InferredLink::kNoRouter) continue;

    TraceExit exit;
    exit.prefix = prefix;
    auto egress = truth.true_router(result.graph.addrs(last_vp));
    if (!egress) continue;
    exit.egress_truth = *egress;
    std::size_t border = adjacent_external != core::InferredLink::kNoRouter
                             ? adjacent_external
                             : any_external;
    if (border != core::InferredLink::kNoRouter) {
      exit.next_as = routers[border].owner;
    } else {
      exit.next_as = trace.target_as;  // nothing seen beyond the border
    }
    out.push_back(exit);
  }
  return out;
}

std::set<std::uint32_t> discovered_links_with(
    const core::BdrmapResult& result, const GroundTruth& truth,
    AsId neighbor) {
  std::set<std::uint32_t> out;
  auto summary = truth.validate(result);
  for (const auto& lt : summary.links) {
    if (!lt.truth_link.valid() || !lt.correct) continue;
    if (!truth.same_org(lt.inferred_as, neighbor)) continue;
    out.insert(lt.truth_link.value);
  }
  return out;
}

}  // namespace bdrmap::eval
