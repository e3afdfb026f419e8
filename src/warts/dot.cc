#include "warts/dot.h"

#include <map>
#include <set>

namespace bdrmap::warts {

namespace {

const char* heuristic_color(core::Heuristic h) {
  switch (h) {
    case core::Heuristic::kFirewall: return "lightcoral";
    case core::Heuristic::kOnenet: return "lightblue";
    case core::Heuristic::kRelationship: return "palegreen";
    case core::Heuristic::kHiddenPeer: return "gold";
    case core::Heuristic::kThirdParty: return "plum";
    case core::Heuristic::kSilent:
    case core::Heuristic::kOtherIcmp: return "lightgray";
    default: return "white";
  }
}

std::string node_name(std::size_t index) {
  return "r" + std::to_string(index);
}

}  // namespace

std::string result_to_dot(const core::BdrmapResult& result) {
  const core::RouterGraph& graph = result.graph;
  const auto& routers = graph.routers();
  std::string out = "digraph borders {\n  rankdir=LR;\n"
                    "  node [shape=box, style=filled, fontsize=9];\n";

  // VP-side cluster.
  out += "  subgraph cluster_vp {\n    label=\"VP network\";\n"
         "    style=dashed;\n";
  std::set<std::size_t> vp_nodes, far_nodes;
  for (const auto& link : result.links) {
    if (link.vp_router != core::InferredLink::kNoRouter) {
      vp_nodes.insert(link.vp_router);
    }
    if (link.neighbor_router != core::InferredLink::kNoRouter) {
      far_nodes.insert(link.neighbor_router);
    }
  }
  for (std::size_t v : vp_nodes) {
    out += "    " + node_name(v) + " [label=\"" +
           (graph.addrs(v).empty() ? std::string("?")
                                   : graph.addrs(v).front().str()) +
           "\", fillcolor=white];\n";
  }
  out += "  }\n";

  // Far-side routers, grouped per neighbor AS.
  std::map<net::AsId, std::vector<std::size_t>> by_as;
  for (std::size_t f : far_nodes) by_as[routers[f].owner].push_back(f);
  std::size_t cluster = 0;
  for (const auto& [as, nodes] : by_as) {
    out += "  subgraph cluster_" + std::to_string(cluster++) +
           " {\n    label=\"" + as.str() + "\";\n";
    for (std::size_t f : nodes) {
      out += "    " + node_name(f) + " [label=\"" +
             (graph.addrs(f).empty() ? std::string("?")
                                     : graph.addrs(f).front().str()) +
             "\", fillcolor=" + heuristic_color(routers[f].how) + "];\n";
    }
    out += "  }\n";
  }

  // Links (silent neighbors render as a synthetic node).
  std::size_t silent = 0;
  for (const auto& link : result.links) {
    std::string from = link.vp_router != core::InferredLink::kNoRouter
                           ? node_name(link.vp_router)
                           : "unknown_near";
    std::string to;
    if (link.neighbor_router != core::InferredLink::kNoRouter) {
      to = node_name(link.neighbor_router);
    } else {
      to = "silent" + std::to_string(silent++);
      out += "  " + to + " [label=\"" + link.neighbor_as.str() +
             " (silent)\", fillcolor=lightgray, style=\"filled,dotted\"];\n";
    }
    out += "  " + from + " -> " + to + " [label=\"" +
           core::heuristic_name(link.how) + "\", fontsize=7];\n";
  }
  out += "}\n";
  return out;
}

}  // namespace bdrmap::warts
