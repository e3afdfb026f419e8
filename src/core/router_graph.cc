#include "core/router_graph.h"

#include <algorithm>
#include <iterator>

#include "netbase/contract.h"

namespace bdrmap::core {

namespace {

// Per Heuristic, in enum order: the paper's Table 1 row name and the
// metric tag publish_result files the placement's confidence under.
struct HeuristicLabel {
  const char* name;
  const char* tag;
};
constexpr HeuristicLabel kHeuristicLabels[] = {
    {"none", "none"},
    {"1. VP network", "vp_network"},
    {"1. Multihomed to VP", "multihomed"},
    {"2. Firewall", "firewall"},
    {"3. Unrouted interface", "unrouted"},
    {"4. IP-AS (onenet)", "onenet"},
    {"5. Third party", "third_party"},
    {"5. AS relationship", "relationship"},
    {"5. Missing customer", "missing_customer"},
    {"5. Hidden peer", "hidden_peer"},
    {"6. Count", "count"},
    {"6. IP-AS", "ip_as"},
    {"8. Silent neighbor", "silent"},
    {"8. Other ICMP", "other_icmp"},
};
static_assert(std::size(kHeuristicLabels) ==
              static_cast<std::size_t>(Heuristic::kOtherIcmp) + 1);

const HeuristicLabel& label(Heuristic h) {
  static constexpr HeuristicLabel kUnknown{"?", "unknown"};
  const auto i = static_cast<std::size_t>(h);
  return i < std::size(kHeuristicLabels) ? kHeuristicLabels[i] : kUnknown;
}

}  // namespace

const char* heuristic_name(Heuristic h) { return label(h).name; }

const char* heuristic_tag(Heuristic h) { return label(h).tag; }

RouterGraph::RouterGraph(
    std::vector<ObservedTrace> traces,
    const std::vector<std::vector<Ipv4Addr>>& alias_groups)
    : traces_(std::move(traces)) {
  // Seed routers from alias groups.
  for (const auto& group : alias_groups) {
    if (group.empty()) continue;
    std::size_t index = routers_.size();
    GraphRouter r;
    r.addrs = group;
    std::sort(r.addrs.begin(), r.addrs.end());
    for (Ipv4Addr a : r.addrs) addr_to_router_.emplace(a, index);
    routers_.push_back(std::move(r));
  }

  auto router_for = [&](Ipv4Addr a) {
    auto it = addr_to_router_.find(a);
    if (it != addr_to_router_.end()) return it->second;
    std::size_t index = routers_.size();
    GraphRouter r;
    r.addrs = {a};
    routers_.push_back(std::move(r));
    addr_to_router_.emplace(a, index);
    return index;
  };

  for (const auto& trace : traces_) {
    std::size_t prev_router = std::numeric_limits<std::size_t>::max();
    bool prev_was_adjacent = false;
    std::size_t last_ttl_router = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < trace.hops.size(); ++i) {
      const ObservedHop& hop = trace.hops[i];
      // Only time-exceeded replies identify router interfaces (§5.3): an
      // echo reply's source is the probed address, which could be any
      // interface of the destination, so it contributes neither a node
      // nor adjacency.
      if (hop.kind != probe::ReplyKind::kTimeExceeded) {
        prev_was_adjacent = false;
        continue;
      }
      std::size_t r = router_for(hop.addr);
      GraphRouter& router = routers_[r];
      if (std::find(router.ttl_addrs.begin(), router.ttl_addrs.end(),
                    hop.addr) == router.ttl_addrs.end()) {
        router.ttl_addrs.push_back(hop.addr);
      }
      router.min_hop = std::min(router.min_hop, static_cast<int>(i));
      router.dest_ases.insert(trace.target_as);
      last_ttl_router = r;
      // Adjacency only between consecutive responsive hops: a '*' between
      // two replies means the true neighbor was unobserved.
      if (prev_was_adjacent && prev_router != r &&
          prev_router != std::numeric_limits<std::size_t>::max()) {
        routers_[prev_router].next.insert(r);
        routers_[r].prev.insert(prev_router);
      }
      prev_router = r;
      prev_was_adjacent = true;
    }
    if (last_ttl_router != std::numeric_limits<std::size_t>::max()) {
      // Was this router the last thing we saw toward the target?
      GraphRouter& last = routers_[last_ttl_router];
      bool nothing_after = true;
      // Anything after the router's last time-exceeded hop that replied?
      for (std::size_t i = trace.hops.size(); i-- > 0;) {
        const ObservedHop& hop = trace.hops[i];
        if (hop.kind == probe::ReplyKind::kTimeExceeded) {
          auto it = addr_to_router_.find(hop.addr);
          nothing_after = it != addr_to_router_.end() &&
                          it->second == last_ttl_router;
          break;
        }
        if (hop.kind != probe::ReplyKind::kNone) {
          nothing_after = false;  // echo/unreachable beyond it
          break;
        }
      }
      // Stop-set truncation is not evidence of a path terminus: the trace
      // was cut short deliberately, not by the network.
      if (nothing_after && !trace.reached_dst && !trace.stopped_by_stopset) {
        last.terminal_for.insert(trace.target_as);
      }
    }
  }

  // Sort ttl_addrs for deterministic behaviour.
  for (GraphRouter& r : routers_) {
    std::sort(r.ttl_addrs.begin(), r.ttl_addrs.end());
  }
}

std::optional<std::size_t> RouterGraph::router_of(Ipv4Addr addr) const {
  auto it = addr_to_router_.find(addr);
  if (it == addr_to_router_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::size_t> RouterGraph::by_hop_distance() const {
  std::vector<std::size_t> order;
  order.reserve(routers_.size());
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    if (!routers_[i].addrs.empty()) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (routers_[a].min_hop != routers_[b].min_hop) {
      return routers_[a].min_hop < routers_[b].min_hop;
    }
    return a < b;
  });
  return order;
}

void RouterGraph::merge(std::size_t into, std::size_t from) {
  BDRMAP_EXPECTS(into < routers_.size() && from < routers_.size());
  if (into == from) return;
  BDRMAP_EXPECTS(!merged_away(into), "merge target is a tombstone");
  BDRMAP_EXPECTS(!merged_away(from), "merge source is a tombstone");
  GraphRouter& dst = routers_[into];
  GraphRouter& src = routers_[from];
  for (Ipv4Addr a : src.addrs) {
    addr_to_router_[a] = into;
    dst.addrs.push_back(a);
  }
  for (Ipv4Addr a : src.ttl_addrs) dst.ttl_addrs.push_back(a);
  std::sort(dst.addrs.begin(), dst.addrs.end());
  dst.addrs.erase(std::unique(dst.addrs.begin(), dst.addrs.end()),
                  dst.addrs.end());
  std::sort(dst.ttl_addrs.begin(), dst.ttl_addrs.end());
  dst.ttl_addrs.erase(
      std::unique(dst.ttl_addrs.begin(), dst.ttl_addrs.end()),
      dst.ttl_addrs.end());
  dst.min_hop = std::min(dst.min_hop, src.min_hop);
  dst.dest_ases.insert(src.dest_ases.begin(), src.dest_ases.end());
  dst.terminal_for.insert(src.terminal_for.begin(), src.terminal_for.end());

  // Rewire adjacency: everything pointing at `from` now points at `into`.
  for (std::size_t p : src.prev) {
    if (p == into) continue;
    routers_[p].next.erase(from);
    routers_[p].next.insert(into);
    dst.prev.insert(p);
  }
  for (std::size_t n : src.next) {
    if (n == into) continue;
    routers_[n].prev.erase(from);
    routers_[n].prev.insert(into);
    dst.next.insert(n);
  }
  dst.prev.erase(from);
  dst.next.erase(from);
  dst.prev.erase(into);
  dst.next.erase(into);

  src = GraphRouter{};  // tombstone (addrs empty == merged away)
  BDRMAP_ENSURES(merged_away(from) && !merged_away(into));
}

std::size_t RouterGraph::live_router_count() const {
  std::size_t n = 0;
  for (const auto& r : routers_) n += !r.addrs.empty();
  return n;
}

}  // namespace bdrmap::core
