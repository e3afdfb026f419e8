#include "core/router_graph.h"

#include <algorithm>
#include <iterator>

#include "netbase/contract.h"
#include "netbase/radix_sort.h"

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

// Flat-set helpers over sorted, duplicate-free vectors.
template <typename T>
void sort_unique(std::vector<T>& v) {
  if (v.size() < 2) return;
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

template <typename T>
void insert_sorted(std::vector<T>& v, T x) {
  auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) v.insert(it, x);
}

template <typename T>
void erase_sorted(std::vector<T>& v, T x) {
  auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it != v.end() && *it == x) v.erase(it);
}

// Appends `x` unless it repeats the last element: consecutive traces
// mostly share their path prefix, so this keeps the duplicates that
// sort_unique() drops later to a few.
template <typename T>
void push_new(std::vector<T>& v, T x) {
  if (v.empty() || v.back() != x) v.push_back(x);
}

}  // namespace

const char* heuristic_name(Heuristic h) { return label(h).name; }

const char* heuristic_tag(Heuristic h) { return label(h).tag; }

RouterGraph::RouterGraph(
    SharedTraces traces,
    const std::vector<std::vector<Ipv4Addr>>& alias_groups)
    : traces_(std::move(traces)) {
  // Address table: one radix sort of (address, hop slot) keys numbers
  // every distinct address in ascending order and fills the hop-id array
  // in the same pass. Alias-group members carry no hop (kGroupSlot).
  constexpr std::uint32_t kGroupSlot = kNoId;
  hop_begin_.reserve(traces_.size() + 1);
  std::size_t hop_count = 0;
  for (const ObservedTrace& trace : traces_) {
    hop_begin_.push_back(hop_count);
    hop_count += trace.hops.size();
  }
  hop_begin_.push_back(hop_count);
  BDRMAP_EXPECTS(hop_count < kGroupSlot, "too many hops for 32-bit slots");
  hop_ids_.assign(hop_count, kNoId);
  auto key = [](Ipv4Addr a, std::uint32_t slot) {
    return (std::uint64_t{a.value()} << 32) | slot;
  };
  std::vector<std::uint64_t> keys;
  keys.reserve(hop_count);
  std::uint32_t slot = 0;
  for (const ObservedTrace& trace : traces_) {
    for (const ObservedHop& hop : trace.hops) {
      if (hop.kind != probe::ReplyKind::kNone) {
        keys.push_back(key(hop.addr, slot));
      }
      ++slot;
    }
  }
  for (const auto& group : alias_groups) {
    for (Ipv4Addr a : group) keys.push_back(key(a, kGroupSlot));
  }
  net::radix_sort(keys, 32, [](std::uint64_t k) { return k >> 32; });
  for (std::uint64_t k : keys) {
    const Ipv4Addr a(static_cast<std::uint32_t>(k >> 32));
    if (addrs_.empty() || addrs_.back() != a) addrs_.push_back(a);
    const auto s = static_cast<std::uint32_t>(k);
    if (s != kGroupSlot) {
      hop_ids_[s] = static_cast<std::uint32_t>(addrs_.size() - 1);
    }
  }
  router_col_.assign(addrs_.size(), kNoRouter);
  routers_.reserve(addrs_.size());

  // Seed routers from alias groups; an address listed twice stays with
  // its first group.
  for (const auto& group : alias_groups) {
    if (group.empty()) continue;
    const auto index = static_cast<std::uint32_t>(routers_.size());
    GraphRouter r;
    r.addrs = group;
    std::sort(r.addrs.begin(), r.addrs.end());
    for (Ipv4Addr a : r.addrs) {
      std::uint32_t& col = router_col_[*id_of(a)];
      if (col == kNoRouter) col = index;
    }
    routers_.push_back(std::move(r));
  }

  std::vector<std::uint8_t> in_ttl(addrs_.size(), 0);
  // BDRMAP_HOT_BEGIN(graph_build)
  for (std::size_t t = 0; t < traces_.size(); ++t) {
    const ObservedTrace& trace = traces_[t];
    const std::span<const std::uint32_t> ids = hop_ids(t);
    // The previous hop's router while hops are consecutive replies:
    // adjacency only between consecutive responsive hops, since a '*'
    // between two replies means the true neighbor was unobserved.
    std::uint32_t prev_router = kNoRouter;
    std::uint32_t last_ttl_router = kNoRouter;
    bool replied_after = false;  // echo/unreachable after last_ttl_router
    for (std::size_t i = 0; i < trace.hops.size(); ++i) {
      const ObservedHop& hop = trace.hops[i];
      // Only time-exceeded replies identify router interfaces (§5.3): an
      // echo reply's source is the probed address, which could be any
      // interface of the destination, so it contributes neither a node
      // nor adjacency.
      if (hop.kind != probe::ReplyKind::kTimeExceeded) {
        prev_router = kNoRouter;
        replied_after |= hop.kind != probe::ReplyKind::kNone;
        continue;
      }
      std::uint32_t& col = router_col_[ids[i]];
      if (col == kNoRouter) {
        col = static_cast<std::uint32_t>(routers_.size());
        GraphRouter singleton;
        singleton.addrs = {hop.addr};
        routers_.push_back(std::move(singleton));
      }
      const std::uint32_t r = col;
      in_ttl[ids[i]] = 1;
      GraphRouter& router = routers_[r];
      router.min_hop = std::min(router.min_hop, static_cast<int>(i));
      push_new(router.dest_ases, trace.target_as);
      if (prev_router != kNoRouter && prev_router != r) {
        push_new(routers_[prev_router].next, std::size_t{r});
        push_new(router.prev, std::size_t{prev_router});
      }
      prev_router = r;
      last_ttl_router = r;
      replied_after = false;
    }
    // The last router seen toward the target, with no reply beyond it, is
    // its terminus. Stop-set truncation is not evidence of a path
    // terminus: the trace was cut short deliberately, not by the network.
    if (last_ttl_router != kNoRouter && !replied_after && !trace.reached_dst &&
        !trace.stopped_by_stopset) {
      push_new(routers_[last_ttl_router].terminal_for, trace.target_as);
    }
  }
  // BDRMAP_HOT_END(graph_build)

  // Ids ascend with addresses, so each ttl_addrs list comes out sorted.
  for (std::uint32_t id = 0; id < addrs_.size(); ++id) {
    if (in_ttl[id]) routers_[router_col_[id]].ttl_addrs.push_back(addrs_[id]);
  }
  for (GraphRouter& r : routers_) {
    sort_unique(r.prev);
    sort_unique(r.next);
    sort_unique(r.dest_ases);
    sort_unique(r.terminal_for);
  }
}

std::optional<std::size_t> RouterGraph::router_of(Ipv4Addr addr) const {
  const std::optional<std::uint32_t> id = id_of(addr);
  if (!id || router_col_[*id] == kNoRouter) return std::nullopt;
  return router_col_[*id];
}

std::optional<std::uint32_t> RouterGraph::id_of(Ipv4Addr addr) const {
  auto it = std::lower_bound(addrs_.begin(), addrs_.end(), addr);
  if (it == addrs_.end() || *it != addr) return std::nullopt;
  return static_cast<std::uint32_t>(it - addrs_.begin());
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
    if (const std::optional<std::uint32_t> id = id_of(a)) {
      router_col_[*id] = static_cast<std::uint32_t>(into);
    }
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
  dst.dest_ases.insert(dst.dest_ases.end(), src.dest_ases.begin(),
                       src.dest_ases.end());
  sort_unique(dst.dest_ases);
  dst.terminal_for.insert(dst.terminal_for.end(), src.terminal_for.begin(),
                          src.terminal_for.end());
  sort_unique(dst.terminal_for);

  // Rewire adjacency: everything pointing at `from` now points at `into`.
  for (std::size_t p : src.prev) {
    if (p == into) continue;
    erase_sorted(routers_[p].next, from);
    insert_sorted(routers_[p].next, into);
    insert_sorted(dst.prev, p);
  }
  for (std::size_t n : src.next) {
    if (n == into) continue;
    erase_sorted(routers_[n].prev, from);
    insert_sorted(routers_[n].prev, into);
    insert_sorted(dst.next, n);
  }
  erase_sorted(dst.prev, from);
  erase_sorted(dst.next, from);
  erase_sorted(dst.prev, into);
  erase_sorted(dst.next, into);

  src = GraphRouter{};  // tombstone (addrs empty == merged away)
  BDRMAP_ENSURES(merged_away(from) && !merged_away(into));
}

std::size_t RouterGraph::live_router_count() const {
  std::size_t n = 0;
  for (const auto& r : routers_) n += !r.addrs.empty();
  return n;
}

}  // namespace bdrmap::core
