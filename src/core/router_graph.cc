#include "core/router_graph.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <numeric>

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

// The 32-bit value a column stores.
std::uint32_t raw(std::uint32_t v) { return v; }
std::uint32_t raw(Ipv4Addr a) { return a.value(); }
std::uint32_t raw(AsId as) { return as.value; }

// (router, value) key of a column entry.
std::uint64_t column_key(std::uint32_t router, std::uint32_t value) {
  return (std::uint64_t{router} << 32) | value;
}

// Fills one column over `routers` routers from its (router, value) keys:
// one radix sort on (router, value) packed into as few bits as they need,
// then each router's repeats dropped. Consumes `keys`.
template <typename T>
void fill_column(std::vector<std::uint64_t>& keys, std::size_t routers,
                 std::vector<std::uint32_t>& offsets, std::vector<T>& values) {
  std::uint32_t max_value = 0;
  for (std::uint64_t k : keys) {
    max_value = std::max(max_value, static_cast<std::uint32_t>(k));
  }
  const int value_bits = std::bit_width(max_value);
  const int router_bits = static_cast<int>(std::bit_width(routers));
  net::radix_sort(keys, router_bits + value_bits, [&](std::uint64_t k) {
    return ((k >> 32) << value_bits) | (k & 0xffffffffu);
  });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  offsets.assign(routers + 1, 0);
  values.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ++offsets[(keys[i] >> 32) + 1];
    values[i] = T(static_cast<std::uint32_t>(keys[i]));
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
}

}  // namespace

const char* heuristic_name(Heuristic h) { return label(h).name; }

const char* heuristic_tag(Heuristic h) { return label(h).tag; }

RouterGraph::RouterGraph(SharedTraces traces, const AliasGroups& alias_groups)
    : traces_(std::move(traces)) {
  // Address table: one radix sort of (address, slot) keys numbers every
  // distinct address in ascending order and, in the same pass, fills the
  // hop-id array (hop h has slot h) and names each alias-group member's id
  // (member m has slot hop_count + m).
  hop_begin_.reserve(traces_.size() + 1);
  std::size_t hop_count = 0;
  for (const ObservedTrace& trace : traces_) {
    hop_begin_.push_back(hop_count);
    hop_count += trace.hops.size();
  }
  hop_begin_.push_back(hop_count);
  const std::span<const Ipv4Addr> members = alias_groups.members();
  BDRMAP_EXPECTS(hop_count + members.size() < kNoId,
                 "too many hops for 32-bit slots");
  hop_ids_.assign(hop_count, kNoId);
  std::vector<std::uint32_t> member_ids(members.size());
  std::vector<std::uint64_t> keys;
  keys.reserve(hop_count + members.size());
  std::uint32_t slot = 0;
  for (const ObservedTrace& trace : traces_) {
    for (const ObservedHop& hop : trace.hops) {
      if (hop.kind != probe::ReplyKind::kNone) {
        keys.push_back(column_key(hop.addr.value(), slot));
      }
      ++slot;
    }
  }
  for (Ipv4Addr a : members) keys.push_back(column_key(a.value(), slot++));
  net::radix_sort(keys, 32, [](std::uint64_t k) { return k >> 32; });
  std::size_t distinct = 0;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    distinct += k == 0 || (keys[k] >> 32) != (keys[k - 1] >> 32);
  }
  addrs_.reserve(distinct);
  for (std::uint64_t k : keys) {
    const Ipv4Addr a(static_cast<std::uint32_t>(k >> 32));
    if (addrs_.empty() || addrs_.back() != a) addrs_.push_back(a);
    const auto s = static_cast<std::uint32_t>(k);
    const auto id = static_cast<std::uint32_t>(addrs_.size() - 1);
    if (s < hop_count) {
      hop_ids_[s] = id;
    } else {
      member_ids[s - hop_count] = id;
    }
  }
  router_col_.assign(addrs_.size(), kNoRouter);
  // At most one router per group and one singleton per address.
  const std::size_t max_routers = alias_groups.size() + addrs_.size();
  routers_.reserve(max_routers);

  // Seed routers from alias groups; an address listed twice stays with
  // its first group. The (router, address) keys of every alias set,
  // singletons added in the walk.
  std::vector<std::uint64_t> addr_keys;
  addr_keys.reserve(members.size() + addrs_.size());
  for (std::size_t g = 0; g < alias_groups.size(); ++g) {
    const std::span<const Ipv4Addr> group = alias_groups[g];
    if (group.empty()) continue;
    const auto index = static_cast<std::uint32_t>(routers_.size());
    const std::size_t first = static_cast<std::size_t>(group.data() -
                                                       members.data());
    for (std::size_t m = first; m < first + group.size(); ++m) {
      std::uint32_t& col = router_col_[member_ids[m]];
      if (col == kNoRouter) col = index;
      addr_keys.push_back(column_key(index, members[m].value()));
    }
    routers_.emplace_back();
  }

  // The walk gathers the other columns' keys. A router's repeat of the
  // value it last added is skipped at once: consecutive traces mostly
  // share their path prefix, so this keeps the duplicates the sort drops
  // to a few.
  std::vector<std::uint64_t> dest_keys, edge_keys, terminal_keys;
  dest_keys.reserve(hop_count);
  edge_keys.reserve(hop_count);
  terminal_keys.reserve(traces_.size());
  std::vector<std::uint32_t> last_dest(max_routers, kNoId);
  std::vector<std::uint32_t> last_next(max_routers, kNoRouter);
  std::vector<std::uint8_t> in_ttl(addrs_.size(), 0);
  // BDRMAP_HOT_BEGIN(graph_build)
  for (std::size_t t = 0; t < traces_.size(); ++t) {
    const ObservedTrace& trace = traces_[t];
    const std::span<const std::uint32_t> ids = hop_ids(t);
    const std::uint32_t target = trace.target_as.value;
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
        routers_.emplace_back();
        addr_keys.push_back(column_key(col, hop.addr.value()));
      }
      const std::uint32_t r = col;
      in_ttl[ids[i]] = 1;
      int& min_hop = routers_[r].min_hop;
      min_hop = std::min(min_hop, static_cast<int>(i));
      if (last_dest[r] != target) {
        last_dest[r] = target;
        dest_keys.push_back(column_key(r, target));
      }
      if (prev_router != kNoRouter && prev_router != r &&
          last_next[prev_router] != r) {
        last_next[prev_router] = r;
        edge_keys.push_back(column_key(prev_router, r));
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
      terminal_keys.push_back(column_key(last_ttl_router, target));
    }
  }
  // BDRMAP_HOT_END(graph_build)

  // BDRMAP_HOT_BEGIN(graph_columns)
  const std::size_t n = routers_.size();
  fill_column(addr_keys, n, addrs_col_.offsets, addrs_col_.values);
  fill_column(dest_keys, n, dest_col_.offsets, dest_col_.values);
  fill_column(terminal_keys, n, terminal_col_.offsets, terminal_col_.values);
  fill_column(edge_keys, n, next_col_.offsets, next_col_.values);
  // The same edges seen from their far end.
  for (std::uint64_t& k : edge_keys) k = (k << 32) | (k >> 32);
  fill_column(edge_keys, n, prev_col_.offsets, prev_col_.values);
  // Ids ascend with addresses, so each router's run comes out sorted.
  addr_keys.clear();
  for (std::uint32_t id = 0; id < addrs_.size(); ++id) {
    if (in_ttl[id]) addr_keys.push_back(column_key(router_col_[id], id));
  }
  fill_column(addr_keys, n, ttl_col_.offsets, ttl_col_.values);
  // BDRMAP_HOT_END(graph_columns)
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
  // Counting sort: one bucket per observed hop distance, then one for
  // routers no time-exceeded reply placed; index order within a bucket.
  constexpr int kUnseen = std::numeric_limits<int>::max();
  int max_hop = -1;
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    if (!merged_away(i) && routers_[i].min_hop != kUnseen) {
      max_hop = std::max(max_hop, routers_[i].min_hop);
    }
  }
  const auto bucket = [&](std::size_t i) {
    const int h = routers_[i].min_hop;
    return static_cast<std::size_t>(h == kUnseen ? max_hop + 1 : h);
  };
  std::vector<std::size_t> start(static_cast<std::size_t>(max_hop) + 3, 0);
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    if (!merged_away(i)) ++start[bucket(i) + 1];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<std::size_t> order(start.back());
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    if (!merged_away(i)) order[start[bucket(i)]++] = i;
  }
  return order;
}

void RouterGraph::merge(std::size_t into, std::size_t from) {
  BDRMAP_EXPECTS(into < routers_.size() && from < routers_.size());
  const Merge one{static_cast<std::uint32_t>(into),
                  static_cast<std::uint32_t>(from)};
  merge(std::span<const Merge>(&one, 1));
}

void RouterGraph::merge(std::span<const Merge> merges) {
  // Union-find over the batch: a merged-away router points at the router
  // it merged into, so find() names every router's survivor.
  const std::size_t n = routers_.size();
  std::vector<std::uint32_t> to(n);
  std::iota(to.begin(), to.end(), 0u);
  const auto find = [&](std::uint32_t x) {
    while (to[x] != x) x = to[x] = to[to[x]];
    return x;
  };
  bool any = false;
  for (const auto& [into, from] : merges) {
    BDRMAP_EXPECTS(into < n && from < n);
    if (into == from) continue;
    BDRMAP_EXPECTS(!merged_away(into) && to[into] == into,
                   "merge target is a tombstone");
    BDRMAP_EXPECTS(!merged_away(from) && to[from] == from,
                   "merge source is a tombstone");
    to[from] = into;
    any = true;
  }
  if (!any) return;
  for (const auto& [into, from] : merges) {
    if (into == from) continue;
    routers_[into].min_hop =
        std::min(routers_[into].min_hop, routers_[from].min_hop);
    routers_[from] = GraphRouter{};  // tombstone (addrs empty == merged away)
  }

  // Each column again from its entries with every router replaced by its
  // survivor; adjacency inside a survivor is dropped.
  std::vector<std::uint64_t> keys;
  // BDRMAP_HOT_BEGIN(graph_merge)
  const auto refill = [&](auto& col, bool routers_as_values) {
    keys.clear();
    for (std::uint32_t r = 0; r < n; ++r) {
      const std::uint32_t s = find(r);
      for (const auto& v : col.at(r)) {
        std::uint32_t value = raw(v);
        if (routers_as_values) {
          value = find(value);
          if (value == s) continue;
        }
        keys.push_back(column_key(s, value));
      }
    }
    fill_column(keys, n, col.offsets, col.values);
  };
  refill(addrs_col_, false);
  refill(ttl_col_, false);
  refill(prev_col_, true);
  refill(next_col_, true);
  refill(dest_col_, false);
  refill(terminal_col_, false);
  for (std::uint32_t& r : router_col_) {
    if (r != kNoRouter) r = find(r);
  }
  // BDRMAP_HOT_END(graph_merge)
  for (const auto& [into, from] : merges) {
    BDRMAP_ENSURES(into == from ||
                   (merged_away(from) && !merged_away(find(into))));
  }
}

std::size_t RouterGraph::live_router_count() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < routers_.size(); ++i) n += !merged_away(i);
  return n;
}

}  // namespace bdrmap::core
