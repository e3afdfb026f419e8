#include "core/merge.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <tuple>

#include "netbase/contract.h"

namespace bdrmap::core {

std::optional<std::size_t> MergedMap::router_of(Ipv4Addr addr) const {
  auto it = std::lower_bound(index_addrs_.begin(), index_addrs_.end(), addr);
  if (it == index_addrs_.end() || *it != addr) return std::nullopt;
  return index_routers_[static_cast<std::size_t>(it - index_addrs_.begin())];
}

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

// Union-find over (run, router) pairs keyed by shared addresses.
class Partition {
 public:
  explicit Partition(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

// One occurrence of a per-run link, keyed by the merged link identity:
// (near merged router, far merged router or, for router-less placements,
// the neighbor AS). `seq` is its position in run order, then link order.
struct LinkSeen {
  std::size_t near;
  std::size_t far;
  std::uint32_t as;
  std::uint32_t seq;
  std::uint32_t run;
  std::uint32_t link;  // index into runs[run]->links
};

}  // namespace

MergedMap merge_results(const std::vector<const BdrmapResult*>& runs) {
  for (const BdrmapResult* run : runs) {
    BDRMAP_EXPECTS(run != nullptr, "merge_results takes non-null runs");
  }
  MergedMap merged;

  // Flatten the live per-run routers into one source index space, run by
  // run: every source of run r precedes every source of run r + 1.
  // source_of[flat_base[r] + i] is router i of run r's source, or kNone
  // for a merged-away router.
  struct Source {
    std::uint32_t run;
    std::uint32_t router;  // index into runs[run]->graph.routers()
  };
  std::vector<Source> sources;
  std::vector<std::size_t> flat_base(runs.size());
  std::vector<std::uint32_t> source_of;
  std::size_t key_count = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const RouterGraph& graph = runs[r]->graph;
    flat_base[r] = source_of.size();
    for (std::size_t i = 0; i < graph.routers().size(); ++i) {
      if (graph.merged_away(i)) {
        source_of.push_back(kNone);
        continue;
      }
      source_of.push_back(static_cast<std::uint32_t>(sources.size()));
      sources.push_back(
          {static_cast<std::uint32_t>(r), static_cast<std::uint32_t>(i)});
      key_count += graph.addrs(i).size();
    }
  }
  BDRMAP_EXPECTS(sources.size() < kNone, "too many routers to merge");
  auto router_at = [&](std::size_t s) -> const GraphRouter& {
    return runs[sources[s].run]->graph.routers()[sources[s].router];
  };

  // BDRMAP_HOT_BEGIN(merge)
  // Shared address => same physical router. Sorting (address, source)
  // keys puts every holder of an address next to each other.
  std::vector<std::uint64_t> keys;
  keys.reserve(key_count);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (Ipv4Addr a :
         runs[sources[s].run]->graph.addrs(sources[s].router)) {
      keys.push_back((std::uint64_t{a.value()} << 32) | s);
    }
  }
  std::sort(keys.begin(), keys.end());
  Partition partition(sources.size());
  for (std::size_t k = 1; k < keys.size(); ++k) {
    if ((keys[k] >> 32) == (keys[k - 1] >> 32)) {
      partition.unite(static_cast<std::uint32_t>(keys[k]),
                      static_cast<std::uint32_t>(keys[k - 1]));
    }
  }

  // Merged routers are numbered by their first source.
  std::vector<std::uint32_t> component(sources.size());
  std::vector<std::uint32_t> index_of_root(sources.size(), kNone);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    std::uint32_t& index = index_of_root[partition.find(s)];
    if (index == kNone) {
      index = static_cast<std::uint32_t>(merged.routers.size());
      merged.routers.emplace_back();
    }
    component[s] = index;
  }

  // Sources ascend with runs, so each seen_by list comes out sorted.
  // Owner votes are (router, AS) keys.
  std::vector<std::uint64_t> votes;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    MergedRouter& out = merged.routers[component[s]];
    const GraphRouter& router = router_at(s);
    if (out.seen_by.empty() || out.seen_by.back() != sources[s].run) {
      out.seen_by.push_back(sources[s].run);
    }
    out.vp_side |= router.vp_side;
    if (router.how != Heuristic::kNone) {
      if (out.how == Heuristic::kNone ||
          static_cast<int>(router.how) < static_cast<int>(out.how)) {
        out.how = router.how;
      }
      if (router.owner.valid()) {
        votes.push_back((std::uint64_t{component[s]} << 32) |
                        router.owner.value);
      }
    }
  }

  // The keys ascend by address, so each router's address set comes out
  // sorted and the address index in address order.
  merged.index_addrs_.reserve(keys.size());
  merged.index_routers_.reserve(keys.size());
  for (std::uint64_t key : keys) {
    const Ipv4Addr a(static_cast<std::uint32_t>(key >> 32));
    const std::uint32_t c = component[static_cast<std::uint32_t>(key)];
    std::vector<Ipv4Addr>& addrs = merged.routers[c].addrs;
    if (!addrs.empty() && addrs.back() == a) continue;
    addrs.push_back(a);
    merged.index_addrs_.push_back(a);
    merged.index_routers_.push_back(c);
  }

  // Majority owner: votes sorted by (router, AS); a strictly larger count
  // wins, so ties go to the lowest AS.
  std::sort(votes.begin(), votes.end());
  std::size_t best = 0;
  for (std::size_t v = 0; v < votes.size();) {
    std::size_t end = v;
    while (end < votes.size() && votes[end] == votes[v]) ++end;
    const auto c = static_cast<std::uint32_t>(votes[v] >> 32);
    if (v == 0 || (votes[v - 1] >> 32) != c) best = 0;
    if (end - v > best) {
      merged.routers[c].owner = AsId(static_cast<std::uint32_t>(votes[v]));
      best = end - v;
    }
    v = end;
  }
  for (MergedRouter& out : merged.routers) {
    if (out.vp_side) out.how = Heuristic::kVpNetwork;
  }

  // Links: group the occurrences by identity; a merged link takes the
  // fields of its first occurrence, and links keep first-occurrence order.
  auto merged_of = [&](std::size_t run, std::size_t router) {
    if (router == InferredLink::kNoRouter) return MergedLink::kNoRouter;
    const std::uint32_t s = source_of[flat_base[run] + router];
    if (s == kNone) return MergedLink::kNoRouter;
    return std::size_t{component[s]};
  };
  std::vector<LinkSeen> seen;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const std::vector<InferredLink>& links = runs[r]->links;
    for (std::size_t l = 0; l < links.size(); ++l) {
      const std::size_t far = merged_of(r, links[l].neighbor_router);
      seen.push_back({merged_of(r, links[l].vp_router), far,
                      far == MergedLink::kNoRouter
                          ? links[l].neighbor_as.value
                          : 0u,
                      static_cast<std::uint32_t>(seen.size()),
                      static_cast<std::uint32_t>(r),
                      static_cast<std::uint32_t>(l)});
    }
  }
  auto identity = [](const LinkSeen& x) {
    return std::tie(x.near, x.far, x.as);
  };
  std::sort(seen.begin(), seen.end(),
            [&](const LinkSeen& x, const LinkSeen& y) {
              return std::tie(x.near, x.far, x.as, x.seq) <
                     std::tie(y.near, y.far, y.as, y.seq);
            });
  // Each group's [begin, end) in `seen`, in first-occurrence order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> groups;
  for (std::size_t g = 0; g < seen.size();) {
    std::size_t end = g + 1;
    while (end < seen.size() && identity(seen[end]) == identity(seen[g])) {
      ++end;
    }
    groups.emplace_back(static_cast<std::uint32_t>(g),
                        static_cast<std::uint32_t>(end));
    g = end;
  }
  std::sort(groups.begin(), groups.end(), [&](const auto& x, const auto& y) {
    return seen[x.first].seq < seen[y.first].seq;
  });
  merged.links.reserve(groups.size());
  merged.cumulative_links.assign(runs.size(), 0);
  for (const auto& [begin, end] : groups) {
    const LinkSeen& first = seen[begin];
    const InferredLink& link = runs[first.run]->links[first.link];
    MergedLink out;
    out.near_router = first.near;
    out.far_router = first.far;
    out.neighbor_as = link.neighbor_as;
    out.how = link.how;
    out.first_seen_by = first.run;
    for (std::uint32_t k = begin; k < end; ++k) {
      if (out.seen_by.empty() || out.seen_by.back() != seen[k].run) {
        out.seen_by.push_back(seen[k].run);
      }
    }
    ++merged.cumulative_links[first.run];
    merged.links.push_back(std::move(out));
  }
  std::partial_sum(merged.cumulative_links.begin(),
                   merged.cumulative_links.end(),
                   merged.cumulative_links.begin());

  // The per-AS index: (AS, link) pairs in AS order, then link order.
  std::vector<std::pair<AsId, std::size_t>> by_as;
  by_as.reserve(merged.links.size());
  for (std::size_t i = 0; i < merged.links.size(); ++i) {
    by_as.emplace_back(merged.links[i].neighbor_as, i);
  }
  std::sort(by_as.begin(), by_as.end());
  // BDRMAP_HOT_END(merge)
  for (std::size_t i = 0; i < by_as.size();) {
    std::vector<std::size_t> indices;
    std::size_t j = i;
    for (; j < by_as.size() && by_as[j].first == by_as[i].first; ++j) {
      indices.push_back(by_as[j].second);
    }
    merged.links_by_as.emplace_hint(merged.links_by_as.end(), by_as[i].first,
                                    std::move(indices));
    i = j;
  }
  // The cumulative curve is monotone and ends at the final link count —
  // Fig. 14's convergence plot is read straight off this vector.
  BDRMAP_ENSURES(runs.empty() ||
                     merged.cumulative_links.back() == merged.links.size(),
                 "cumulative link curve must end at the merged total");
  return merged;
}

}  // namespace bdrmap::core
