// Multi-VP aggregation: one network-wide border map from per-VP runs.
//
// The §6 deployment runs bdrmap from 19 VPs inside one access network; the
// union of their inferences is the network's border map (and the marginal
// utility of each VP — Figure 15 — falls out of the merge order). Router
// identity across VPs comes from shared interface addresses: two per-VP
// routers observed with a common address are the same physical router, so
// alias sets union transitively. Ownership conflicts resolve by majority
// across VPs (ties to the lowest AS), with VP-side status taking priority.
//
// The merge is built from sorts over flat vectors (DESIGN.md §14): one sort
// of (address, router) keys joins routers and yields every merged router's
// sorted address set, one sort of (component, AS) votes picks the owners,
// one sort of link identities groups the links. No map or set node is
// allocated per address, router or link; only links_by_as, one entry per
// neighbor AS, is a map.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/bdrmap.h"

namespace bdrmap::core {

struct MergedRouter {
  std::vector<Ipv4Addr> addrs;  // union of per-VP alias sets
  AsId owner;                   // majority owner across observing VPs
  Heuristic how = Heuristic::kNone;  // earliest-stage heuristic observed
  bool vp_side = false;
  // Indices into the merged run list: ascending, no duplicates.
  std::vector<std::size_t> seen_by;
};

struct MergedLink {
  static constexpr std::size_t kNoRouter = static_cast<std::size_t>(-1);
  std::size_t near_router = kNoRouter;  // merged router indices
  std::size_t far_router = kNoRouter;
  AsId neighbor_as;
  Heuristic how = Heuristic::kNone;
  std::size_t first_seen_by = 0;  // VP index that first revealed the link
  std::vector<std::size_t> seen_by;  // ascending, no duplicates
};

struct MergedMap {
  std::vector<MergedRouter> routers;
  std::vector<MergedLink> links;
  std::map<AsId, std::vector<std::size_t>> links_by_as;
  // links[k] counts distinct links known after merging runs 0..k —
  // the Figure 15 marginal-utility curve without ground truth.
  std::vector<std::size_t> cumulative_links;

  std::optional<std::size_t> router_of(Ipv4Addr addr) const;

 private:
  friend MergedMap merge_results(const std::vector<const BdrmapResult*>&);
  // Every address of a merged router, ascending, and the router holding
  // it (parallel to index_addrs_).
  std::vector<Ipv4Addr> index_addrs_;
  std::vector<std::size_t> index_routers_;
};

// Merges per-VP results in order (the order defines the marginal-utility
// curve). Runs may come from different VPs of the same hosting network.
MergedMap merge_results(const std::vector<const BdrmapResult*>& runs);

}  // namespace bdrmap::core
