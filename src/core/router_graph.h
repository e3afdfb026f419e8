// Inferred router-level graph: alias groups + traceroute adjacency.
//
// Nodes are inferred routers (alias sets from core::AliasResolver, plus
// singletons for unresolved addresses). Edges follow consecutive responsive
// hops in traces. Per the paper, ownership heuristics only trust interfaces
// observed in ICMP time-exceeded messages — echo replies carry the probed
// address and say nothing about which router holds it (§5.3) — so the graph
// tracks which observations came from time-exceeded replies.
//
// Every address that replied in some trace (or is listed in an alias group)
// is interned once into a dense id (DESIGN.md §14): per-hop scans over the
// traces read the hop-id arrays and the id -> router column instead of
// hashing addresses.
//
// Each per-router set (alias set, time-exceeded address ids, prev, next,
// destination ASes, terminal ASes) is one flat column in CSR form: an
// offsets array over the routers plus one values array, each router's run
// ascending and distinct. The constructor fills every column from one
// radix sort of (router, value) keys gathered in the trace walk, so a
// graph costs a fixed number of allocations whatever its router count.
// merge() applies §5.4.7 merges through a union-find whose survivor is
// the merge target and refills the columns once per call; a batch of
// merges is one refill.
//
// The graph references the traces it was built from (core::SharedTraces)
// instead of owning a stitched copy: on the serving path they are the
// slices runtime::SliceStore keeps, so building a VP's graph copies no
// kept trace and dropping the graph frees only traces no store or other
// result still holds.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/alias_groups.h"
#include "core/observations.h"
#include "netbase/ids.h"

namespace bdrmap::core {

// Which heuristic produced an ownership inference; names follow the rows of
// Table 1 in the paper.
enum class Heuristic : std::uint8_t {
  kNone,
  kVpNetwork,    // §5.4.1 near side (steps 1.2 / RIR extension)
  kMultihomed,   // §5.4.1 step 1.1 exception ("1. Multihomed to VP")
  kFirewall,     // §5.4.2 ("2. Firewall")
  kUnrouted,     // §5.4.3 ("3. Unrouted interface")
  kOnenet,       // §5.4.4 ("4. IP-AS (onenet)")
  kThirdParty,   // §5.4.5 steps 5.1/5.2 ("5. Third party")
  kRelationship, // §5.4.5 step 5.3 ("5. AS relationship")
  kMissingCust,  // §5.4.5 step 5.4 ("5. Missing customer")
  kHiddenPeer,   // §5.4.5 step 5.5 ("5. Hidden peer")
  kCount,        // §5.4.6 step 6.1 ("6. Count")
  kIpAs,         // §5.4.6 step 6.2 ("6. IP-AS")
  kSilent,       // §5.4.8 step 8.1 ("8. Silent neighbor")
  kOtherIcmp,    // §5.4.8 step 8.2 ("8. Other ICMP")
};

// The paper's Table 1 row name ("2. Firewall").
const char* heuristic_name(Heuristic h);
// The metric tag of a placement ("firewall", "third_party"): the <tag> of
// core.confidence.<tag>.
const char* heuristic_tag(Heuristic h);

// The per-router scalars; the per-router sets live in RouterGraph's
// columns.
struct GraphRouter {
  int min_hop = std::numeric_limits<int>::max();  // observed hop distance

  // Ownership inference (filled by core::Heuristics).
  AsId owner;
  Heuristic how = Heuristic::kNone;
  bool vp_side = false;  // operated by the network hosting the VP
  // Inference strength in [0,1] (DESIGN.md §15). Annotation only — never
  // feeds placement decisions and excluded from eval::same_border_map.
  double confidence = 0.0;
};

class RouterGraph {
 public:
  // hop_ids() entry of a hop that did not reply.
  static constexpr std::uint32_t kNoId =
      std::numeric_limits<std::uint32_t>::max();
  // router_of_id() of an address no router carries (seen only in echo or
  // unreachable replies).
  static constexpr std::uint32_t kNoRouter =
      std::numeric_limits<std::uint32_t>::max();

  // An empty graph: no traces, no routers.
  RouterGraph() = default;
  // Builds the graph from traces and alias groups, sharing the traces (a
  // std::vector<ObservedTrace> converts, moved in as one part). Router i
  // is the i-th non-empty group; addresses no group covers become
  // singleton routers numbered in first-seen trace order. An address
  // listed in two groups is carried by its first.
  RouterGraph(SharedTraces traces, const AliasGroups& alias_groups);

  // Per-router scalars, indexed by router (tombstones included).
  std::vector<GraphRouter>& routers() { return routers_; }
  const std::vector<GraphRouter>& routers() const { return routers_; }

  // The per-router sets, each ascending and duplicate-free (link emission
  // relies on the ascending order). A merged-away router's are empty.
  // Full alias set.
  std::span<const Ipv4Addr> addrs(std::size_t r) const {
    return addrs_col_.at(r);
  }
  // Ids of the alias-set addresses seen in time-exceeded replies.
  std::span<const std::uint32_t> ttl_ids(std::size_t r) const {
    return ttl_col_.at(r);
  }
  // Routers observed immediately before / after this one.
  std::span<const std::uint32_t> prev(std::size_t r) const {
    return prev_col_.at(r);
  }
  std::span<const std::uint32_t> next(std::size_t r) const {
    return next_col_.at(r);
  }
  // Target ASes probed through this router.
  std::span<const AsId> dest_ases(std::size_t r) const {
    return dest_col_.at(r);
  }
  // Target ASes for which this router was the last responsive hop.
  std::span<const AsId> terminal_for(std::size_t r) const {
    return terminal_col_.at(r);
  }

  // Router index carrying `addr`, if observed.
  std::optional<std::size_t> router_of(Ipv4Addr addr) const;

  // The address table: every address that replied in some trace or is
  // listed in an alias group, ascending; an address's index is its id.
  std::size_t address_count() const { return addrs_.size(); }
  Ipv4Addr address(std::uint32_t id) const { return addrs_[id]; }
  // Id of `addr`, if it is in the table (a binary search).
  std::optional<std::uint32_t> id_of(Ipv4Addr addr) const;
  // Ids of trace `t`'s hops, parallel to traces()[t].hops; kNoId where
  // the hop did not reply.
  std::span<const std::uint32_t> hop_ids(std::size_t t) const {
    return {hop_ids_.data() + hop_begin_[t], hop_begin_[t + 1] - hop_begin_[t]};
  }
  // Router carrying address `id` (kept current by merge()), or kNoRouter.
  std::uint32_t router_of_id(std::uint32_t id) const { return router_col_[id]; }

  // Live routers sorted by observed hop distance (nearest first), ties by
  // index: a counting sort on min_hop.
  std::vector<std::size_t> by_hop_distance() const;

  // Merges router `from` into router `into` (the §5.4.7 analytic alias
  // collapse). Adjacency, addresses and annotations are unioned; `from`
  // becomes a tombstone.
  void merge(std::size_t into, std::size_t from);
  // Applies (into, from) merges in order, with one column refill for the
  // batch: the same graph as merging them one at a time.
  using Merge = std::pair<std::uint32_t, std::uint32_t>;
  void merge(std::span<const Merge> merges);

  const SharedTraces& traces() const { return traces_; }

  std::size_t live_router_count() const;
  bool merged_away(std::size_t i) const { return addrs(i).empty(); }

 private:
  friend struct RouterGraphTestPeer;  // corrupts columns in invariant tests

  // One per-router set: router r's values are
  // values[offsets[r] .. offsets[r + 1]).
  template <typename T>
  struct Column {
    std::vector<std::uint32_t> offsets;
    std::vector<T> values;
    std::span<const T> at(std::size_t r) const {
      return {values.data() + offsets[r], offsets[r + 1] - offsets[r]};
    }
  };

  std::vector<GraphRouter> routers_;
  SharedTraces traces_;
  std::vector<Ipv4Addr> addrs_;            // id -> address, ascending
  std::vector<std::uint32_t> router_col_;  // id -> router, or kNoRouter
  std::vector<std::uint32_t> hop_ids_;     // every hop of every trace
  std::vector<std::size_t> hop_begin_;     // trace t's hops start here
  Column<Ipv4Addr> addrs_col_;
  Column<std::uint32_t> ttl_col_;
  Column<std::uint32_t> prev_col_;
  Column<std::uint32_t> next_col_;
  Column<AsId> dest_col_;
  Column<AsId> terminal_col_;
};

}  // namespace bdrmap::core
