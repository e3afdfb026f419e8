// AS-level BGP route computation over the ground-truth relationship graph.
//
// Implements the standard Gao-Rexford model: an AS prefers routes learned
// from customers over peers over providers (economics), uses path length
// within a preference class, and exports customer-learned routes to
// everyone but peer/provider-learned routes only to customers (valley-free
// export). The router-level FIB (fib.h) consumes the per-destination
// candidate tiers to make hot-potato egress choices, and the collector view
// (collectors.h) extracts the deterministic best AS paths a route collector
// would record.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netbase/ids.h"
#include "netbase/sync.h"
#include "obs/metrics.h"
#include "topo/internet.h"

namespace bdrmap::route {

using net::AsId;

// Export-policy overrides for adversarial scenarios. The relationship graph
// stays Gao-Rexford-consistent; a policy only changes what an AS *exports*.
struct BgpPolicy {
  // ASes committing a classic type-1 route leak: each re-exports its best
  // route of ANY class to all of its providers and peers, which accept it
  // as a customer-/peer-learned route respectively. A neighbor whose own
  // best route is already at least as short rejects the leak (AS-path loop
  // detection: the circular announcement carries the neighbor's own ASN),
  // which keeps the leaked forwarding plane loop-free.
  std::vector<AsId> leakers;

  bool has_leaks() const { return !leakers.empty(); }
};

enum class RouteClass : std::uint8_t {
  kNone,      // unreachable
  kSelf,      // destination is the AS itself
  kCustomer,  // learned from a customer (most preferred)
  kPeer,      // learned from a settlement-free peer
  kProvider,  // learned from a provider (least preferred)
};

struct RouteInfo {
  RouteClass cls = RouteClass::kNone;
  std::uint16_t dist = 0;  // AS hops to the destination
};

class BgpSimulator {
 public:
  // `metrics` (optional) receives the route.bgp.* cache counters; nullptr
  // keeps every instrument a no-op.
  explicit BgpSimulator(const topo::Internet& net,
                        obs::MetricsRegistry* metrics = nullptr);

  // Same, with an adversarial export policy (route leaks). The default
  // policy is empty, making this constructor equivalent to the one above.
  BgpSimulator(const topo::Internet& net, BgpPolicy policy,
               obs::MetricsRegistry* metrics = nullptr);

  // Best route class/length from `src` toward `dst` (an AS). Every AS
  // advertises its shortest valley-free route to its customers, so a
  // provider route's length can be shorter than as_path(), which follows
  // each provider's own preferred route.
  RouteInfo route(AsId src, AsId dst) const;

  // Next-hop AS candidates grouped into preference tiers: tier 0 is the
  // most preferred non-empty class (all neighbors tied at the best path
  // length within that class), followed by the remaining classes in
  // preference order. Routers fall back to a later tier only when
  // per-prefix announcement filtering empties an earlier one.
  //
  // Computes fresh on every call: the reference the tests check the FIB's
  // cached egress decisions against. The FIB itself uses tiers() below.
  std::vector<std::vector<AsId>> candidate_tiers(AsId src, AsId dst) const;

  // Memoized candidate tiers for one (src, dst) AS pair, for the FIB's
  // egress fills (route::Fib). Each tier is sorted ascending (membership
  // checks can binary-search). The returned reference stays valid for the
  // simulator's lifetime (set_relationship rewrites the set in place);
  // fills are pure functions of the relationship graph,
  // so first-writer-wins insertion under tiers_mu_ is value-deterministic at
  // any thread count. One pair's tiers feed the fills of every router of
  // `src`, which is why this stays memoized (DESIGN.md §9 has the timing).
  struct TierSet {
    std::vector<std::vector<AsId>> tiers;
  };
  const TierSet& tiers(AsId src, AsId dst) const BDRMAP_EXCLUDES(tiers_mu_);

  // The key the tier memo files one (src, dst) pair under: the packed dense
  // indices. A routing footprint (DESIGN.md §13) is a set of these keys.
  static std::uint64_t tier_key(std::uint32_t src_dense,
                                std::uint32_t dst_dense) {
    return (std::uint64_t{src_dense} << 32) | dst_dense;
  }

  // The deterministic best AS path from `src` to `dst` using lowest-AS
  // tie-breaking — what a route collector peering with `src` records.
  // Empty when unreachable; otherwise starts with `src`, ends with `dst`.
  // Reads the destination's table directly and never touches the tier
  // cache.
  std::vector<AsId> as_path(AsId src, AsId dst) const;

  bool reachable(AsId src, AsId dst) const {
    return route(src, dst).cls != RouteClass::kNone;
  }

  // Dense index of `as`: its position in the topology's AS list as of
  // construction, kNoIndex when it is not there. route::Fib keys its
  // per-AS tables by the same index.
  static constexpr std::uint32_t kNoIndex = 0xffffffff;
  std::uint32_t dense_index(AsId as) const {
    return as.value < index_of_.size() ? index_of_[as.value] : kNoIndex;
  }

  // -- Churn hooks (serve::ServeEngine) -------------------------------------
  //
  // A long-lived daemon replays relationship churn into the simulator
  // without rebuilding the topology. The first override copies the truth
  // graph into a private store (copy-on-write), and every override rebuilds
  // the dense adjacency that later fills read. Overrides REQUIRE external
  // quiescence: no concurrent route()/tiers()/as_path() callers (the serve
  // engine applies churn strictly between inference epochs, and the thread
  // pool's task hand-off provides the happens-before edge).

  // Rewrites the relationship between `a` and `b` in both directions
  // (kNone removes the edge), rebuilds the dense adjacency, drops the
  // per-destination tables and re-derives every memoized tier set in place
  // under the new graph. Returns the sorted tier_key()s whose sets changed.
  // The memo is never cleared, so it holds every pair a Fib egress fill
  // ever read: a forwarding decision whose key is not returned is the same
  // as before the flip. References returned by tiers() stay valid.
  std::vector<std::uint64_t> set_relationship(
      AsId a, AsId b, asdata::Relationship rel_of_b_from_a)
      BDRMAP_EXCLUDES(cache_mu_, tiers_mu_);

  // The sorted memoized tier keys (src, dst) whose set lists `far`, for any
  // (src dense index, far) in `sessions` (route::Fib::set_link_state).
  std::vector<std::uint64_t> keys_listing(
      std::span<const std::pair<std::uint32_t, AsId>> sessions) const
      BDRMAP_EXCLUDES(tiers_mu_);

  // The relationship graph routes are currently computed over: the truth
  // graph until the first set_relationship, the private overlay after.
  const asdata::RelationshipStore& relationships() const { return rels(); }

 private:
  static constexpr std::uint16_t kInf = 0xffff;

  // The relationship graph over dense AS indices in compressed-sparse-row
  // form: node i's providers, customers and peers are consecutive runs of
  // `adj`, each in the order the relationship store lists them. Built from
  // rels() at construction and by set_relationship; every fill reads only
  // this and the PerDst arrays.
  struct Graph {
    std::vector<std::uint32_t> offsets;  // 3 * n + 1 run boundaries
    std::vector<std::uint32_t> adj;
    std::span<const std::uint32_t> providers(std::uint32_t i) const {
      return run(3 * i);
    }
    std::span<const std::uint32_t> customers(std::uint32_t i) const {
      return run(3 * i + 1);
    }
    std::span<const std::uint32_t> peers(std::uint32_t i) const {
      return run(3 * i + 2);
    }
    std::span<const std::uint32_t> run(std::size_t r) const {
      return {adj.data() + offsets[r], adj.data() + offsets[r + 1]};
    }
  };

  struct PerDst {
    // All indexed by dense AS index. cust[x]: length of the shortest
    // customer-chain from x down to dst (x's customer cone contains dst);
    // peer[x]: via one peer edge then a customer chain; prov[x]: via one or
    // more provider edges first (valley-free "up then down").
    std::vector<std::uint16_t> cust, peer, prov;
    std::uint16_t best(std::uint32_t i) const {
      return std::min({cust[i], peer[i], prov[i]});
    }
  };

  void build_graph();
  const PerDst& table(std::uint32_t dst) const BDRMAP_EXCLUDES(cache_mu_);
  TierSet compute_tiers(std::uint32_t src, std::uint32_t dst) const;

  // The tier rule, written once for compute_tiers and as_path: calls
  // emit(j) for every neighbor j of `i` in the `cls` tier toward the
  // destination of `t` (cls is kCustomer, kPeer or kProvider).
  template <typename Emit>
  void for_each_in_tier(const PerDst& t, std::uint32_t i, RouteClass cls,
                        Emit&& emit) const;

  // Relax-only derivations shared by the base fill and the leak overlay:
  // peer[] from cust[] across peer edges, prov[] by a unit-weight bucket
  // queue down p2c edges. Both only ever lower values, so re-running after
  // a leak relaxation is safe.
  void derive_peer(PerDst& t) const;
  void derive_prov(PerDst& t) const;
  // Applies the BgpPolicy route leaks to a freshly computed table, iterated
  // to a fixed point (all relaxations strictly decrease bounded values).
  void apply_leaks(PerDst& t) const;

  // Effective relationship graph: the overlay if churn installed one, the
  // topology's truth graph otherwise. Fills read graph_, built from it.
  const asdata::RelationshipStore& rels() const {
    return rels_override_ ? *rels_override_ : net_.truth_relationships();
  }

  const topo::Internet& net_;
  BgpPolicy policy_;
  std::unique_ptr<asdata::RelationshipStore> rels_override_;
  std::vector<AsId> as_ids_;             // dense index -> AS
  std::vector<std::uint32_t> index_of_;  // AS number -> dense index
  std::vector<std::uint8_t> leaker_;     // dense index -> BgpPolicy leaker
  // Written only under the quiescence contract of set_relationship.
  Graph graph_;
  // No-op handles unless a registry was supplied at construction.
  obs::Counter table_fills_;
  obs::Counter tier_hits_;
  obs::Counter tier_fills_;
  // Lazily computed per-destination tables keyed by dense index, kept until
  // the next set_relationship. Guarded by cache_mu_: concurrent multi-VP runs
  // share one simulator, and the fill is value-deterministic (a pure
  // function of the graph), so first-writer-wins insertion keeps results
  // independent of thread interleaving.
  mutable net::SharedMutex cache_mu_;
  mutable std::unordered_map<std::uint32_t, std::unique_ptr<PerDst>> cache_
      BDRMAP_GUARDED_BY(cache_mu_);
  // Candidate-tier cache keyed by tier_key(src, dst). Same locking and
  // purity discipline as cache_ above; referenced entries live behind
  // unique_ptr so they survive rehashes. Never cleared: set_relationship
  // diffs every entry against the new graph.
  mutable net::SharedMutex tiers_mu_;
  mutable std::unordered_map<std::uint64_t, std::unique_ptr<TierSet>> tiers_
      BDRMAP_GUARDED_BY(tiers_mu_);
  static const TierSet kNoTiers;
};

}  // namespace bdrmap::route
