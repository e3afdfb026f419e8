// Router-level forwarding over the synthetic Internet.
//
// Combines AS-level BGP decisions (bgp_sim.h) with intra-AS shortest-path
// routing and hot-potato egress selection: when several border sessions can
// carry traffic toward a destination, each router exits via the session
// closest to it in IGP distance (Teixeira et al.'s hot-potato routing [42]),
// which is what makes the Figures 14-16 phenomena appear — VPs in different
// PoPs of the access network leave via different border routers.
//
// Per-prefix selective announcement (AnnouncedPrefix::only_via_links) is
// honored at sessions adjacent to the origin AS, modelling the Akamai-style
// policy of announcing certain prefixes only at specific interconnects.
//
// Fast path (DESIGN.md §9): next_hop is the system's inner loop — every
// hop of every simulated probe goes through it. Three mechanisms keep it
// cheap while staying bit-identical to the naive per-hop recomputation:
//  * RouteQuery — the destination is resolved (interface lookup, announced
//    prefix match, delivery target) once per trace, not once per hop;
//  * memoized decision caches — per-AS IGP tables and per-router flat
//    egress rows (one column per destination AS, then one per selectively
//    announced prefix), filled lazily with first-writer-wins discipline
//    (fills are pure functions of the immutable topology, so results are
//    independent of thread interleaving — the MultiVpExecutor contract)
//    and published as pointers: a hit is one acquire load, never a lock.
//    The per-(src, dst) candidate tiers (bgp_sim.h) keep double-checked
//    locking, since only egress fills read them;
//  * dense indexing — routers and ASes are addressed by flat arrays
//    (ASes by BgpSimulator::dense_index) instead of hash probes.
// tests/route_fastpath_test.cc checks every hop against a reference
// per-hop tier scan built from the public calls below.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "netbase/ids.h"
#include "netbase/sync.h"
#include "obs/metrics.h"
#include "route/bgp_sim.h"
#include "topo/internet.h"

namespace bdrmap::route {

using net::AsId;
using net::IfaceId;
using net::Ipv4Addr;
using net::RouterId;
using topo::LinkId;

// One usable interdomain attachment: a direction over an interdomain or
// IXP link from `near` (in near_as) to `far` (in far_as).
struct Session {
  LinkId link;
  RouterId near_router;
  RouterId far_router;
  IfaceId near_iface;
  IfaceId far_iface;
  AsId near_as;
  AsId far_as;
  bool via_ixp = false;
};

struct FibOptions {
  // When set, the FIB reports cache behaviour (route.fib.* counters and
  // the egress tie-width histogram) to this registry. nullptr (default)
  // leaves every handle a no-op.
  obs::MetricsRegistry* metrics = nullptr;
};

class Fib {
 public:
  explicit Fib(const topo::Internet& net, const BgpSimulator& bgp,
               FibOptions options = {});

  struct Hop {
    RouterId router;  // the next router the packet arrives at
    IfaceId ingress;  // the interface it arrives on
    IfaceId egress;   // the interface the current router transmits from
    LinkId link;
    bool crossed_interdomain = false;
  };

  // A destination resolved once per trace. Obtain one from query() and
  // pass it to the per-hop calls below.
  class RouteQuery {
   public:
    RouteQuery() = default;
    Ipv4Addr dst() const { return dst_; }

   private:
    friend class Fib;
    struct Resolved {
      bool ok = false;
      bool is_iface_addr = false;  // dst is some router's interface address
      AsId dst_as;                 // AS-level routing target
      RouterId target;             // delivery router inside dst_as
      RouterId final_router;       // router that ultimately owns the address
      LinkId cross_link;           // link to cross from target to final_router
      IfaceId cross_egress;        // target's interface on cross_link
      const topo::AnnouncedPrefix* ap = nullptr;
      const std::vector<LinkId>* pinned = nullptr;
      // Egress-row column of this destination: the pinned prefix's own
      // column, else dst_as's dense index; kNoIndex when dst_as is outside
      // the construction snapshot, which has no route.
      std::uint32_t column = BgpSimulator::kNoIndex;
      std::optional<std::uint64_t> key;  // Fib::query_key
    };
    Ipv4Addr dst_;
    Resolved res_;
  };

  // Resolves `dst` once for reuse across a trace.
  RouteQuery query(Ipv4Addr dst) const;

  // Where the packet at router `r` goes next on its way to `q`'s
  // destination. nullopt means: either `r` is the delivery point (use
  // `delivered_at` to distinguish) or there is no route. Equal-cost
  // internal paths (ECMP) are chosen by a hash of the destination, so
  // every probe toward one destination follows one path.
  std::optional<Hop> next_hop(RouterId r, const RouteQuery& q) const;

  // True iff a packet for `q`'s destination terminates at router `r`: the
  // destination is one of r's interface addresses, or r hosts the
  // announced prefix covering it.
  bool delivered_at(RouterId r, const RouteQuery& q) const;

  // True iff the query's destination is one of r's own interface addresses
  // (the firewall-exemption test the tracer and congestion model repeat).
  bool addr_owned_by(RouterId r, const RouteQuery& q) const;

  // The interface router `r` would transmit a packet to `q`'s destination
  // from (drives the kEgressToSrc / kVirtualRouter reply-address policies).
  std::optional<IfaceId> egress_iface(RouterId r, const RouteQuery& q) const;

  // The BgpSimulator::tier_key of router `r`'s egress decision toward the
  // query's destination: (r's AS, the destination's routing AS). Every
  // interdomain choice next_hop makes at `r` for `q` reads exactly that
  // tier set, so a relationship flip that does not report this key leaves
  // the hop unchanged. Probes record these keys as their routing footprint
  // (probe::TracerouteEngine::record_footprint).
  std::uint64_t tier_key(RouterId r, const RouteQuery& q) const {
    return BgpSimulator::tier_key(router_as_dense_[r.value],
                                  bgp_.dense_index(q.res_.dst_as));
  }

  // The routing key space (DESIGN.md §13) holds three kinds of keys. Tier
  // keys pack dense AS indices (< 2^30), so their top two bits are clear;
  // prefix keys set them to 0b10 and link keys to 0b11.
  static std::uint64_t prefix_key(const net::Prefix& p) {
    return (std::uint64_t{2} << 62) |
           (std::uint64_t{p.network().value()} << 6) | p.length();
  }
  static std::uint64_t link_key(LinkId l) {
    return (std::uint64_t{3} << 62) | l.value;
  }

  // What resolving the query read besides tier sets: the prefix_key of its
  // longest announced match, withdrawn or not (there is no less-specific
  // fallback), or the link_key of the link a far-side point-to-point
  // address is delivered across; nullopt when it read neither.
  std::optional<std::uint64_t> query_key(const RouteQuery& q) const {
    return q.res_.key;
  }

  // IGP distance between two routers of the same AS (infinity if
  // disconnected or in different ASes).
  double igp_distance(RouterId a, RouterId b) const;

  // All sessions whose near side is in `as`.
  const std::vector<Session>& sessions_of(AsId as) const;

  // -- Churn overlays (serve::ServeEngine) ----------------------------------
  //
  // Data-plane churn applied on top of the immutable topology: interdomain
  // links can be marked down (their sessions drop out of egress selection
  // and cross-link delivery) and announced prefixes can be withdrawn
  // (resolve() reports no route). The overlay is one flat byte per link
  // and one per announced prefix, read without a lock. Mutators REQUIRE
  // external quiescence — no concurrent forwarding calls — which the serve
  // engine guarantees by applying churn strictly between inference epochs;
  // concurrent readers of an unchanging overlay are then safe. Each
  // mutator returns the sorted keys it moved: a forwarding decision or
  // resolution that read none of them is the same as before.

  // Marks an interdomain link down (up=false) or restores it. Reports its
  // link_key and, for every session over it (each IXP LAN member pair),
  // the memoized tier keys (near AS, dst) whose set lists the far AS, and
  // drops the egress decisions under those (invalidate_egress).
  std::vector<std::uint64_t> set_link_state(LinkId link, bool up)
      BDRMAP_EXCLUDES(egress_mu_);

  // Withdraws (or re-announces) every announced prefix equal to `p`.
  // Reports prefix_key(p); no egress decision reads the withdrawn set.
  std::vector<std::uint64_t> set_prefix_withdrawn(const net::Prefix& p,
                                                  bool withdrawn);

  // Drops only the memoized egress decisions whose tier_key(router, query)
  // is in `changed` (sorted ascending; keys of other kinds are ignored):
  // on the routers of each key's source AS, the AS column of its
  // destination and every pinned column routed toward that AS. Every
  // other decision stands, since it reads no tier set in `changed`.
  // Dropped entries stay allocated until they outnumber the live ones;
  // then the memo is cleared wholesale, so memory stays bounded over any
  // number of churn events.
  void invalidate_egress(std::span<const std::uint64_t> changed)
      BDRMAP_EXCLUDES(egress_mu_);

  // The prefixes currently withdrawn, announced or not, sorted ascending.
  std::vector<net::Prefix> withdrawn_prefixes() const { return withdrawn_; }

  bool link_is_down(LinkId link) const;

 private:
  struct AsRouting {
    std::vector<RouterId> routers;  // of this AS (== AsInfo::routers)
    // dist[i*n + j], next_iface[i*n + j]: first-hop interface from router i
    // on its shortest path to router j. alt_iface holds a second
    // equal-cost first hop where one exists (ECMP), invalid otherwise.
    // Local indices come from the Fib-wide router_local_ table.
    std::vector<double> dist;
    std::vector<IfaceId> next_iface;
    std::vector<IfaceId> alt_iface;
  };

  // Egress decision memo: the sessions of the first satisfiable preference
  // tier tied at minimal IGP distance from the router, in session order.
  // The per-destination flow rank (a pure hash) picks among them, so the
  // destination address itself need not be part of the key.
  struct EgressEntry {
    std::vector<const Session*> tied;
  };

  static constexpr std::uint32_t kNoIndex = BgpSimulator::kNoIndex;

  // Router ownership as of Fib construction. The dense tables snapshot the
  // topology when the Fib is built; reading ownership from the same
  // snapshot keeps every forwarding decision internally consistent even if
  // ground truth is mutated afterwards (the invariant checker's corruption
  // tests do exactly that — the FIB then consistently disagrees with the
  // mutated truth instead of crashing halfway between two views).
  AsId owner_of(RouterId r) const;
  RouteQuery::Resolved resolve(Ipv4Addr dst) const;
  // The published IGP tables of an AS: one acquire load; a miss fills.
  const AsRouting& routing_for(std::uint32_t as_dense) const
      BDRMAP_EXCLUDES(routing_mu_);
  const AsRouting& routing_fill(std::uint32_t as_dense) const
      BDRMAP_EXCLUDES(routing_mu_);
  // The shared fill: first satisfiable tier, sessions tied at minimal IGP
  // distance from r, in session order. Pure function of the immutable
  // topology (+ a quiescent churn overlay), so racing fills are identical.
  EgressEntry compute_egress_entry(RouterId r, AsId dst_as,
                                   const std::vector<LinkId>* pinned) const;
  // Flat-row lookup of the resolved destination's column: two
  // acquire-loads on the hot walk, no lock, no hashing; a miss fills.
  const EgressEntry* egress_entry(RouterId r,
                                  const RouteQuery::Resolved& res) const
      BDRMAP_EXCLUDES(egress_mu_);
  const EgressEntry* egress_fill(RouterId r,
                                 const RouteQuery::Resolved& res) const
      BDRMAP_EXCLUDES(egress_mu_);
  std::optional<Hop> internal_step(RouterId r, RouterId target,
                                   Ipv4Addr dst) const;

  const topo::Internet& net_;
  const BgpSimulator& bgp_;

  // No-op handles unless FibOptions::metrics was set.
  obs::Counter egress_hits_;
  obs::Counter egress_misses_;
  obs::Counter routing_fills_;
  obs::Histogram egress_tied_;

  // Dense layouts, built once at construction: router id to its owner's
  // dense AS index (BgpSimulator::dense_index), router id to its position
  // in the owner's router list. The IGP hot path does array loads only.
  std::vector<std::uint32_t> router_as_dense_;
  std::vector<std::uint32_t> router_local_;

  std::vector<std::vector<Session>> sessions_;  // by dense AS index
  // Per-AS sessions grouped by far AS: turns the O(sessions × tier)
  // membership scan in the egress fill into direct lookups.
  std::vector<std::unordered_map<AsId, std::vector<std::uint32_t>>>
      sessions_by_far_;

  // Lazily computed per-AS IGP tables: one Fib is shared by every
  // concurrent VP run, and the Dijkstra fill is a pure function of the
  // immutable topology, so first-writer-wins insertion is value-
  // deterministic regardless of thread interleaving. A fill publishes its
  // fully built tables with a release store into the AS's slot; readers
  // take one acquire load and no lock. routing_mu_ serializes the fills.
  mutable net::Mutex routing_mu_;
  mutable std::vector<std::atomic<const AsRouting*>> routing_;
  mutable std::vector<std::unique_ptr<AsRouting>> routing_storage_
      BDRMAP_GUARDED_BY(routing_mu_);

  // Egress-row column of each selectively announced prefix, by index into
  // Internet::announced (kNoIndex for prefixes announced everywhere): the
  // pinned columns follow the AS columns, so a row is row_width_ wide.
  std::vector<std::uint32_t> pinned_column_;
  std::uint32_t row_width_ = 0;
  // Destination AS (dense) of each pinned column, in column order: pinned
  // column as_count + j routes toward pinned_dst_[j].
  std::vector<std::uint32_t> pinned_dst_;

  // Egress decision memo, same purity discipline as routing_: per-router
  // arrays of published entry pointers, one column per destination AS and
  // one per pinned prefix. Rows are allocated lazily (only routers that
  // actually make interdomain decisions pay), published with release
  // stores and read with acquire loads; entries live in a deque so
  // published pointers stay stable. egress_mu_ serializes the fills.
  mutable net::Mutex egress_mu_;
  mutable std::vector<std::atomic<std::atomic<const EgressEntry*>*>>
      egress_rows_;
  mutable std::vector<std::unique_ptr<std::atomic<const EgressEntry*>[]>>
      egress_row_storage_ BDRMAP_GUARDED_BY(egress_mu_);
  mutable std::deque<EgressEntry> egress_pool_ BDRMAP_GUARDED_BY(egress_mu_);
  // The router of each egress_row_storage_ row, and how many pool entries
  // a selective invalidation unpublished since the last clear.
  mutable std::vector<RouterId> egress_row_router_
      BDRMAP_GUARDED_BY(egress_mu_);
  std::size_t egress_dropped_ BDRMAP_GUARDED_BY(egress_mu_) = 0;

  // Churn overlay state (see the public churn section): a byte per link
  // (by LinkId) and per announced prefix (by index into
  // Internet::announced), written only under the quiescence contract and
  // read by resolve, next_hop's cross-link delivery and the egress fill.
  // withdrawn_ lists every withdrawn prefix, announced or not, for
  // withdrawn_prefixes(); the walk never reads it.
  std::vector<std::uint8_t> link_down_;
  std::vector<std::uint8_t> prefix_down_;
  std::vector<net::Prefix> withdrawn_;  // sorted ascending

  static const std::vector<Session> kNoSessions;
};

}  // namespace bdrmap::route
