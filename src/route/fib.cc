#include "route/fib.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "netbase/contract.h"

namespace bdrmap::route {

const std::vector<Session> Fib::kNoSessions;

namespace {

constexpr double kInfDist = std::numeric_limits<double>::infinity();

// Flow-stable tie break for equal-cost egresses (per-destination ECMP).
inline std::uint64_t flow_rank(Ipv4Addr dst, LinkId link) {
  std::uint64_t x = (std::uint64_t{dst.value()} << 32) | link.value;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 29;
  return x;
}

}  // namespace

Fib::Fib(const topo::Internet& net, const BgpSimulator& bgp,
         FibOptions options)
    : net_(net), bgp_(bgp) {
  if (options.metrics) {
    egress_hits_ = options.metrics->counter("route.fib.egress_cache_hits");
    egress_misses_ =
        options.metrics->counter("route.fib.egress_cache_misses");
    routing_fills_ = options.metrics->counter("route.fib.routing_fills");
    egress_tied_ = options.metrics->histogram(
        "route.fib.egress_tied_sessions", {0, 1, 2, 4, 8});
  }
  const auto& ases = net.ases();
  router_as_dense_.assign(net.routers().size(), kNoIndex);
  router_local_.assign(net.routers().size(), kNoIndex);
  for (std::uint32_t d = 0; d < ases.size(); ++d) {
    BDRMAP_EXPECTS(bgp.dense_index(ases[d].id) == d,
                   "Fib and BgpSimulator must index the same AS list");
    const auto& routers = ases[d].routers;
    for (std::uint32_t i = 0; i < routers.size(); ++i) {
      router_as_dense_[routers[i].value] = d;
      router_local_[routers[i].value] = i;
    }
  }
  // Slots start null; a vector of atomics is fixed-size by design.
  routing_ = std::vector<std::atomic<const AsRouting*>>(ases.size());
  link_down_.assign(net.links().size(), 0);
  prefix_down_.assign(net.announced().size(), 0);
  sessions_.resize(ases.size());
  sessions_by_far_.resize(ases.size());
  row_width_ = static_cast<std::uint32_t>(ases.size());
  pinned_column_.assign(net.announced().size(), kNoIndex);
  for (std::size_t i = 0; i < net.announced().size(); ++i) {
    if (!net.announced()[i].only_via_links.empty()) {
      pinned_column_[i] = row_width_++;
      pinned_dst_.push_back(bgp.dense_index(net.announced()[i].origin));
    }
  }
  // Row pointers start null; rows are allocated on the first egress
  // decision a router makes (vector of atomics is fixed-size by design).
  egress_rows_ = std::vector<std::atomic<std::atomic<const EgressEntry*>*>>(
      net.routers().size());

  for (const auto& info : net.interdomain_links()) {
    const auto& link = net.link(info.link);
    auto iface_of = [&](RouterId r) {
      for (IfaceId i : link.ifaces) {
        if (net.iface(i).router == r) return i;
      }
      return IfaceId{};
    };
    IfaceId ia = iface_of(info.router_a);
    IfaceId ib = iface_of(info.router_b);
    BDRMAP_EXPECTS(ia.valid() && ib.valid(),
                   "interdomain link must terminate on both end routers");
    std::uint32_t da = bgp.dense_index(info.as_a);
    std::uint32_t db = bgp.dense_index(info.as_b);
    BDRMAP_EXPECTS(da != kNoIndex && db != kNoIndex,
                   "interdomain link ends must be known ASes");
    sessions_[da].push_back({info.link, info.router_a, info.router_b,
                             ia, ib, info.as_a, info.as_b, info.via_ixp});
    sessions_[db].push_back({info.link, info.router_b, info.router_a,
                             ib, ia, info.as_b, info.as_a, info.via_ixp});
  }
  for (std::uint32_t d = 0; d < sessions_.size(); ++d) {
    const auto& list = sessions_[d];
    for (std::uint32_t i = 0; i < list.size(); ++i) {
      sessions_by_far_[d][list[i].far_as].push_back(i);
    }
  }
}

std::vector<std::uint64_t> Fib::set_link_state(LinkId link, bool up) {
  BDRMAP_EXPECTS(link.value < link_down_.size(),
                 "link added after Fib construction");
  link_down_[link.value] = up ? 0 : 1;
  // An egress decision reads the link's state iff it weighs a session over
  // it: its near AS decides toward a destination whose tiers list the far
  // AS. An IXP LAN carries one session per member pair.
  std::vector<std::pair<std::uint32_t, AsId>> sessions;
  for (std::uint32_t d = 0; d < sessions_.size(); ++d) {
    for (const Session& s : sessions_[d]) {
      if (s.link == link) sessions.emplace_back(d, s.far_as);
    }
  }
  std::vector<std::uint64_t> keys = bgp_.keys_listing(sessions);
  invalidate_egress(keys);
  keys.push_back(link_key(link));  // tagged, so it sorts last
  return keys;
}

std::vector<std::uint64_t> Fib::set_prefix_withdrawn(const net::Prefix& p,
                                                     bool withdrawn) {
  const auto at = std::lower_bound(withdrawn_.begin(), withdrawn_.end(), p);
  const bool listed = at != withdrawn_.end() && *at == p;
  if (withdrawn && !listed) withdrawn_.insert(at, p);
  if (!withdrawn && listed) withdrawn_.erase(at);
  const auto& announced = net_.announced();
  for (std::size_t i = 0; i < prefix_down_.size(); ++i) {
    if (announced[i].prefix == p) prefix_down_[i] = withdrawn ? 1 : 0;
  }
  return {prefix_key(p)};
}

void Fib::invalidate_egress(std::span<const std::uint64_t> changed) {
  BDRMAP_EXPECTS(std::is_sorted(changed.begin(), changed.end()),
                 "changed tier keys must be sorted");
  if (changed.empty()) return;
  net::MutexLock lk(egress_mu_);
  const auto as_count = static_cast<std::uint32_t>(sessions_.size());
  auto unpublish = [](std::atomic<const EgressEntry*>& slot) {
    return slot.exchange(nullptr, std::memory_order_relaxed) != nullptr;
  };
  for (std::size_t k = 0; k < egress_row_storage_.size(); ++k) {
    std::atomic<const EgressEntry*>* row = egress_row_storage_[k].get();
    // The keys of this router's AS are one run of the sorted keys.
    const std::uint32_t src = router_as_dense_[egress_row_router_[k].value];
    for (auto it = std::lower_bound(changed.begin(), changed.end(),
                                    BgpSimulator::tier_key(src, 0));
         it != changed.end() && (*it >> 32) == src; ++it) {
      const auto dst = static_cast<std::uint32_t>(*it);
      if (dst < as_count) egress_dropped_ += unpublish(row[dst]);
      for (std::uint32_t j = 0; j < pinned_dst_.size(); ++j) {
        if (pinned_dst_[j] == dst) {
          egress_dropped_ += unpublish(row[as_count + j]);
        }
      }
    }
  }
  if (2 * egress_dropped_ <= egress_pool_.size()) return;
  // Dropped entries outnumber live ones: clear the memo wholesale. Under
  // the quiescence contract relaxed stores suffice to null the rows.
  for (auto& storage : egress_row_storage_) {
    for (std::size_t j = 0; j < row_width_; ++j) {
      storage[j].store(nullptr, std::memory_order_relaxed);
    }
  }
  egress_pool_.clear();
  egress_dropped_ = 0;
}

const std::vector<Session>& Fib::sessions_of(AsId as) const {
  const std::uint32_t d = bgp_.dense_index(as);
  return d == kNoIndex ? kNoSessions : sessions_[d];
}

AsId Fib::owner_of(RouterId r) const {
  if (r.value < router_as_dense_.size() &&
      router_as_dense_[r.value] != kNoIndex) {
    return net_.ases()[router_as_dense_[r.value]].id;
  }
  return net_.router(r).owner;
}

const Fib::AsRouting& Fib::routing_fill(std::uint32_t as_dense) const {
  const AsId as = net_.ases()[as_dense].id;
  auto r = std::make_unique<AsRouting>();
  r->routers = net_.as_info(as).routers;
  const std::size_t n = r->routers.size();
  r->dist.assign(n * n, kInfDist);
  r->next_iface.assign(n * n, IfaceId{});
  r->alt_iface.assign(n * n, IfaceId{});

  // Adjacency from internal links between two routers of this AS.
  struct Edge {
    std::size_t to;
    double cost;
    IfaceId from_iface;
    IfaceId to_iface;
  };
  std::vector<std::vector<Edge>> adj(n);
  for (const auto& link : net_.links()) {
    if (link.kind != topo::LinkKind::kInternal || link.ifaces.size() != 2) {
      continue;
    }
    const auto& i0 = net_.iface(link.ifaces[0]);
    const auto& i1 = net_.iface(link.ifaces[1]);
    if (router_as_dense_[i0.router.value] != as_dense ||
        router_as_dense_[i1.router.value] != as_dense) {
      continue;
    }
    std::uint32_t a = router_local_[i0.router.value];
    std::uint32_t b = router_local_[i1.router.value];
    adj[a].push_back({b, link.igp_cost, i0.id, i1.id});
    adj[b].push_back({a, link.igp_cost, i1.id, i0.id});
  }

  // Dijkstra from every router (intra-AS topologies are small).
  for (std::size_t s = 0; s < n; ++s) {
    using Entry = std::pair<double, std::size_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
    r->dist[s * n + s] = 0.0;
    pq.emplace(0.0, s);
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > r->dist[s * n + u]) continue;
      for (const Edge& e : adj[u]) {
        double nd = d + e.cost;
        IfaceId first_hop =
            (u == s) ? e.from_iface : r->next_iface[s * n + u];
        if (nd < r->dist[s * n + e.to]) {
          r->dist[s * n + e.to] = nd;
          // First hop out of s toward e.to: inherit s's first hop toward u,
          // unless u == s, in which case the edge itself is the first hop.
          r->next_iface[s * n + e.to] = first_hop;
          r->alt_iface[s * n + e.to] = IfaceId{};
          pq.emplace(nd, e.to);
        } else if (nd == r->dist[s * n + e.to] &&
                   first_hop != r->next_iface[s * n + e.to] &&
                   first_hop.valid()) {
          // Equal-cost alternative first hop (ECMP).
          r->alt_iface[s * n + e.to] = first_hop;
        }
      }
    }
  }

  // Pure computation: racing fills for the same AS produced identical
  // tables, so first writer wins and the duplicate is discarded. The
  // tables are complete before the release store publishes them, and
  // routing_storage_ owns them for the Fib's lifetime. Only the published
  // fill counts.
  net::MutexLock lk(routing_mu_);
  if (const AsRouting* won =
          routing_[as_dense].load(std::memory_order_relaxed)) {
    return *won;
  }
  const AsRouting* published = r.get();
  routing_storage_.push_back(std::move(r));
  routing_[as_dense].store(published, std::memory_order_release);
  routing_fills_.inc();
  return *published;
}

// BDRMAP_HOT_BEGIN(fib_internal_step) — BDR104: the intra-AS hop. Dense
// table loads, one published-pointer acquire load and one flow hash;
// nothing may allocate or lock here (the fill lives outside the region).

const Fib::AsRouting& Fib::routing_for(std::uint32_t as_dense) const {
  const AsRouting* rt = routing_[as_dense].load(std::memory_order_acquire);
  return rt ? *rt : routing_fill(as_dense);
}

double Fib::igp_distance(RouterId a, RouterId b) const {
  if (a == b) return 0.0;
  if (a.value >= router_as_dense_.size() ||
      b.value >= router_as_dense_.size()) {
    return kInfDist;
  }
  std::uint32_t da = router_as_dense_[a.value];
  if (da == kNoIndex || da != router_as_dense_[b.value]) return kInfDist;
  std::uint32_t ia = router_local_[a.value];
  std::uint32_t ib = router_local_[b.value];
  const AsRouting& rt = routing_for(da);
  return rt.dist[ia * rt.routers.size() + ib];
}

std::optional<Fib::Hop> Fib::internal_step(RouterId r, RouterId target,
                                           Ipv4Addr dst) const {
  std::uint32_t as_dense = router_as_dense_[r.value];
  if (as_dense == kNoIndex ||
      router_as_dense_[target.value] != as_dense) {
    return std::nullopt;
  }
  const AsRouting& rt = routing_for(as_dense);
  std::uint32_t ir = router_local_[r.value];
  std::uint32_t it = router_local_[target.value];
  std::size_t n = rt.routers.size();
  IfaceId out = rt.next_iface[ir * n + it];
  IfaceId alt = rt.alt_iface[ir * n + it];
  if (alt.valid()) {
    // ECMP: hash the flow (destination, router), stable per destination.
    std::uint64_t h = (std::uint64_t{dst.value()} << 32) | r.value;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 29;
    if (h & 1) out = alt;
  }
  if (!out.valid()) return std::nullopt;  // disconnected
  const auto& iface = net_.iface(out);
  IfaceId in = net_.p2p_other_end(out);
  if (!in.valid()) return std::nullopt;
  return Hop{net_.iface(in).router, in, out, iface.link, false};
}
// BDRMAP_HOT_END(fib_internal_step)

Fib::EgressEntry Fib::compute_egress_entry(
    RouterId r, AsId dst_as, const std::vector<LinkId>* pinned) const {
  // Fill: first satisfiable tier, sessions tied at minimal IGP distance
  // from r, in session order — the per-destination rank that picks among
  // them is applied by next_hop at lookup time.
  EgressEntry entry;
  const AsId as = owner_of(r);
  const std::uint32_t as_dense = router_as_dense_[r.value];
  const auto& sessions = sessions_[as_dense];
  const auto& by_far = sessions_by_far_[as_dense];
  if (!sessions.empty()) {
    for (const auto& tier : bgp_.tiers(as, dst_as).tiers) {
      // The tier's sessions, far AS by far AS; which of them tie does not
      // depend on the visiting order, and sorting the ties restores
      // session order (sessions_ is one vector, so pointer order is index
      // order).
      double best_dist = kInfDist;
      for (AsId far : tier) {
        auto it = by_far.find(far);
        if (it == by_far.end()) continue;
        for (std::uint32_t idx : it->second) {
          const Session& s = sessions[idx];
          if (pinned && s.far_as == dst_as &&
              std::find(pinned->begin(), pinned->end(), s.link) ==
                  pinned->end()) {
            continue;
          }
          if (link_is_down(s.link)) continue;  // churn overlay
          double d = igp_distance(r, s.near_router);
          if (d == kInfDist) continue;
          if (d < best_dist) {
            best_dist = d;
            entry.tied.clear();
          }
          if (d == best_dist) entry.tied.push_back(&s);
        }
      }
      if (!entry.tied.empty()) {  // tier satisfied
        std::sort(entry.tied.begin(), entry.tied.end());
        break;
      }
    }
  }
  return entry;
}

const Fib::EgressEntry* Fib::egress_fill(
    RouterId r, const RouteQuery::Resolved& res) const {
  EgressEntry filled = compute_egress_entry(r, res.dst_as, res.pinned);

  net::MutexLock lk(egress_mu_);
  std::atomic<const EgressEntry*>* row =
      egress_rows_[r.value].load(std::memory_order_relaxed);
  if (!row) {
    auto storage = std::make_unique<std::atomic<const EgressEntry*>[]>(
        row_width_);  // value-initialized: every slot starts null
    row = storage.get();
    egress_row_storage_.push_back(std::move(storage));
    egress_row_router_.push_back(r);
    egress_rows_[r.value].store(row, std::memory_order_release);
  }
  // First writer wins; a racing fill computed the identical entry. Only
  // the published fill counts.
  if (const EgressEntry* e = row[res.column].load(std::memory_order_relaxed)) {
    return e;
  }
  egress_misses_.inc();
  egress_tied_.observe(filled.tied.size());
  egress_pool_.push_back(std::move(filled));
  const EgressEntry* e = &egress_pool_.back();
  row[res.column].store(e, std::memory_order_release);
  return e;
}

// BDRMAP_HOT_BEGIN(fib_walk) — BDR104: the per-hop forwarding decision.
// Array loads, overlay bytes, published-pointer acquire loads and pure
// hashes only; no node containers, no heap allocation, no lock (cold
// fills live outside the region).

bool Fib::link_is_down(LinkId link) const {
  return link.value < link_down_.size() && link_down_[link.value] != 0;
}

Fib::RouteQuery::Resolved Fib::resolve(Ipv4Addr dst) const {
  RouteQuery::Resolved r;
  if (auto iface_id = net_.iface_at(dst)) {
    const auto& iface = net_.iface(*iface_id);
    const auto& link = net_.link(iface.link);
    RouterId t = iface.router;
    AsId owner = owner_of(t);
    r.ok = true;
    r.is_iface_addr = true;
    r.final_router = t;
    if (link.kind == topo::LinkKind::kInterdomain &&
        link.addr_space_owner != owner) {
      // Provider-assigned p2p address on the far side: packets route toward
      // the supplier's AS, whose router on the subnet delivers across the
      // link (this is why far-side link addresses are reachable at all).
      for (net::IfaceId other : link.ifaces) {
        const auto& oi = net_.iface(other);
        if (owner_of(oi.router) == link.addr_space_owner) {
          r.dst_as = link.addr_space_owner;
          r.column = bgp_.dense_index(r.dst_as);
          r.target = oi.router;
          r.cross_link = link.id;
          r.cross_egress = other;
          r.key = link_key(link.id);
          return r;
        }
      }
    }
    r.dst_as = owner;
    r.column = bgp_.dense_index(owner);
    r.target = t;
    return r;
  }
  if (const auto* ap = net_.announced_match(dst)) {
    // A withdrawn prefix has no route; there is deliberately no
    // less-specific fallback (matching announced_match's exact-trie
    // semantics — see docs/serving.md).
    const auto i = static_cast<std::size_t>(ap - net_.announced().data());
    BDRMAP_EXPECTS(i < prefix_down_.size(),
                   "prefix announced after Fib construction");
    r.key = prefix_key(ap->prefix);
    if (prefix_down_[i] != 0) return r;
    r.ok = true;
    r.dst_as = ap->origin;
    r.column = bgp_.dense_index(ap->origin);
    r.target = ap->host_router;
    r.final_router = ap->host_router;
    r.ap = ap;
    if (!ap->only_via_links.empty()) {
      r.pinned = &ap->only_via_links;
      BDRMAP_EXPECTS(pinned_column_[i] != kNoIndex,
                     "pinned prefix announced after Fib construction");
      if (r.column != kNoIndex) r.column = pinned_column_[i];
    }
    return r;
  }
  return r;
}

Fib::RouteQuery Fib::query(Ipv4Addr dst) const {
  RouteQuery q;
  q.dst_ = dst;
  q.res_ = resolve(dst);
  return q;
}

const Fib::EgressEntry* Fib::egress_entry(
    RouterId r, const RouteQuery::Resolved& res) const {
  std::atomic<const EgressEntry*>* row =
      egress_rows_[r.value].load(std::memory_order_acquire);
  if (row) {
    const EgressEntry* e = row[res.column].load(std::memory_order_acquire);
    if (e) {
      egress_hits_.inc();
      return e;
    }
  }
  return egress_fill(r, res);
}

std::optional<Fib::Hop> Fib::next_hop(RouterId r, const RouteQuery& q) const {
  const RouteQuery::Resolved& res = q.res_;
  const Ipv4Addr dst = q.dst_;
  if (!res.ok) return std::nullopt;
  AsId x = owner_of(r);

  // Already inside the AS that ultimately owns the address.
  if (res.final_router.valid() && owner_of(res.final_router) == x) {
    if (r == res.final_router) return std::nullopt;  // delivered
    return internal_step(r, res.final_router, dst);
  }

  if (x == res.dst_as) {
    if (r == res.target) {
      if (res.cross_link.valid()) {
        // Deliver across the p2p subnet to the far-side router — unless
        // churn took the link down, which strands the far-side address.
        if (link_is_down(res.cross_link)) return std::nullopt;
        const auto& link = net_.link(res.cross_link);
        for (IfaceId i : link.ifaces) {
          const auto& iface = net_.iface(i);
          if (iface.router == res.final_router) {
            return Hop{iface.router, i, res.cross_egress, link.id, true};
          }
        }
        return std::nullopt;
      }
      return std::nullopt;  // delivered (host prefix attachment point)
    }
    return internal_step(r, res.target, dst);
  }

  // Interdomain: pick an egress session by preference tier + hot potato.
  // An AS outside the construction snapshot has no candidate tiers.
  if (res.column == kNoIndex) return std::nullopt;
  const EgressEntry* e = egress_entry(r, res);
  if (e->tied.empty()) return std::nullopt;
  const Session* egress = e->tied.front();
  if (e->tied.size() > 1) {
    std::uint64_t best_rank = flow_rank(dst, egress->link);
    for (std::size_t i = 1; i < e->tied.size(); ++i) {
      std::uint64_t rank = flow_rank(dst, e->tied[i]->link);
      if (rank < best_rank) {
        egress = e->tied[i];
        best_rank = rank;
      }
    }
  }
  BDRMAP_ASSERT(egress->near_as == x,
                "chosen egress session must belong to the forwarding AS");
  if (egress->near_router == r) {
    return Hop{egress->far_router, egress->far_iface, egress->near_iface,
               egress->link, true};
  }
  return internal_step(r, egress->near_router, dst);
}

bool Fib::delivered_at(RouterId r, const RouteQuery& q) const {
  const RouteQuery::Resolved& res = q.res_;
  if (!res.ok) return false;
  if (res.is_iface_addr) return r == res.final_router;
  return r == res.target && res.ap && res.ap->prefix.contains(q.dst_);
}

// BDRMAP_HOT_END(fib_walk)

bool Fib::addr_owned_by(RouterId r, const RouteQuery& q) const {
  return q.res_.is_iface_addr && q.res_.final_router == r;
}

std::optional<IfaceId> Fib::egress_iface(RouterId r,
                                         const RouteQuery& q) const {
  auto hop = next_hop(r, q);
  if (!hop || !hop->egress.valid()) return std::nullopt;
  return hop->egress;
}

}  // namespace bdrmap::route
